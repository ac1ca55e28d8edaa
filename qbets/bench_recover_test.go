package qbets

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/wal"
)

// recoverBenchKeys returns n stream keys in the service's per-category
// form ("queue/label"), cycling the processor categories.
func recoverBenchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("q%05d/%s", i/4, ProcCategory(i%4).Label())
	}
	return keys
}

// BenchmarkRecoverWAL times a restart's log replay: 10,000 streams × 100
// records, interleaved round-robin (the loadbench forecast preload's
// shape), recovered into a fresh service. records/s is the headline; the
// log lives in a MemFS so the number is the replay code's, not the disk's.
//
//	go test -run '^$' -bench RecoverWAL -benchtime=5x ./qbets/
func BenchmarkRecoverWAL(b *testing.B) {
	const streams, perStream = 10000, 100
	keys := recoverBenchKeys(streams)
	rng := rand.New(rand.NewSource(1))
	recs := make([]wal.Record, 0, streams*perStream)
	for r := 0; r < perStream; r++ {
		for _, k := range keys {
			recs = append(recs, wal.Record{Seq: uint64(len(recs) + 1), Key: k, Wait: rng.ExpFloat64() * 600, UnixNanos: 1})
		}
	}
	fs := wal.NewMemFS()
	writeLog(b, fs, recs, 0)
	total := len(recs)
	recs = nil
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := NewService(true, WithSeed(1))
		w, err := wal.Open("wal", wal.Options{Mode: wal.SyncOff, FS: fs})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		stats, err := s.RecoverWAL(w)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if stats.Records != total || s.NumStreams() != streams {
			b.Fatalf("replayed %d records into %d streams, want %d into %d", stats.Records, s.NumStreams(), total, streams)
		}
		w.Close()
	}
	b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}
