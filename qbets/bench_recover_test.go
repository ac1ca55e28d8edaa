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
func BenchmarkRecoverWAL(b *testing.B) { benchRecoverWAL(b, recoverBenchKeys(10000)) }

// BenchmarkRecoverWALSiteKeys is BenchmarkRecoverWAL with keys shaped
// like loadbench forecast's ("siteNNNN.machine/queue/label", about 30
// bytes): a per-record key cost (hashing, copying, comparing) weighs
// three times as much as on BenchmarkRecoverWAL's 9-byte keys.
func BenchmarkRecoverWALSiteKeys(b *testing.B) { benchRecoverWAL(b, siteKeys(10000)) }

// siteKeys returns n stream keys shaped like loadbench forecast's
// ("siteNNNN.machine/queue/label", 26–28 bytes), cycling the processor
// categories.
func siteKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("site%04d.machine/queue/%s", i/4, ProcCategory(i%4).Label())
	}
	return keys
}

func benchRecoverWAL(b *testing.B, keys []string) {
	const perStream = 100
	rng := rand.New(rand.NewSource(1))
	recs := make([]wal.Record, 0, len(keys)*perStream)
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
		if stats.Records != total || s.NumStreams() != len(keys) {
			b.Fatalf("replayed %d records into %d streams, want %d into %d", stats.Records, s.NumStreams(), total, len(keys))
		}
		w.Close()
	}
	b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}
