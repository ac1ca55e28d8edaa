package qbets

import (
	"math/rand"
	"testing"

	"repro/internal/wal"
)

// BenchmarkFollowerForecast measures the follower read path: the same
// lock-free snapshot serve as on the leader, with the role gate flipped.
// The number on record proves consistent-prefix follower reads pay
// nothing for the role — the gate is one atomic load on the write path
// and absent from the read path entirely.
func BenchmarkFollowerForecast(b *testing.B) {
	svc := prewarmReadService(b)
	svc.SetFollower(true)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, ok := svc.Forecast("normal", 1); !ok {
				b.Fatal("no forecast")
			}
		}
	})
}

// shipBatches logs rounds round-robin passes over keys and reads the log
// back as a leader ships it: batches of at most 256 frames, each with the
// sequence it extends.
func shipBatches(tb testing.TB, keys []string, rounds int) (frames [][]byte, prev []uint64) {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	recs := make([]wal.Record, 0, rounds*len(keys))
	for r := 0; r < rounds; r++ {
		for _, k := range keys {
			recs = append(recs, wal.Record{Key: k, Wait: rng.ExpFloat64() * 600, UnixNanos: 1})
		}
	}
	fs := wal.NewMemFS()
	writeLog(tb, fs, recs, 0)
	w, err := wal.Open("wal", wal.Options{Mode: wal.SyncOff, FS: fs})
	if err != nil {
		tb.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Replay(nil); err != nil {
		tb.Fatal(err)
	}
	tr := w.OpenTail(0)
	defer tr.Close()
	for {
		after := tr.AfterSeq()
		b, n, gap, err := tr.ReadFrames(nil, w.SyncedSeq(), 256)
		if err != nil || gap {
			tb.Fatalf("tail read: gap=%v err=%v", gap, err)
		}
		if n == 0 {
			return frames, prev
		}
		frames, prev = append(frames, b), append(prev, after)
	}
}

// applyShipped decodes one shipped batch and applies it, as a follower
// session does; it returns the batch's record count.
func applyShipped(tb testing.TB, svc *Service, dec *wal.FrameDecoder, frames []byte, prev uint64) int {
	recs, err := dec.Decode(frames)
	if err != nil {
		tb.Fatal(err)
	}
	if err := svc.ApplyReplicated(prev, recs); err != nil {
		tb.Fatal(err)
	}
	return len(recs)
}

// BenchmarkApplyReplicated times a follower's share of replication at
// loadbench forecast's shape: 10,000 site keys shipped in batches of 256
// records, one op being one batch decoded and applied.
//
//   - duplicate re-applies batches the follower already holds (a
//     reconnect's re-send): every record skips by its stream's lastSeq.
//
//   - fresh applies batches the follower has not seen: every record
//     extends its stream's history. The first round's batches, which
//     create the streams, run untimed; when the batches run out a new
//     follower takes over, also untimed.
//
//     go test -run '^$' -bench ApplyReplicated -benchmem ./qbets/
func BenchmarkApplyReplicated(b *testing.B) {
	keys := siteKeys(10000)
	frames, prev := shipBatches(b, keys, 11)
	warm := (len(keys) + 255) / 256
	newFollower := func(upto int) (*Service, *wal.FrameDecoder) {
		svc := NewService(true, WithSeed(1))
		svc.SetFollower(true)
		dec := new(wal.FrameDecoder)
		for j := 0; j < upto; j++ {
			applyShipped(b, svc, dec, frames[j], prev[j])
		}
		return svc, dec
	}
	b.Run("duplicate", func(b *testing.B) {
		svc, dec := newFollower(len(frames))
		records := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % len(frames)
			records += applyShipped(b, svc, dec, frames[j], prev[j])
		}
		b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
	})
	b.Run("fresh", func(b *testing.B) {
		var svc *Service
		var dec *wal.FrameDecoder
		j, records := len(frames), 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if j == len(frames) {
				b.StopTimer()
				svc, dec = newFollower(warm)
				j = warm
				b.StartTimer()
			}
			records += applyShipped(b, svc, dec, frames[j], prev[j])
			j++
		}
		b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
	})
}
