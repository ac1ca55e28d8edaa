package qbets

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/wal"
)

// Concurrent mixed-workload benchmark: observes and forecasts spread over
// many distinct streams, the serving pattern the sharded registry exists
// for. The "global-lock" variant reproduces the previous architecture —
// every operation serialized behind one mutex — so the pair quantifies
// what sharding buys. On a multi-core host the sharded variant scales with
// GOMAXPROCS while the global lock stays flat; expect >= 3x at 8 streams
// and 8+ cores. (On a single-core host the two converge: there is no
// parallelism for sharding to unlock.)
//
//	go test -run '^$' -bench ConcurrentMixed -cpu 1,4,8 ./qbets/
func BenchmarkServiceConcurrentMixed(b *testing.B) {
	const streams = 8
	prewarm := func() *Service {
		svc := NewService(false, WithSeed(1))
		rng := rand.New(rand.NewSource(1))
		for s := 0; s < streams; s++ {
			q := fmt.Sprintf("q%d", s)
			for i := 0; i < 500; i++ {
				svc.Observe(q, 1, math.Exp(rng.NormFloat64())*60)
			}
		}
		return svc
	}
	names := make([]string, streams)
	for s := range names {
		names[s] = fmt.Sprintf("q%d", s)
	}

	run := func(b *testing.B, observe func(q string, w float64), forecast func(q string)) {
		var ctr atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			// Each goroutine works a rotating stream so traffic covers all
			// streams while consecutive ops usually hit different locks.
			i := int(ctr.Add(1))
			for pb.Next() {
				q := names[i%streams]
				if i%4 == 0 {
					observe(q, float64(i%1000))
				} else {
					forecast(q)
				}
				i++
			}
		})
	}

	b.Run("sharded", func(b *testing.B) {
		svc := prewarm()
		run(b,
			func(q string, w float64) { svc.Observe(q, 1, w) },
			func(q string) { svc.Forecast(q, 1) })
	})

	b.Run("global-lock", func(b *testing.B) {
		svc := prewarm()
		var mu sync.Mutex
		run(b,
			func(q string, w float64) { mu.Lock(); svc.Observe(q, 1, w); mu.Unlock() },
			func(q string) { mu.Lock(); svc.Forecast(q, 1); mu.Unlock() })
	})
}

// BenchmarkServiceObserve quantifies what durability costs on the observe
// hot path: the in-memory baseline vs. the same workload logged through a
// write-ahead log under each sync policy. Interval sync (the default
// deployment mode) amortizes the fsync and should stay well under 2x the
// no-WAL path; per-record sync pays a real fsync per observation and is
// reported for contrast, not expected to be cheap.
//
//	go test -run '^$' -bench ServiceObserve ./qbets/
func BenchmarkServiceObserve(b *testing.B) {
	run := func(b *testing.B, svc *Service) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := svc.Observe("normal", 1, float64(i%1000)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("nowal", func(b *testing.B) {
		run(b, NewService(false, WithSeed(3)))
	})
	b.Run("wal-interval", func(b *testing.B) {
		w, err := wal.Open(b.TempDir(), wal.Options{Mode: wal.SyncInterval})
		if err != nil {
			b.Fatal(err)
		}
		svc := NewService(false, WithSeed(3))
		if _, err := svc.RecoverWAL(w); err != nil {
			b.Fatal(err)
		}
		run(b, svc)
	})
	b.Run("wal-each-record", func(b *testing.B) {
		w, err := wal.Open(b.TempDir(), wal.Options{Mode: wal.SyncEachRecord})
		if err != nil {
			b.Fatal(err)
		}
		svc := NewService(false, WithSeed(3))
		if _, err := svc.RecoverWAL(w); err != nil {
			b.Fatal(err)
		}
		run(b, svc)
	})
}

// BenchmarkServiceObserveBatch covers the batched apply path across batch
// sizes and sync policies. One op = one batch; the reported records/s
// metric normalizes across sizes. Record r of the run carries wait
// r%1000, the waits BenchmarkServiceObserve feeds, so size1 compares with
// it per record. The sync=always numbers against
// BenchmarkServiceObserve/wal-each-record (one fsync per record) are the
// group-append payoff: at batch 100 the WAL pays one write and one fsync
// for the whole batch.
//
//	go test -run '^$' -bench ServiceObserveBatch ./qbets/
func BenchmarkServiceObserveBatch(b *testing.B) {
	newSvc := func(b *testing.B, mode wal.SyncMode, withWAL, groupCommit bool) *Service {
		svc := NewService(false, WithSeed(3))
		if withWAL {
			w, err := wal.Open(b.TempDir(), wal.Options{Mode: mode, GroupCommit: groupCommit})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := svc.RecoverWAL(w); err != nil {
				b.Fatal(err)
			}
		}
		return svc
	}
	for _, mode := range []struct {
		name    string
		mode    wal.SyncMode
		withWAL bool
	}{
		{"nowal", 0, false},
		{"wal-interval", wal.SyncInterval, true},
		{"wal-always", wal.SyncEachRecord, true},
	} {
		for _, size := range []int{1, 10, 100} {
			b.Run(fmt.Sprintf("%s/size%d", mode.name, size), func(b *testing.B) {
				svc := newSvc(b, mode.mode, mode.withWAL, false)
				batch := make([]ObserveRecord, size)
				for j := range batch {
					batch[j] = ObserveRecord{Queue: "normal", Procs: 1}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := range batch {
						batch[j].WaitSeconds = float64((i*size + j) % 1000)
					}
					if applied, err := svc.ObserveBatch(batch); err != nil || applied != size {
						b.Fatalf("applied %d, %v", applied, err)
					}
				}
				b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
			})
		}
	}
	// Multi-stream chunks, the shape of a scheduler-log dump: 256-record
	// batches over 16 and 256 streams with siteKeys-shaped keys, laid out
	// in shuffled rounds as loadbench's preload lays out plan's set-up.
	// The streams are created by one untimed batch.
	for _, streams := range []int{16, 256} {
		b.Run(fmt.Sprintf("nowal/streams%d/size256", streams), func(b *testing.B) {
			svc := NewService(true, WithSeed(3))
			recs := siteRecords(streams, 64*256/streams, 1)
			if _, err := svc.ObserveBatch(recs[:256]); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := i % 64 * 256
				if applied, err := svc.ObserveBatch(recs[at : at+256]); err != nil || applied != 256 {
					b.Fatalf("applied %d, %v", applied, err)
				}
			}
			b.ReportMetric(256*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
	// Group commit under concurrency: goroutines feeding different streams
	// (same-stream batches serialize on the stream write lock regardless)
	// each commit small batches with full per-batch durability; the
	// leader/follower path amortizes the fsync across them.
	b.Run("wal-always-group-commit/size10/parallel", func(b *testing.B) {
		svc := newSvc(b, wal.SyncEachRecord, true, true)
		// Commits block in fsync, not on CPU, so concurrency beyond
		// GOMAXPROCS is what the group-commit path exists to absorb.
		b.SetParallelism(8)
		var ctr atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			q := fmt.Sprintf("q%d", ctr.Add(1))
			batch := make([]ObserveRecord, 10)
			for i := range batch {
				batch[i] = ObserveRecord{Queue: q, Procs: 1, WaitSeconds: float64(10 + i)}
			}
			for pb.Next() {
				if applied, err := svc.ObserveBatch(batch); err != nil || applied != 10 {
					b.Fatalf("applied %d, %v", applied, err)
				}
			}
		})
		b.ReportMetric(10*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
}

// siteRecords lays out rounds records for each of n streams the way
// loadbench's preload lays out a shared scheduler log: round k carries
// one record per stream, streams in a seeded order per round. Stream i is
// queue "siteNNNN.machine/queue" (NNNN = i) with a processor count in
// category i%4, so the n streams stay distinct under either routing mode
// and their by-category keys have siteKeys' shape.
func siteRecords(n, rounds int, seed int64) []ObserveRecord {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]ObserveRecord, 0, n*rounds)
	for k := 0; k < rounds; k++ {
		for _, i := range rng.Perm(n) {
			procs, _ := ProcCategory(i % 4).Range()
			queue := fmt.Sprintf("site%04d.machine/queue", i)
			recs = append(recs, ObserveRecord{Queue: queue, Procs: procs, WaitSeconds: rng.ExpFloat64() * 600})
		}
	}
	return recs
}

func observePayload(size int) []byte {
	sb := []byte(`[`)
	for i := 0; i < size; i++ {
		if i > 0 {
			sb = append(sb, ',')
		}
		sb = append(sb, []byte(fmt.Sprintf(`{"queue":"normal","procs":%d,"wait_seconds":%d}`, 1<<(i%8), 10+i))...)
	}
	return append(sb, ']')
}

// BenchmarkServerObserveBatch measures the HTTP ingestion path end to end
// (JSON decode, validation, sharded dispatch, metrics) without network,
// across batch sizes and sync policies. The wal-always pair is the PR's
// headline comparison: "batched" is the shipping pipeline (one group
// append + one fsync per request), "per-record-appends" reproduces the
// previous pipeline — decode everything, then one Observe with its own
// WAL append and fsync per record.
//
//	go test -run '^$' -bench ServerObserveBatch ./qbets/
func BenchmarkServerObserveBatch(b *testing.B) {
	bench := func(b *testing.B, h http.Handler, payload []byte, size int) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/observe", bytes.NewReader(payload))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusNoContent {
				b.Fatalf("status %d", w.Code)
			}
		}
		b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	}
	newWALServer := func(b *testing.B) (*Server, *Service) {
		w, err := wal.Open(b.TempDir(), wal.Options{Mode: wal.SyncEachRecord})
		if err != nil {
			b.Fatal(err)
		}
		svc := NewService(true, WithSeed(2))
		if _, err := svc.RecoverWAL(w); err != nil {
			b.Fatal(err)
		}
		return NewServerWith(svc), svc
	}

	for _, size := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("nowal/size%d", size), func(b *testing.B) {
			bench(b, NewServer(true, WithSeed(2)), observePayload(size), size)
		})
	}

	b.Run("wal-always/size100/batched", func(b *testing.B) {
		srv, _ := newWALServer(b)
		bench(b, srv, observePayload(100), 100)
	})

	b.Run("wal-always/size100/per-record-appends", func(b *testing.B) {
		_, svc := newWALServer(b)
		legacy := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			raw, err := io.ReadAll(r.Body)
			if err != nil {
				b.Fatal(err)
			}
			var recs []ObserveRecord
			if err := json.Unmarshal(raw, &recs); err != nil {
				b.Fatal(err)
			}
			for _, rec := range recs {
				if err := svc.Observe(rec.Queue, rec.Procs, rec.WaitSeconds); err != nil {
					b.Fatal(err)
				}
			}
			w.WriteHeader(http.StatusNoContent)
		})
		bench(b, legacy, observePayload(100), 100)
	})
}
