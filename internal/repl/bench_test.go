package repl

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wal"
)

// benchApp is the cheapest possible ReplicaApp: it tracks the applied
// watermark and discards records, so the benchmark measures the shipping
// pipeline (tail read, framing, transport, ack) rather than forecast
// recomputation — qbets has its own apply-cost benchmarks.
type benchApp struct{ applied atomic.Uint64 }

func (a *benchApp) ReplicaAppliedSeq() uint64 { return a.applied.Load() }

func (a *benchApp) ApplyReplicated(prevSeq uint64, recs []wal.Record) error {
	if prevSeq > a.applied.Load() {
		return fmt.Errorf("gap: batch extends %d past applied %d", prevSeq, a.applied.Load())
	}
	if last := recs[len(recs)-1].Seq; last > a.applied.Load() {
		a.applied.Store(last)
	}
	return nil
}

func (a *benchApp) InstallReplicaSnapshot(coveredSeq uint64, blob []byte) error {
	a.applied.Store(coveredSeq)
	return nil
}

type benchSnap struct{ app *benchApp }

func (s benchSnap) ReplicaSnapshot() (uint64, []byte, error) {
	return s.app.applied.Load(), []byte("{}"), nil
}

// BenchmarkShipThroughput measures end-to-end replication throughput over
// the in-memory transport across a fan-out matrix: records appended to a
// MemFS WAL, tailed and batch-framed once by the leader, shipped to F
// followers, applied and acked by each. The custom metric is aggregate
// records/s — records delivered across all followers — so frame-once/
// ship-many shows up as scaling with F rather than a flat line.
func BenchmarkShipThroughput(b *testing.B) {
	for _, followers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("followers=%d", followers), func(b *testing.B) {
			benchShipThroughput(b, followers)
		})
	}
}

func benchShipThroughput(b *testing.B, followers int) {
	fs := wal.NewMemFS()
	w, err := wal.Open("wal", wal.Options{FS: fs, Mode: wal.SyncEachRecord})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Replay(func(wal.Record) {}); err != nil {
		b.Fatal(err)
	}

	tr := NewMemTransport()
	snapApp := &benchApp{}
	ldr := NewLeader(w, benchSnap{snapApp}, LeaderOptions{Epoch: 1})
	defer ldr.Close()
	ln, err := tr.Listen("leader")
	if err != nil {
		b.Fatal(err)
	}
	go ldr.Serve(ln)

	apps := make([]*benchApp, followers)
	for i := range apps {
		apps[i] = &benchApp{}
		fol, err := NewFollower(apps[i], FollowerOptions{Addr: "leader", Transport: tr})
		if err != nil {
			b.Fatal(err)
		}
		defer fol.Close()
		go fol.Run()
		deadline := time.Now().Add(10 * time.Second)
		for !fol.Connected() {
			if time.Now().After(deadline) {
				b.Fatalf("follower %d never connected", i)
			}
			time.Sleep(time.Millisecond)
		}
	}

	const chunk = 256
	recs := make([]wal.Entry, chunk)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	appended := uint64(0)
	for n := 0; n < b.N; n += chunk {
		m := chunk
		if rest := b.N - n; rest < m {
			m = rest
		}
		for i := 0; i < m; i++ {
			recs[i] = wal.Entry{Key: "normal", Wait: float64(10 + i)}
		}
		if _, err := w.AppendBatch(recs[:m]); err != nil {
			b.Fatal(err)
		}
		appended += uint64(m)
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, app := range apps {
		for app.applied.Load() < appended {
			if time.Now().After(deadline) {
				b.Fatalf("follower applied %d of %d", app.applied.Load(), appended)
			}
			time.Sleep(time.Millisecond)
		}
	}
	elapsed := time.Since(start).Seconds()
	b.StopTimer()
	b.ReportMetric(float64(appended*uint64(followers))/elapsed, "records/s")
	b.ReportMetric(float64(ldr.BatchCacheHits()), "cache-hits")
	b.ReportMetric(float64(ldr.BatchCacheMisses()), "cache-misses")
}

// BenchmarkSnapshotCatchup measures chunked snapshot catch-up: each
// iteration connects a fresh follower that must install a 128-chunk,
// ~4 MiB snapshot (rendered, CRC-framed, windowed, acked) before it is
// caught up. The custom metric is snapshot bytes per second of transfer.
func BenchmarkSnapshotCatchup(b *testing.B) {
	fs := wal.NewMemFS()
	w, err := wal.Open("wal", wal.Options{FS: fs, Mode: wal.SyncEachRecord})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Replay(func(wal.Record) {}); err != nil {
		b.Fatal(err)
	}
	if _, err := appendOne(w, "q", 1, 1); err != nil {
		b.Fatal(err)
	}

	const chunks = 128
	const chunkBytes = 32 << 10
	payload := make([][]byte, chunks)
	total := 0
	for i := range payload {
		payload[i] = bytes.Repeat([]byte{byte(i)}, chunkBytes)
		total += chunkBytes
	}
	tr := NewMemTransport()
	snap := &stubStreamSnap{w: w, chunks: payload}
	ldr := NewLeader(w, snap, LeaderOptions{Epoch: 1})
	defer ldr.Close()
	ln, err := tr.Listen("leader")
	if err != nil {
		b.Fatal(err)
	}
	go ldr.Serve(ln)

	covered := w.SyncedSeq()
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for n := 0; n < b.N; n++ {
		app := &benchApp{}
		fol, err := NewFollower(app, FollowerOptions{Addr: "leader", Transport: tr})
		if err != nil {
			b.Fatal(err)
		}
		go fol.Run()
		deadline := time.Now().Add(30 * time.Second)
		for app.applied.Load() < covered {
			if time.Now().After(deadline) {
				fol.Close()
				b.Fatal("catch-up never completed")
			}
			runtime.Gosched()
		}
		fol.Close()
	}
	elapsed := time.Since(start).Seconds()
	b.StopTimer()
	b.ReportMetric(float64(total*b.N)/elapsed, "snap-bytes/s")
}
