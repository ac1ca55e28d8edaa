package qbets

import (
	"testing"

	"repro/internal/wal"
)

// Alloc budgets for the steady-state write plane. The benchmarks report
// allocs/op but CI doesn't fail on them; these tests do. The budget is
// deliberately fractional: the hot path itself is alloc-free, but history
// growth inside the forecaster and the 1-in-publishBacklog eager snapshot
// publish amortize to well under half an allocation per observe. A
// regression that puts even one allocation on the per-record path lands at
// ≥1.0 and fails loudly.
const writePathAllocBudget = 0.5

// TestObserveAllocBudget pins the single-record write path (the
// BenchmarkServiceObserve/nowal subject) at amortized-zero allocations.
func TestObserveAllocBudget(t *testing.T) {
	svc := NewService(false, WithSeed(3))
	// Warm: create the stream, settle the forecaster, grow early buffers.
	for i := 0; i < 2000; i++ {
		if err := svc.Observe("normal", 1, float64(i%1000)); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(4000, func() {
		if err := svc.Observe("normal", 1, float64(i%1000)); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg > writePathAllocBudget {
		t.Fatalf("Observe averaged %.3f allocs/op, budget %.1f", avg, writePathAllocBudget)
	}
}

// TestObserveBatchAllocBudget pins the batched write path (the
// BenchmarkServiceObserveBatch/nowal subjects) per record, across the
// benchmarked batch sizes.
func TestObserveBatchAllocBudget(t *testing.T) {
	for _, size := range []int{1, 10, 100} {
		svc := NewService(false, WithSeed(3))
		recs := make([]ObserveRecord, size)
		for i := range recs {
			recs[i] = ObserveRecord{Queue: "normal", Procs: 1, WaitSeconds: float64(10 + i%1000)}
		}
		for i := 0; i < 2000/size+1; i++ {
			if _, err := svc.ObserveBatch(recs); err != nil {
				t.Fatal(err)
			}
		}
		runs := 4000 / size
		if runs < 200 {
			runs = 200
		}
		avg := testing.AllocsPerRun(runs, func() {
			if _, err := svc.ObserveBatch(recs); err != nil {
				t.Fatal(err)
			}
		})
		if perRec := avg / float64(size); perRec > writePathAllocBudget {
			t.Fatalf("ObserveBatch size %d averaged %.3f allocs/record, budget %.1f", size, perRec, writePathAllocBudget)
		}
	}

	// A 256-record chunk over 256 streams (the nowal/streams256/size256
	// subject): once the streams exist, resolving, grouping and lock
	// ordering run in pooled scratch, so a batch allocates nothing at all.
	// Bounded histories reach their allocation-free steady state in the
	// warm-up, and every stream publishes just before the measurement, so
	// none reaches publishBacklog inside it. The race detector makes
	// sync.Pool drop Puts at random, so the pooled scratch is re-grown
	// there and the check runs only in a normal build.
	if raceEnabled {
		return
	}
	svc := NewService(true, WithSeed(3), WithMaxHistory(100))
	recs := siteRecords(256, 64, 1)
	r := 0
	batch := func() {
		at := r % 64 * 256
		if _, err := svc.ObserveBatch(recs[at : at+256]); err != nil {
			t.Fatal(err)
		}
		r++
	}
	for r < 256 {
		batch()
	}
	for _, st := range streamsOf(svc) {
		st.loadSnap()
	}
	// AllocsPerRun adds one warm-up call: publishBacklog-1 batches in all.
	if avg := testing.AllocsPerRun(publishBacklog-2, batch); avg != 0 {
		t.Fatalf("a 256-stream, 256-record batch averaged %.2f allocs, want 0", avg)
	}
}

// TestApplyReplicatedDuplicateBatchAllocs pins the follower's re-send
// path (the BenchmarkApplyReplicated/duplicate subject): a shipped batch
// the follower already holds decodes and applies without allocating —
// its keys are interned, its streams resolve through the index, and the
// grouping scratch is the service's.
func TestApplyReplicatedDuplicateBatchAllocs(t *testing.T) {
	frames, prev := shipBatches(t, siteKeys(1000), 2)
	svc := NewService(true, WithSeed(1))
	svc.SetFollower(true)
	var dec wal.FrameDecoder
	for j := range frames {
		applyShipped(t, svc, &dec, frames[j], prev[j])
	}
	j := 0
	avg := testing.AllocsPerRun(2*len(frames), func() {
		applyShipped(t, svc, &dec, frames[j%len(frames)], prev[j%len(frames)])
		j++
	})
	if avg != 0 {
		t.Fatalf("a duplicate batch decoded and applied with %.2f allocs, want 0", avg)
	}
}
