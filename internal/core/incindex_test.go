package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// freshIndex returns an index over a private, empty table, so a test
// drives the table's extension itself whatever earlier tests left in the
// process-wide one.
func freshIndex(q, c float64, mode BoundMode) *IncrementalIndex {
	return newIndex(newBoundTable(q, c), mode)
}

// tableEnd returns the first n tab does not hold.
func tableEnd(tab *boundTable) int { return tab.minN + len(*tab.ks.Load()) }

// TestIncrementalIndexDifferential grows an index's table one observation
// at a time and asserts it returns exactly what the from-scratch
// computation returns for every n up to 200k, across a grid of (q, C) and
// both bound modes BMBP uses. This is the proof that the O(1) stepping rule
// (k grows by 0 or 1 per observation, decided by one CDF evaluation) agrees
// with upperIndexExact/UpperBoundIndex not just mathematically but on the
// concrete floating-point CDF both paths share.
func TestIncrementalIndexDifferential(t *testing.T) {
	const maxN = 200_000
	grid := []struct{ q, c float64 }{
		{0.95, 0.95}, // the paper's headline setting
		{0.50, 0.95}, // median
		{0.90, 0.99},
		{0.99, 0.90},
	}
	for _, g := range grid {
		g := g
		t.Run("", func(t *testing.T) {
			t.Parallel()
			exact := freshIndex(g.q, g.c, ModeExact)
			auto := freshIndex(g.q, g.c, ModeAuto)
			minN := MinSampleSize(g.q, g.c)
			// In the normal-approximation region ModeAuto is a closed form
			// on both sides, so spot-checking it sparsely is enough; the
			// exact path is verified at every single n.
			autoStride := 1
			for n := 1; n <= maxN; n++ {
				ki, oki := exact.Index(n)
				if n < minN {
					if oki {
						t.Fatalf("q=%g c=%g n=%d: ok below MinSampleSize", g.q, g.c, n)
					}
					continue
				}
				if !oki {
					t.Fatalf("q=%g c=%g n=%d: not ok at/above MinSampleSize %d", g.q, g.c, n, minN)
				}
				if want := upperIndexExact(n, g.q, g.c); ki != want {
					t.Fatalf("q=%g c=%g n=%d: incremental exact k=%d, upperIndexExact=%d", g.q, g.c, n, ki, want)
				}
				if n%autoStride == 0 {
					ka, oka := auto.Index(n)
					kw, okw := UpperBoundIndex(n, g.q, g.c, ModeAuto)
					if ka != kw || oka != okw {
						t.Fatalf("q=%g c=%g n=%d: auto k=%d ok=%v, UpperBoundIndex k=%d ok=%v", g.q, g.c, n, ka, oka, kw, okw)
					}
				}
				if n == 4096 {
					autoStride = 17 // prime stride keeps coverage spread out
				}
			}
		})
	}
}

// TestIncrementalIndexRandomWalk exercises the non-sequential paths: trims
// (n drops), windows (n constant), and jumps, interleaved with +1 steps.
// Each mode starts from an empty table, so jumps land past its end and
// exercise both extension and the direct fallback.
func TestIncrementalIndexRandomWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, mode := range []BoundMode{ModeExact, ModeAuto, ModeApprox} {
		x := freshIndex(0.95, 0.95, mode)
		n := 0
		for step := 0; step < 4000; step++ {
			switch rng.Intn(10) {
			case 0:
				n = MinSampleSize(0.95, 0.95) // trim
			case 1:
				n = rng.Intn(5000) // arbitrary jump
			case 2:
				// window steady state: n unchanged
			default:
				n++
			}
			k, ok := x.Index(n)
			kw, okw := UpperBoundIndex(n, 0.95, 0.95, mode)
			if k != kw || ok != okw {
				t.Fatalf("mode=%v n=%d: incremental k=%d ok=%v, want k=%d ok=%v", mode, n, k, ok, kw, okw)
			}
		}
	}
}

// TestSharedIndexConcurrent has many goroutines build predictors for a
// (q, C) pair no other test uses and query their index on rising and
// jumping n while the shared table extends under them. Every answer must
// equal UpperBoundIndex, and every predictor of one (q, C, mode) — built
// by New or decoded by UnmarshalBinary — must hold the same index.
func TestSharedIndexConcurrent(t *testing.T) {
	const q, c = 0.93, 0.97
	modes := []BoundMode{ModeAuto, ModeExact, ModeApprox}
	want := func(mode BoundMode) *IncrementalIndex { return sharedIndex(q, c, mode) }
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			mode := modes[g%len(modes)]
			b := New(Config{Quantile: q, Confidence: c, Mode: mode})
			if g%2 == 1 {
				// Half the predictors come from the codec instead.
				blob, err := b.MarshalBinary()
				if err == nil {
					b = new(BMBP)
					err = b.UnmarshalBinary(blob)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			if b.idx != want(mode) {
				errs <- fmt.Errorf("mode %v: predictor holds its own index", mode)
				return
			}
			n := b.idx.MinHistory() - 1
			for step := 0; step < 4000; step++ {
				switch rng.Intn(20) {
				case 0:
					n = rng.Intn(6000) // jump, possibly far past the table's end
				case 1:
					n = b.idx.MinHistory() // trim
				default:
					n++
				}
				k, ok := b.idx.Index(n)
				kw, okw := UpperBoundIndex(n, q, c, mode)
				if k != kw || ok != okw {
					errs <- fmt.Errorf("mode %v n=%d: shared index k=%d ok=%v, want k=%d ok=%v", mode, n, k, ok, kw, okw)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSharedIndexAutoStopsAtSwitchPoint pins the table's size under
// ModeAuto and ModeApprox: they extend it only below the switch point to
// the closed form, however far past it they query.
func TestSharedIndexAutoStopsAtSwitchPoint(t *testing.T) {
	for _, mode := range []BoundMode{ModeAuto, ModeApprox} {
		x := freshIndex(0.95, 0.95, mode)
		for n := 0; n <= 50_000; n++ {
			x.Index(n)
		}
		// ModeAuto reaches the table for every n below the switch point;
		// ModeApprox only where the closed form overshoots n.
		if end := tableEnd(x.tab); end > 200 || (mode == ModeAuto && end != 200) {
			t.Fatalf("mode %v: table ends at n=%d, switch point 200", mode, end)
		}
	}
}

// TestIndexLookupAllocs pins the table lookup at zero allocations: the
// exact region is where every restarting stream's refits land.
func TestIndexLookupAllocs(t *testing.T) {
	for _, mode := range []BoundMode{ModeAuto, ModeExact} {
		x := freshIndex(0.95, 0.95, mode)
		n := x.MinHistory()
		allocs := testing.AllocsPerRun(1000, func() {
			if n++; n == 200 {
				n = x.MinHistory()
			}
			x.Index(n)
		})
		if allocs != 0 {
			t.Fatalf("mode %v: Index allocates %g times per call, want 0", mode, allocs)
		}
	}
}

// TestSteadyStateObserveRefitBoundAllocs asserts the full per-job hot path
// (Observe + Refit + Bound) allocates nothing once a MaxHistory window is in
// steady state: the history buffer compacts in place, the order-statistic
// arena recycles nodes through its free lists, and the bound index is a
// closed form with memoized constants.
func TestSteadyStateObserveRefitBoundAllocs(t *testing.T) {
	b := New(Config{Seed: 1, MaxHistory: 20000, NoTrim: true})
	rng := rand.New(rand.NewSource(7))
	next := func() float64 { return math.Exp(rng.NormFloat64()*2 + 5) }
	// Warm well past several window turnovers so the arena and the
	// compaction cycle reach their fixed points.
	for i := 0; i < 8*20000; i++ {
		b.Observe(next(), false)
		b.Refit()
		b.Bound()
	}
	allocs := testing.AllocsPerRun(5000, func() {
		b.Observe(next(), false)
		b.Refit()
		if _, ok := b.Bound(); !ok {
			t.Fatal("bound unavailable in steady state")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Observe+Refit+Bound allocates %g allocs/op, want 0", allocs)
	}
}

// TestHistoryWindowCompaction pins the MaxHistory backing-array fix: the
// live window must stay correct across compactions and the backing array
// must stop growing at about twice the window.
func TestHistoryWindowCompaction(t *testing.T) {
	const window = 500
	b := New(Config{Seed: 1, MaxHistory: window, NoTrim: true})
	var ref []float64
	for i := 0; i < 20*window; i++ {
		v := float64(i)
		b.Observe(v, false)
		ref = append(ref, v)
		if len(ref) > window {
			ref = ref[1:]
		}
		if b.HistoryLen() != len(ref) {
			t.Fatalf("i=%d: HistoryLen %d, want %d", i, b.HistoryLen(), len(ref))
		}
	}
	got := b.History()
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("window[%d] = %g, want %g", i, got[i], ref[i])
		}
	}
	if c := cap(b.hist); c > 3*window {
		t.Fatalf("backing array cap %d after 20 window turnovers, want <= %d", c, 3*window)
	}
	// The order statistics must describe exactly the live window.
	if min, _ := b.set.Min(); min != ref[0] {
		t.Fatalf("set min %g, want %g", min, ref[0])
	}
	if b.set.Len() != window {
		t.Fatalf("set len %d, want %d", b.set.Len(), window)
	}
}

func BenchmarkIncrementalIndex(b *testing.B) {
	// Growing an empty table one n at a time, one CDF evaluation per
	// entry, versus a fresh MinSampleSize + O(log n) CDF binary search.
	b.Run("incremental", func(b *testing.B) {
		x := freshIndex(0.95, 0.95, ModeExact)
		n := x.MinHistory()
		x.Index(n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n++
			x.Index(n)
		}
	})
	b.Run("fromscratch", func(b *testing.B) {
		n := MinSampleSize(0.95, 0.95)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n++
			UpperBoundIndex(n, 0.95, 0.95, ModeExact)
		}
	})
	// ModeAuto in the exact region once the table holds it: what every
	// restarting stream below n = 200 pays per refit at q = C = 0.95.
	b.Run("exactRegion", func(b *testing.B) {
		x := sharedIndex(0.95, 0.95, ModeAuto)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x.Index(59 + i%141)
		}
	})
	// ModeAuto at production history lengths: closed form + memoized z.
	b.Run("auto100k", func(b *testing.B) {
		x := sharedIndex(0.95, 0.95, ModeAuto)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x.Index(100_000 + i%64)
		}
	})
}
