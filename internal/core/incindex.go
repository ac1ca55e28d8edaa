package core

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// This file holds the O(1) refit machinery: memoized per-(q, C) constants
// and a shared, incrementally built table of the upper bound-index k(n).
//
// The incremental invariant. Let F_n be the CDF of Bin(n, q) and
// k(n) = min{k : F_n(k−1) >= C} the exact upper bound index. Conditioning
// on the (n+1)-th trial gives the recurrence
//
//	F_{n+1}(k) = q·F_n(k−1) + (1−q)·F_n(k).
//
// The right side is a convex combination of values that bracket F_n(k),
// so F_n(k−1) <= F_{n+1}(k) <= F_n(k). Taking k = k(n)−2 gives
// F_{n+1}(k(n)−2) <= F_n(k(n)−2) < C (minimality of k(n)), so k(n+1) >=
// k(n); taking k = k(n) gives F_{n+1}(k(n)) >= F_n(k(n)−1) >= C, so
// k(n+1) <= k(n)+1. Therefore
//
//	k(n+1) − k(n) ∈ {0, 1},
//
// and a single CDF evaluation — F_{n+1}(k(n)−1) >= C ? — decides which.

// pairKey keys the per-(q, C) memo tables.
type pairKey struct{ q, c float64 }

var (
	minSampleMemo      sync.Map // pairKey -> int
	minSampleLowerMemo sync.Map // pairKey -> int
	zQuantileMemo      sync.Map // float64 -> float64
)

// minSampleSizeCached memoizes MinSampleSize per (q, c). The computation
// runs a Pow-loop verification, which is far too heavy to repeat on every
// bound-index query.
func minSampleSizeCached(q, c float64) int {
	key := pairKey{q, c}
	if v, ok := minSampleMemo.Load(key); ok {
		return v.(int)
	}
	n := MinSampleSize(q, c)
	minSampleMemo.Store(key, n)
	return n
}

// minSampleSizeLowerCached memoizes MinSampleSizeLower per (q, c).
func minSampleSizeLowerCached(q, c float64) int {
	key := pairKey{q, c}
	if v, ok := minSampleLowerMemo.Load(key); ok {
		return v.(int)
	}
	n := MinSampleSizeLower(q, c)
	minSampleLowerMemo.Store(key, n)
	return n
}

// stdNormalQuantileCached memoizes stats.StdNormalQuantile per confidence
// level. Predictors query the same handful of levels millions of times.
func stdNormalQuantileCached(c float64) float64 {
	if v, ok := zQuantileMemo.Load(c); ok {
		return v.(float64)
	}
	z := stats.StdNormalQuantile(c)
	zQuantileMemo.Store(c, z)
	return z
}

// IncrementalIndex answers the upper bound-index k(n) for one (q, C,
// mode). It holds no per-predictor state: every predictor with the same
// (q, C, mode) shares one index (see sharedIndex), and every index with
// the same (q, C) reads one process-wide table of exact indices, built by
// the +1 recurrence above — one binomial-CDF evaluation per table entry,
// paid once per process instead of once per predictor per observation.
// In the normal-approximation region the index is a closed form with a
// memoized normal quantile and the table is not consulted.
//
// Index(n) returns exactly what UpperBoundIndex(n, q, c, mode) returns for
// every n — the differential tests in incindex_test.go assert this for all
// n up to 200k across a (q, C) grid, and under concurrent extension.
//
// An IncrementalIndex is immutable and safe for concurrent use.
type IncrementalIndex struct {
	q, c float64
	mode BoundMode
	minN int
	z    float64
	tab  *boundTable
}

// indexKey keys the shared indexes.
type indexKey struct {
	q, c float64
	mode BoundMode
}

var (
	// sharedIndexes maps (q, C, mode) to its index. It is copied on write
	// under sharedMu, so a lookup is one atomic load and one map read,
	// with no allocation.
	sharedIndexes atomic.Pointer[map[indexKey]*IncrementalIndex]
	sharedMu      sync.Mutex
)

// sharedIndex returns the process-wide index for the given quantile,
// confidence and bound mode, creating it on first use. Indexes of one
// (q, C) share one table.
func sharedIndex(q, c float64, mode BoundMode) *IncrementalIndex {
	key := indexKey{q, c, mode}
	if m := sharedIndexes.Load(); m != nil {
		if x, ok := (*m)[key]; ok {
			return x
		}
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	m := make(map[indexKey]*IncrementalIndex)
	var tab *boundTable
	if old := sharedIndexes.Load(); old != nil {
		if x, ok := (*old)[key]; ok {
			return x
		}
		for k, x := range *old {
			m[k] = x
			if k.q == q && k.c == c {
				tab = x.tab
			}
		}
	}
	if tab == nil {
		tab = newBoundTable(q, c)
	}
	m[key] = newIndex(tab, mode)
	sharedIndexes.Store(&m)
	return m[key]
}

// newIndex returns an index for mode that reads tab.
func newIndex(tab *boundTable, mode BoundMode) *IncrementalIndex {
	return &IncrementalIndex{
		q:    tab.q,
		c:    tab.c,
		mode: mode,
		minN: tab.minN,
		z:    stdNormalQuantileCached(tab.c),
		tab:  tab,
	}
}

// MinHistory returns the smallest n for which Index reports ok.
func (x *IncrementalIndex) MinHistory() int { return x.minN }

// Index returns the 1-based upper bound-index for a history of length n,
// equal to UpperBoundIndex(n, x.q, x.c, x.mode). ok is false when n is
// below the minimum sample size.
func (x *IncrementalIndex) Index(n int) (k int, ok bool) {
	if n < x.minN {
		return 0, false
	}
	if x.mode == ModeApprox || (x.mode != ModeExact && normalApproxOK(n, x.q)) {
		k = int(math.Ceil(float64(n)*x.q + x.z*math.Sqrt(float64(n)*x.q*(1-x.q))))
		if k < 1 {
			k = 1
		}
		if k <= n {
			return k, true
		}
		// Same fallback as UpperBoundIndex: the approximation can
		// overshoot the sample only near the minimum history.
	}
	return x.tab.at(n, x.mode == ModeExact), true
}

// normalApproxOK is stats.Binomial{N: n, P: q}.NormalApproxOK(): the
// switch point from the exact index to the closed form under ModeAuto.
// Both factors grow with n, so it holds from one n onwards.
func normalApproxOK(n int, q float64) bool {
	nf := float64(n)
	return nf*q >= 10 && nf*(1-q) >= 10
}

// maxExactJump bounds how far past the table's end a ModeExact query may
// extend it; a longer jump (a predictor restored with a long history)
// computes its index directly instead.
const maxExactJump = 4096

// extendChunk is the fewest entries one extension appends, so a history
// growing one observation at a time publishes a new table every 64 steps.
const extendChunk = 64

// boundTable holds the exact upper bound-indices of one (q, C):
// ks[i] = upperIndexExact(minN+i, q, c). Readers load the published slice
// with one atomic load; extensions run under mu, append past the
// published length (which no reader indexes) and publish the longer
// slice, so a reader never sees a partly written entry.
type boundTable struct {
	q, c float64
	minN int
	ks   atomic.Pointer[[]int32]
	mu   sync.Mutex
}

func newBoundTable(q, c float64) *boundTable {
	t := &boundTable{q: q, c: c, minN: minSampleSizeCached(q, c)}
	t.ks.Store(new([]int32))
	return t
}

// at returns upperIndexExact(n, t.q, t.c) for n >= t.minN, from the table
// when it holds n. Otherwise it extends the table through n, unless n is
// past the switch point to the closed form (ModeAuto and ModeApprox reach
// the table there only when the approximation overshoots n) or, for
// exact, also more than maxExactJump past the table's end; those compute
// the index directly, so the table stays the size of the exact region
// and of the histories ModeExact predictors grew to.
func (t *boundTable) at(n int, exact bool) int {
	ks := *t.ks.Load()
	if n-t.minN < len(ks) {
		return int(ks[n-t.minN])
	}
	if normalApproxOK(n, t.q) && !(exact && n < t.minN+len(ks)+maxExactJump) {
		return upperIndexExact(n, t.q, t.c)
	}
	return t.extend(n, exact)
}

// extend grows the table through n and returns k(n). It is apart from at
// so the slice it publishes escapes here, not on at's lookup path.
func (t *boundTable) extend(n int, exact bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	ks := *t.ks.Load()
	if n-t.minN < len(ks) {
		return int(ks[n-t.minN]) // another caller extended it first
	}
	var k int
	if len(ks) == 0 {
		k = upperIndexExact(t.minN, t.q, t.c)
		ks = append(ks, int32(k))
	} else {
		k = int(ks[len(ks)-1])
	}
	// Extend through n, then a chunk further (for ModeAuto and ModeApprox
	// only while below the switch point), so a history growing one
	// observation at a time publishes once per chunk, not once per step.
	for m := t.minN + len(ks); m <= n || (m < n+extendChunk && (exact || !normalApproxOK(m, t.q))); m++ {
		// k(m) ∈ {k(m−1), k(m−1)+1}; one evaluation decides.
		if (stats.Binomial{N: m, P: t.q}).CDF(k-1) < t.c {
			k++
		}
		ks = append(ks, int32(k))
	}
	t.ks.Store(&ks)
	return int(ks[n-t.minN])
}
