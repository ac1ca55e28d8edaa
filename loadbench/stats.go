package main

import (
	"math"
	"sort"
	"sync"

	"repro/internal/stats"
)

// minBeyond is how many samples must lie above a percentile before it
// is reported: a p99 needs at least 1000 samples.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of xs (sorting xs in
// place) and whether at least minBeyond samples lie above it.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i], len(xs)-1-i >= minBeyond
}

// quote identifies one served bound: the node that served it, the
// stream, and how many of the stream's records had been sent when it
// was requested. Its outcome is the stream's record at that position.
type quote struct {
	node, stream, pos int
}

// coverage scores served bounds against the wait the stream's next job
// sees. Each distinct quote counts once, the first bound served for it,
// so a hot stream read a thousand times before its next job arrives is
// one trial, not a thousand correlated ones.
type coverage struct {
	mu   sync.Mutex
	seen map[quote]bool
	hits int
}

func newCoverage() *coverage { return &coverage{seen: make(map[quote]bool)} }

// score records an ok:true bound for q whose outcome is next.
func (c *coverage) score(q quote, bound, next float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.seen[q]; dup {
		return
	}
	hit := next <= bound
	c.seen[q] = hit
	if hit {
		c.hits++
	}
}

// result returns the trials scored and the share that held.
func (c *coverage) result() (trials int, ratio float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.seen) == 0 {
		return 0, 0
	}
	return len(c.seen), float64(c.hits) / float64(len(c.seen))
}

// coverageFloor is the lowest coverage of n trials consistent with a
// true rate of q: q minus the normal approximation to the binomial
// lower tail at one-sided level 0.001.
func coverageFloor(q float64, n int) float64 {
	if n == 0 {
		return q
	}
	z := stats.StdNormalQuantile(0.999)
	return q - z*math.Sqrt(q*(1-q)/float64(n))
}

// median returns the median of xs (sorting xs in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
