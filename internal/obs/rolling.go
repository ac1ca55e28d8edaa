package obs

import "sync"

// RollingRate tracks the hit rate of a boolean outcome stream over a
// sliding window of the most recent outcomes, plus lifetime totals. It is
// the online form of the paper's correctness metric (Tables 3–7): each
// resolved prediction — a job whose quoted bound can now be compared with
// its actual wait — records one outcome, and the windowed rate is compared
// against the target confidence to tell whether the bounds are holding
// *now*, not just on average since startup.
type RollingRate struct {
	mu   sync.Mutex
	size int
	// window holds the last size outcomes as a bitset (bit idx is the
	// oldest once the window is full): 8 words for the serving plane's
	// 500-outcome window. Allocated on first Record: most streams never
	// resolve.
	window []uint64
	idx    int
	filled int
	hits   int

	lifetimeN    uint64
	lifetimeHits uint64
}

// NewRollingRate returns a tracker over a window of the last n outcomes.
// n < 1 is treated as 1. The window itself is allocated lazily on the
// first Record — a registry of mostly-idle streams pays nothing for
// trackers that never resolve a prediction.
func NewRollingRate(n int) *RollingRate {
	if n < 1 {
		n = 1
	}
	return &RollingRate{size: n}
}

// Record adds one outcome.
func (r *RollingRate) Record(hit bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.window == nil {
		r.window = make([]uint64, (r.size+63)/64)
	}
	w, bit := &r.window[r.idx/64], uint64(1)<<(r.idx%64)
	if r.filled == r.size {
		if *w&bit != 0 {
			r.hits--
		}
	} else {
		r.filled++
	}
	if hit {
		*w |= bit
		r.hits++
	} else {
		*w &^= bit
	}
	if r.idx++; r.idx == r.size {
		r.idx = 0
	}
	r.lifetimeN++
	if hit {
		r.lifetimeHits++
	}
}

// Rate returns the hit rate over the current window and the number of
// outcomes in it. With no outcomes yet, or on a nil tracker, it returns
// (0, 0).
func (r *RollingRate) Rate() (rate float64, n int) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.filled == 0 {
		return 0, 0
	}
	return float64(r.hits) / float64(r.filled), r.filled
}

// Lifetime returns the total hits and outcomes since creation; a nil
// tracker reads as an empty one.
func (r *RollingRate) Lifetime() (hits, total uint64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lifetimeHits, r.lifetimeN
}
