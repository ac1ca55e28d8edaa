package core

import (
	"fmt"
	"slices"

	"repro/internal/ostat"
	"repro/internal/stats"
)

// Config parameterizes a BMBP predictor. The zero value means: 0.95
// quantile, 95% confidence, automatic exact/approximate index selection,
// change-point trimming enabled with the default rare-event table, and
// unbounded history.
type Config struct {
	// Quantile is the population quantile q to bound (default 0.95).
	Quantile float64
	// Confidence is the confidence level C of the bound (default 0.95).
	Confidence float64
	// Mode selects exact vs normal-approximate index computation.
	Mode BoundMode
	// NoTrim disables nonstationarity detection and history trimming
	// (used for ablation; the paper's BMBP always trims).
	NoTrim bool
	// RareTable overrides the autocorrelation → rare-event-run-length
	// table; nil uses DefaultRareEventTable.
	RareTable RareEventTable
	// FixedRareThreshold, when positive, bypasses the autocorrelation
	// lookup and uses a constant consecutive-miss threshold (ablation).
	FixedRareThreshold int
	// MaxHistory, when positive, caps the history length by discarding the
	// oldest observation once the cap is exceeded. The paper does not cap;
	// this exists for memory-constrained deployments.
	MaxHistory int
	// Seed seeds the internal order-statistic structure's balancing
	// randomness. Any fixed value gives reproducible structure.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Quantile == 0 {
		c.Quantile = 0.95
	}
	if c.Confidence == 0 {
		c.Confidence = 0.95
	}
	if c.RareTable == nil {
		c.RareTable = DefaultRareEventTable
	}
	return c
}

// BMBP is the Brevik Method Batch Predictor for a single queue (or
// queue × processor-count category). It consumes wait-time observations in
// the order they become visible and produces, on demand, an upper confidence
// bound on the configured quantile of the next job's wait.
//
// BMBP is not safe for concurrent use; wrap it in a mutex if shared.
type BMBP struct {
	cfg        Config
	minHistory int
	idx        *IncrementalIndex

	// hist[histStart:] is the live history in observation order (oldest
	// first). With MaxHistory set, evictions advance histStart instead of
	// re-slicing — the dead prefix is compacted in place once it reaches
	// the window length, so the backing array stops growing at roughly
	// twice the window.
	hist      []float64
	histStart int
	set       ostat.Multiset // same multiset of values, ordered by value

	rareThreshold int // 0 until calibrated
	consecMisses  int

	bound   float64
	boundOK bool
	stale   bool

	trims        int
	observations int
}

// New returns a BMBP predictor with the given configuration.
func New(cfg Config) *BMBP {
	cfg = cfg.withDefaults()
	idx := sharedIndex(cfg.Quantile, cfg.Confidence, cfg.Mode)
	return &BMBP{
		cfg:        cfg,
		minHistory: idx.MinHistory(),
		idx:        idx,
		stale:      true,
	}
}

// window returns the live history slice.
func (b *BMBP) window() []float64 { return b.hist[b.histStart:] }

// Name identifies the predictor in evaluation output.
func (b *BMBP) Name() string { return "bmbp" }

// Config returns the (defaulted) configuration the predictor runs with.
func (b *BMBP) Config() Config { return b.cfg }

// MinHistory returns the minimum history length from which the configured
// bound can be produced (59 for the paper's q = C = 0.95).
func (b *BMBP) MinHistory() int { return b.minHistory }

// HistoryLen returns the current history length.
func (b *BMBP) HistoryLen() int { return len(b.hist) - b.histStart }

// Trims returns how many change points the predictor has acted on.
func (b *BMBP) Trims() int { return b.trims }

// RareThreshold returns the consecutive-miss count currently treated as a
// change point, or 0 if not yet calibrated.
func (b *BMBP) RareThreshold() int { return b.rareThreshold }

// Observe records a completed wait observation. missed reports whether the
// bound quoted to this job when it was submitted turned out to be below its
// actual wait; pass false when no bound was quoted. Observations must arrive
// in the order waits become visible (job release order), which is what makes
// consecutive-miss runs meaningful.
func (b *BMBP) Observe(wait float64, missed bool) {
	b.observations++
	b.hist = append(b.hist, wait)
	b.set.Insert(wait)
	b.stale = true
	if b.cfg.MaxHistory > 0 && len(b.hist)-b.histStart > b.cfg.MaxHistory {
		b.set.Delete(b.hist[b.histStart])
		b.histStart++
		if b.histStart >= b.cfg.MaxHistory {
			// Dead prefix caught up with the live window: slide the window
			// to the front. Sizing the array at twice the window makes the
			// steady state allocation-free — appends consume the second
			// half while the first half goes dead, then compaction resets.
			live := b.hist[b.histStart:]
			if cap(b.hist) < 2*b.cfg.MaxHistory {
				b.hist = append(make([]float64, 0, 2*b.cfg.MaxHistory), live...)
			} else {
				b.hist = b.hist[:copy(b.hist, live)]
			}
			b.histStart = 0
		}
	}
	if b.cfg.NoTrim {
		return
	}
	if missed {
		b.consecMisses++
	} else {
		b.consecMisses = 0
	}
	if b.rareThreshold == 0 && len(b.hist)-b.histStart >= b.minHistory {
		// Standalone use without an explicit training phase: calibrate as
		// soon as a meaningful history exists.
		b.calibrate()
	}
	if b.rareThreshold > 0 && b.consecMisses >= b.rareThreshold {
		b.trim()
	}
}

// ObserveAuto is Observe for callers that do not track per-job quoted
// bounds: the observation is scored against the predictor's current bound.
func (b *BMBP) ObserveAuto(wait float64) {
	bound, ok := b.Bound()
	b.Observe(wait, ok && wait > bound)
}

// FinishTraining calibrates the rare-event threshold from the lag-1
// autocorrelation of the history accumulated so far, mirroring the paper's
// use of the training period. Calling it again recalibrates.
func (b *BMBP) FinishTraining() {
	b.calibrate()
}

func (b *BMBP) calibrate() {
	if b.cfg.FixedRareThreshold > 0 {
		b.rareThreshold = b.cfg.FixedRareThreshold
		return
	}
	acf := stats.Autocorrelation(b.window(), 1)
	b.rareThreshold = b.cfg.RareTable.Lookup(acf)
}

// trim implements the paper's change-point response: keep only the most
// recent MinHistory observations — the longest history that is clearly
// relevant — and reset the miss run.
func (b *BMBP) trim() {
	w := b.window()
	if len(w) <= b.minHistory {
		b.consecMisses = 0
		return
	}
	keep := w[len(w)-b.minHistory:]
	rebuildSet(&b.set, keep)
	// Copy to release the large backing array.
	b.hist = append(make([]float64, 0, b.minHistory*2), keep...)
	b.histStart = 0
	b.consecMisses = 0
	b.trims++
	b.stale = true
}

// rebuildSet replaces set's contents with vals by an O(n) bulk build from
// a sorted copy instead of n individual inserts. The copy is not kept: up
// to 256 values (the paper's q = C = 0.95 keeps 59 at a trim) it lives on
// the stack, so neither a trim nor a rehydration allocates for it.
func rebuildSet(set *ostat.Multiset, vals []float64) {
	var buf [256]float64
	sorted := append(buf[:0], vals...)
	slices.Sort(sorted)
	set.BuildFromSorted(sorted)
}

// Refit recomputes the current bound from the history. The evaluation
// simulator calls this on its epoch ticks (every 300 s in the paper); it is
// also called lazily by Bound when the history changed since the last refit.
func (b *BMBP) Refit() {
	n := len(b.hist) - b.histStart
	k, ok := b.idx.Index(n)
	if !ok {
		b.boundOK = false
		b.stale = false
		return
	}
	v, ok := b.set.Select(k)
	if !ok {
		// Select can only fail if k > n, which UpperBoundIndex prevents.
		panic(fmt.Sprintf("core: order statistic %d of %d unavailable", k, n))
	}
	b.bound = v
	b.boundOK = true
	b.stale = false
}

// Bound returns the current upper confidence bound on the configured
// quantile. ok is false while the history is shorter than MinHistory.
func (b *BMBP) Bound() (float64, bool) {
	if b.stale {
		b.Refit()
	}
	return b.bound, b.boundOK
}

// BoundFor computes a one-off bound at a different quantile/confidence from
// the same history, without disturbing the predictor's own state. side
// selects an upper or lower bound. ok is false when the history is too
// short for that (q, c) pair.
func (b *BMBP) BoundFor(q, c float64, side Side) (float64, bool) {
	n := len(b.hist) - b.histStart
	var k int
	var ok bool
	if side == Lower {
		k, ok = LowerBoundIndex(n, q, c, b.cfg.Mode)
	} else {
		k, ok = UpperBoundIndex(n, q, c, b.cfg.Mode)
	}
	if !ok {
		return 0, false
	}
	return b.set.Select(k)
}

// History returns a copy of the current history in observation order.
func (b *BMBP) History() []float64 {
	w := b.window()
	out := make([]float64, len(w))
	copy(out, w)
	return out
}

// Side selects which side of a confidence bound is requested.
type Side int

const (
	// Upper requests an upper confidence bound on the quantile.
	Upper Side = iota
	// Lower requests a lower confidence bound on the quantile.
	Lower
)

func (s Side) String() string {
	if s == Lower {
		return "lower"
	}
	return "upper"
}
