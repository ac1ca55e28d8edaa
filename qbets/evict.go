package qbets

import (
	"fmt"
	"slices"
	"time"
)

// Stream lifecycle for the million-stream regime (ROADMAP: "millions of
// users"). A hydrated stream carries a full Forecaster — history buffer,
// calibration state, scratch — which is what makes ingest and refits fast
// but costs kilobytes per stream. Most streams in a large registry are
// idle most of the time, so idle streams are *evicted*: the forecaster is
// serialized into a compact cold blob and dropped, while the stream keeps
// serving reads forever from its published forecast snapshot (bound,
// counters, a profile cached by its first reader — all immutable, all
// lock-free). The first write to a cold stream rehydrates it from the
// blob, observes, and carries on; recovery, state saves and reads handle
// cold streams without ever inflating them.
//
// The activity clock is deliberately coarse: eviction passes advance it,
// writes stamp it with one atomic load + compare. TTLs are minutes to
// hours, so per-write time syscalls would be pure overhead.

// decodeColdLocked decodes an evicted stream's cold blob into a settled
// forecaster without installing it. Caller holds the stream's write lock.
// A blob that does not decode, or decodes to a forecaster other than the
// one the published snapshot describes (a cold-adopted core whose summary
// fields disagree with its state), is corrupt.
func (st *stream) decodeColdLocked() (*Forecaster, error) {
	fc := New()
	if err := fc.UnmarshalBinary(st.cold); err != nil {
		return nil, fmt.Errorf("qbets: %w: rehydrate stream %q: %v", ErrCorruptState, st.key, err)
	}
	bound, ok := fc.Forecast() // settle before any read path can see it
	if snap := st.snap.Load(); bound != snap.boundSeconds || ok != snap.boundOK ||
		fc.Observations() != snap.observations || fc.MinObservations() != snap.minObservations ||
		fc.ChangePoints() != snap.trims {
		return nil, fmt.Errorf("qbets: %w: rehydrate stream %q: state disagrees with its summary", ErrCorruptState, st.key)
	}
	return fc, nil
}

// rehydrateLocked restores an evicted stream's forecaster from its cold
// blob. Caller holds the stream's write lock; on return the stream is
// fully hydrated and settled, ready for applyRunLocked. A corrupt blob
// (decodeColdLocked) leaves the stream cold, serving the snapshot it has.
func (st *stream) rehydrateLocked(s *Service) error {
	fc, err := st.decodeColdLocked()
	if err != nil {
		return err
	}
	st.fc = fc
	st.cold = nil
	st.trimsSeen = fc.ChangePoints()
	st.evicted.Store(false)
	s.nCold.Add(-1)
	s.rehydrations.Inc()
	return nil
}

// evictLocked serializes the stream's forecaster into the cold blob and
// drops it. Caller holds the stream's write lock and fc must be non-nil.
// Pending state is published first, so every read API keeps answering —
// exactly, not stalely — for as long as the stream stays cold; a quantile
// profile no reader has asked for is left to its first reader
// (fillProfileLocked), and reads alone never rehydrate.
func (st *stream) evictLocked(s *Service) error {
	if st.dirty.Load() {
		st.publishLocked()
	}
	blob, err := st.fc.MarshalBinary()
	if err != nil {
		return fmt.Errorf("qbets: evict stream %q: %w", st.key, err)
	}
	st.cold = blob
	st.fc = nil
	st.evicted.Store(true)
	s.nCold.Add(1)
	s.evictions.Inc()
	return nil
}

// evictCandidate is one stream an eviction pass considered, with the
// activity stamp it was scanned at (re-checked under the stream lock so a
// write that lands mid-pass vetoes the eviction).
type evictCandidate struct {
	st    *stream
	touch int64
}

// EvictIdle evicts every hydrated stream whose last write is older than
// ttl on the service's activity clock, returning how many were evicted.
// The clock's resolution is the eviction cadence: a stream written since
// the previous pass always survives, whatever ttl. Safe to run
// concurrently with traffic — a stream that takes a write between scan
// and eviction is skipped.
func (s *Service) EvictIdle(ttl time.Duration) int {
	now := time.Now().UnixNano()
	s.clock.Store(now)
	cutoff := now - ttl.Nanoseconds()
	var cands []evictCandidate
	s.index.Load().forEach(func(_ string, st *stream) {
		if t := st.lastTouch.Load(); !st.evicted.Load() && t < cutoff {
			cands = append(cands, evictCandidate{st, t})
		}
	})
	return s.evictScanned(cands, cutoff)
}

// EvictToCap evicts the longest-idle hydrated streams until at most max
// remain hydrated, returning how many were evicted. Cold streams keep
// serving reads, so the cap bounds forecaster heap, not registry size.
func (s *Service) EvictToCap(max int) int {
	excess := int(s.nStreams.Load()-s.nCold.Load()) - max
	if excess <= 0 {
		return 0
	}
	now := time.Now().UnixNano()
	s.clock.Store(now)
	var cands []evictCandidate
	s.index.Load().forEach(func(_ string, st *stream) {
		if !st.evicted.Load() {
			cands = append(cands, evictCandidate{st, st.lastTouch.Load()})
		}
	})
	slices.SortFunc(cands, func(a, b evictCandidate) int {
		if a.touch != b.touch {
			if a.touch < b.touch {
				return -1
			}
			return 1
		}
		return 0
	})
	if len(cands) > excess {
		cands = cands[:excess]
	}
	// cutoff = now: only a write stamped during this very pass (with the
	// just-advanced clock) vetoes its stream's eviction.
	return s.evictScanned(cands, now)
}

// evictScanned evicts the scanned candidates, re-validating each under its
// stream lock: still hydrated, and not written since the scan.
func (s *Service) evictScanned(cands []evictCandidate, cutoff int64) int {
	evicted := 0
	for _, c := range cands {
		c.st.mu.Lock()
		if c.st.fc != nil && c.st.lastTouch.Load() == c.touch && c.touch < cutoff {
			if err := c.st.evictLocked(s); err == nil {
				evicted++
			}
		}
		c.st.mu.Unlock()
	}
	return evicted
}
