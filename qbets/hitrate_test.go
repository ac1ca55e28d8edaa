package qbets

import (
	"math"
	"math/rand"
	"testing"
)

// These tests check the self-monitoring hit-rate accounting against the
// paper's correctness criterion (Tables 3–7): on a stationary stream, the
// fraction of resolved predictions whose wait falls within the quoted
// bound must converge to at least the target quantile — here measured
// online by the Service's per-stream monitor rather than offline by the
// evaluation harness.

func TestHitRateConvergesToTargetConfidence(t *testing.T) {
	svc := NewService(false, WithSeed(42))
	rng := rand.New(rand.NewSource(42))
	const n = 6000
	for i := 0; i < n; i++ {
		// Stationary log-normal waits, the paper's canonical heavy-tailed
		// queue-delay shape.
		svc.Observe("stable", 1, 300*math.Exp(rng.NormFloat64()))
	}
	st, ok := svc.StreamStats("stable", 1)
	if !ok {
		t.Fatal("stream missing")
	}
	if st.TargetQuantile != 0.95 || st.TargetConfidence != 0.95 {
		t.Fatalf("targets = %+v", st)
	}
	if st.LifetimeResolved != uint64(n-st.MinObservations) {
		t.Fatalf("resolved = %d, want %d", st.LifetimeResolved, n-st.MinObservations)
	}
	lifetime := float64(st.LifetimeHits) / float64(st.LifetimeResolved)
	// A 0.95-quantile bound at 95% confidence is conservative: the hit
	// rate should sit at or above ~0.95, with a small tolerance for the
	// early low-history phase and binomial noise.
	if lifetime < st.TargetQuantile-0.02 {
		t.Errorf("lifetime hit rate %.4f below target %.2f", lifetime, st.TargetQuantile)
	}
	if lifetime > 1 {
		t.Errorf("lifetime hit rate %.4f impossible", lifetime)
	}
	if st.RollingResolved != hitRateWindow {
		t.Errorf("rolling window %d, want %d", st.RollingResolved, hitRateWindow)
	}
	if st.RollingHitRate < st.TargetQuantile-0.03 {
		t.Errorf("rolling hit rate %.4f below target %.2f", st.RollingHitRate, st.TargetQuantile)
	}
}

func TestHitRateTracksQuantileNotOne(t *testing.T) {
	// A median bound must produce a hit rate near the median, not
	// saturate at 1 — evidence the monitor scores the configured quantile
	// rather than "bound always held".
	svc := NewService(false, WithQuantile(0.5), WithConfidence(0.95), WithSeed(7))
	rng := rand.New(rand.NewSource(7))
	const n = 6000
	for i := 0; i < n; i++ {
		svc.Observe("median", 1, 300*math.Exp(rng.NormFloat64()))
	}
	st, ok := svc.StreamStats("median", 1)
	if !ok {
		t.Fatal("stream missing")
	}
	rate := float64(st.LifetimeHits) / float64(st.LifetimeResolved)
	// The 95%-confidence upper bound on the median sits a little above
	// the true median, so the hit rate lands above 0.5 but nowhere near
	// the 0.95 the default configuration produces.
	if rate < 0.5 || rate > 0.75 {
		t.Errorf("median-bound hit rate %.4f outside [0.5, 0.75]", rate)
	}
}

func TestHitRateRollingWindowRecovers(t *testing.T) {
	// After a regime change the rolling rate must reflect the new regime
	// once the window refills — unlike the lifetime rate, which the old
	// regime keeps diluted.
	svc := NewService(false, WithSeed(5))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		svc.Observe("shift", 1, 60*math.Exp(rng.NormFloat64()))
	}
	// Tenfold level shift; the change-point detector will trim and the
	// forecaster re-learns.
	for i := 0; i < 3000; i++ {
		svc.Observe("shift", 1, 600*math.Exp(rng.NormFloat64()))
	}
	st, ok := svc.StreamStats("shift", 1)
	if !ok {
		t.Fatal("stream missing")
	}
	if st.Trims == 0 {
		t.Error("tenfold shift produced no change-point trim")
	}
	if st.LastTrimUnix == 0 {
		t.Error("trim time not recorded")
	}
	if st.RollingHitRate < st.TargetQuantile-0.03 {
		t.Errorf("rolling hit rate %.4f has not recovered after shift (target %.2f)", st.RollingHitRate, st.TargetQuantile)
	}
}
