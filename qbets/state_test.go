package qbets

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/stats"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	f := New(WithQuantile(0.9), WithSeed(5))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		f.Observe(math.Exp(rng.NormFloat64()) * 60)
	}
	want, _ := f.Forecast()

	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := g.Forecast()
	if !ok || got != want {
		t.Fatalf("restored forecast %g/%v, want %g", got, ok, want)
	}
	if g.Observations() != f.Observations() {
		t.Error("history length differs")
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.bmbp")
	f := New(WithSeed(6))
	for i := 0; i < 100; i++ {
		f.Observe(float64(10 + i%7))
	}
	if err := f.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	g, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := f.Forecast()
	b2, _ := g.Forecast()
	if b1 != b2 {
		t.Fatalf("%g vs %g", b1, b2)
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a state blob"))); err == nil {
		t.Error("garbage accepted")
	}
}

func TestServiceSaveLoad(t *testing.T) {
	s := NewService(true, WithSeed(21))
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 500; i++ {
		s.Observe("normal", 2, math.Exp(rng.NormFloat64())*30)
		s.Observe("normal", 32, math.Exp(rng.NormFloat64())*3000)
		s.Observe("high", 4, math.Exp(rng.NormFloat64())*5)
	}
	wantSmall, _ := s.Forecast("normal", 2)
	wantLarge, _ := s.Forecast("normal", 32)

	path := filepath.Join(t.TempDir(), "svc.state")
	if err := s.SaveShards(path); err != nil {
		t.Fatal(err)
	}
	g, err := LoadServiceShards(path, true, WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Queues()) != 3 {
		t.Fatalf("streams = %v", g.Queues())
	}
	gotSmall, ok1 := g.Forecast("normal", 2)
	gotLarge, ok2 := g.Forecast("normal", 32)
	if !ok1 || !ok2 || gotSmall != wantSmall || gotLarge != wantLarge {
		t.Fatalf("restored forecasts %g/%g, want %g/%g", gotSmall, gotLarge, wantSmall, wantLarge)
	}
	// Restored service keeps evolving: new observations land in the right
	// stream.
	n := g.Observations("normal", 2)
	g.Observe("normal", 3, 10)
	if g.Observations("normal", 2) != n+1 {
		t.Error("restored stream not live")
	}
	// Garbage rejected, as corruption.
	garbage := filepath.Join(t.TempDir(), "garbage")
	if err := os.WriteFile(garbage, []byte("}{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := g.LoadShards(garbage); !errors.Is(err, ErrCorruptState) {
		t.Errorf("garbage state: err = %v, want ErrCorruptState", err)
	}
	if _, err := LoadServiceShards(filepath.Join(t.TempDir(), "nope"), true); !os.IsNotExist(err) {
		t.Errorf("missing state: err = %v, want os.IsNotExist", err)
	}
}

func TestForecastInterval(t *testing.T) {
	f := New(WithSeed(7))
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		f.Observe(math.Exp(rng.NormFloat64()))
	}
	iv := f.ForecastInterval(0.5, 0.95)
	if !iv.OK {
		t.Fatal("interval unavailable")
	}
	if iv.Low >= iv.High {
		t.Fatalf("degenerate interval [%g, %g]", iv.Low, iv.High)
	}
	// The true median of exp(N(0,1)) is 1; the interval should straddle it.
	if iv.Low > 1 || iv.High < 1 {
		t.Errorf("interval [%g, %g] misses the true median 1", iv.Low, iv.High)
	}
	// Higher confidence widens the interval.
	wide := f.ForecastInterval(0.5, 0.99)
	if wide.High-wide.Low <= iv.High-iv.Low {
		t.Errorf("0.99 interval [%g,%g] not wider than 0.95 [%g,%g]", wide.Low, wide.High, iv.Low, iv.High)
	}
}

func TestForecastIntervalCoverage(t *testing.T) {
	// Over repeated samples, the two-sided interval captures the true
	// quantile at least ~confidence of the time.
	rng := rand.New(rand.NewSource(8))
	trueMedian := math.Exp(stats.StdNormalQuantile(0.5)) // = 1
	const trials, n = 800, 200
	hit := 0
	for tr := 0; tr < trials; tr++ {
		f := New(WithoutTrimming(), WithSeed(int64(tr)))
		for i := 0; i < n; i++ {
			f.Observe(math.Exp(rng.NormFloat64()))
		}
		iv := f.ForecastInterval(0.5, 0.9)
		if iv.OK && iv.Low <= trueMedian && trueMedian <= iv.High {
			hit++
		}
	}
	if frac := float64(hit) / trials; frac < 0.9-0.03 {
		t.Errorf("interval coverage %.3f below 0.9", frac)
	}
}
