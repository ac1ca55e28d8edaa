package experiments

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/scheduler"
)

// pinned is one strategy's exact replay outcome: the replay is
// deterministic in the seed, so any routing or predictor change shows up
// as a different count.
type pinned struct{ scored, correct, categories int }

func checkPinned(t *testing.T, byName map[string]AutoCatResult, want map[string]pinned) {
	t.Helper()
	for name, w := range want {
		r := byName[name]
		if got := (pinned{r.Scored, r.Correct, r.Categories}); got != w {
			t.Errorf("%s: scored/correct/categories = %v, want %v", name, got, w)
		}
	}
}

func checkStrategies(t *testing.T, results []AutoCatResult, floor float64) map[string]AutoCatResult {
	t.Helper()
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	byName := map[string]AutoCatResult{}
	for _, r := range results {
		byName[r.Strategy] = r
		if r.Scored == 0 {
			t.Fatalf("%s scored nothing", r.Strategy)
		}
		// Every strategy rides on BMBP, so every strategy must stay near
		// the correctness target.
		if r.CorrectFraction < floor {
			t.Errorf("%s correct %.3f below %.2f", r.Strategy, r.CorrectFraction, floor)
		}
	}
	if byName["merged"].Categories != 1 {
		t.Error("merged should have one category")
	}
	if byName["fixed-buckets"].Categories < 2 {
		t.Errorf("fixed buckets = %d categories", byName["fixed-buckets"].Categories)
	}
	if byName["learned"].Categories < 2 {
		t.Errorf("learned = %d categories", byName["learned"].Categories)
	}
	return byName
}

func TestAutoCategoriesOnSyntheticQueue(t *testing.T) {
	// datastar/normal: category differences exist but the congestion
	// episodes (bucket-independent) dominate the upper tail, so splitting
	// is roughly a wash here — the interesting assertion is that it does
	// not cost correctness.
	byName := checkStrategies(t, AutoCategories(Config{}, "datastar", "normal"), 0.94)
	checkPinned(t, byName, map[string]pinned{
		"merged":        {43689, 42285, 1},
		"fixed-buckets": {43672, 42305, 4},
		"learned":       {43689, 42160, 4},
	})
	if AutoCategories(Config{}, "nope", "nope") != nil {
		t.Error("unknown queue should be nil")
	}
}

func TestAutoCategoriesOnSchedulerTrace(t *testing.T) {
	// On emergent waits from the backfilling scheduler, job size is the
	// dominant wait factor (small jobs slip into holes, wide jobs queue),
	// so per-category prediction must buy real accuracy over a merged
	// predictor.
	jobs := scheduler.GenerateJobs(scheduler.WorkloadConfig{Jobs: 25000, Seed: 31})
	res, err := scheduler.Run(scheduler.DefaultMachine(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace("sim128", "normal")
	// Emergent scheduler waits are harsher than the calibrated suite (the
	// queue-ceiling kills and backfill reservations produce abrupt regime
	// flips no predictor sees coming), so the correctness floor here is
	// looser than the paper-suite 0.95 — what matters is that all three
	// strategies sit together near the target.
	byName := checkStrategies(t, AutoCategoriesOn(Config{}, tr), 0.90)
	checkPinned(t, byName, map[string]pinned{
		"merged":        {13453, 12878, 1},
		"fixed-buckets": {13368, 12803, 4},
		"learned":       {13453, 12825, 4},
	})
	// Most scheduler waits are zero, so the median ratio degenerates; the
	// mean ratio is instead dominated by the magnitude of misses (jobs
	// whose wait dwarfed the quoted bound). A merged predictor quotes
	// small-job-ish bounds to wide jobs and takes huge overshoots;
	// per-category prediction must shrink that tail substantially.
	merged := byName["merged"].MeanRatio
	if merged == 0 {
		t.Fatal("mean ratio degenerate")
	}
	for _, s := range []string{"fixed-buckets", "learned"} {
		if got := byName[s].MeanRatio; got >= merged {
			t.Errorf("%s mean overshoot %.3g not below merged %.3g", s, got, merged)
		}
	}
}

func TestLearnerLearnsSizeCategories(t *testing.T) {
	// Two natural job classes: 1-2 processor jobs waiting ~1 minute,
	// 64-128 processor jobs waiting ~1 hour. The learner must split them
	// and quote the wide class a much larger bound.
	l := &learner{seed: 3}
	rng := rand.New(rand.NewSource(3))
	observe := func() {
		if rng.Float64() < 0.5 {
			l.observe(1<<rng.Intn(2), math.Round(60*math.Exp(0.5*rng.NormFloat64())))
		} else {
			l.observe(64<<rng.Intn(2), math.Round(3600*math.Exp(0.5*rng.NormFloat64())))
		}
	}
	for i := 0; i < learnWarmup-1; i++ {
		observe()
		if _, ok := l.forecast(1); ok {
			t.Fatal("forecast during warm-up")
		}
	}
	for i := 0; i < 1500; i++ {
		observe()
	}
	if len(l.fc) < 2 {
		t.Fatalf("learned %d categories", len(l.fc))
	}
	if l.route(2) == l.route(128) {
		t.Error("2 and 128 procs share a category")
	}
	small, ok1 := l.forecast(2)
	large, ok2 := l.forecast(128)
	if !ok1 || !ok2 {
		t.Fatal("forecasts unavailable after warm-up")
	}
	if large < 4*small {
		t.Errorf("learned categories not separated: small %g, large %g", small, large)
	}
}
