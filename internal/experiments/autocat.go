package experiments

import (
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/trace"
	"repro/qbets"
)

// Learned categories vs. fixed buckets — beyond the paper. Section 6.2
// fixes the processor-count categories to the four ranges TACC suggested;
// the authors' follow-up system learned categories from the workload
// instead. This experiment replays one queue three ways and compares:
//
//   - merged:  a single predictor for the whole queue (Section 6.1 shape)
//   - fixed:   one predictor per fixed processor-count bucket (Section 6.2)
//   - learned: one predictor per category learned from the first waits
//
// The replay honors the visibility rule (a wait is observable only at job
// start) with per-job scoring after a 10% training prefix, mirroring the
// main simulator.

// AutoCatResult summarizes one routing strategy's performance.
type AutoCatResult struct {
	Strategy        string
	Scored, Correct int
	CorrectFraction float64
	// MedianRatio is the paper's accuracy metric; MeanRatio is robust to
	// the zero-inflated waits an uncontended scheduler produces (where
	// the median actual wait — and so the median ratio — is exactly 0).
	MedianRatio float64
	MeanRatio   float64
	Categories  int
}

// AutoCategories runs the comparison on one embedded paper machine/queue.
func AutoCategories(cfg Config, machine, queue string) []AutoCatResult {
	cfg = cfg.withDefaults()
	p := trace.FindPaperQueue(machine, queue)
	if p == nil {
		return nil
	}
	return AutoCategoriesOn(cfg, cfg.GenerateQueue(p))
}

// AutoCategoriesOn runs the comparison on any trace.
func AutoCategoriesOn(cfg Config, t *trace.Trace) []AutoCatResult {
	cfg = cfg.withDefaults()
	queue := t.Queue

	type strategy struct {
		name     string
		observe  func(procs int, wait float64)
		forecast func(procs int) (float64, bool)
		cats     func() int
	}
	mkMerged := func() strategy {
		f := qbets.New(qbets.WithSeed(cfg.Seed))
		return strategy{
			name:     "merged",
			observe:  func(procs int, w float64) { f.Observe(w) },
			forecast: func(procs int) (float64, bool) { return f.Forecast() },
			cats:     func() int { return 1 },
		}
	}
	mkFixed := func() strategy {
		s := qbets.NewService(true, qbets.WithSeed(cfg.Seed))
		return strategy{
			name:     "fixed-buckets",
			observe:  func(procs int, w float64) { s.Observe(queue, procs, w) },
			forecast: func(procs int) (float64, bool) { return s.Forecast(queue, procs) },
			cats:     func() int { return len(s.Queues()) },
		}
	}
	mkLearned := func() strategy {
		l := &learner{seed: cfg.Seed}
		return strategy{
			name:     "learned",
			observe:  l.observe,
			forecast: l.forecast,
			cats:     func() int { return len(l.fc) },
		}
	}

	var out []AutoCatResult
	for _, mk := range []func() strategy{mkMerged, mkFixed, mkLearned} {
		s := mk()
		out = append(out, replayStrategy(t, s.name, s.observe, s.forecast, s.cats))
	}
	return out
}

// learner learns job categories from the workload instead of using the
// paper's fixed processor-count ranges. It buffers the first learnWarmup
// waits with their job shapes (log₂ processor count), clusters the shapes
// into at most learnK categories with k-means, gives each category its
// own forecaster, and replays the buffered waits into them so no history
// is lost. Every later job routes to its nearest category. It quotes
// nothing during warm-up, and one goroutine drives it.
type learner struct {
	seed int64

	// Warm-up buffer.
	shapes [][]float64
	waits  []float64

	// Learned state; fc is nil until the warm-up completes.
	clusters   cluster.Result
	means, sds []float64
	fc         []*qbets.Forecaster
}

const learnK, learnWarmup = 4, 500

func jobShape(procs int) []float64 {
	return []float64{math.Log2(math.Max(float64(procs), 1))}
}

func (l *learner) observe(procs int, wait float64) {
	if l.fc != nil {
		l.fc[l.route(procs)].Observe(wait)
		return
	}
	l.shapes = append(l.shapes, jobShape(procs))
	l.waits = append(l.waits, wait)
	if len(l.waits) < learnWarmup {
		return
	}
	var scaled [][]float64
	scaled, l.means, l.sds = cluster.Standardize(l.shapes)
	l.clusters = cluster.KMeans(scaled, learnK, l.seed, 200)
	l.fc = make([]*qbets.Forecaster, len(l.clusters.Centers))
	for i := range l.fc {
		l.fc[i] = qbets.New(qbets.WithSeed(l.seed))
	}
	for i, w := range l.waits {
		l.fc[l.clusters.Assign[i]].Observe(w)
	}
	l.shapes, l.waits = nil, nil
}

func (l *learner) route(procs int) int {
	return l.clusters.Nearest(cluster.Apply(jobShape(procs), l.means, l.sds))
}

func (l *learner) forecast(procs int) (float64, bool) {
	if l.fc == nil {
		return 0, false
	}
	return l.fc[l.route(procs)].Forecast()
}

func replayStrategy(t *trace.Trace, name string,
	observe func(int, float64), forecast func(int) (float64, bool), cats func() int) AutoCatResult {

	type rel struct {
		at    int64
		procs int
		wait  float64
	}
	var pending []rel
	train := t.Len() / 10
	res := AutoCatResult{Strategy: name}
	var ratios []float64
	for i, j := range t.Jobs {
		keep := pending[:0]
		for _, r := range pending {
			if r.at <= j.Submit {
				observe(r.procs, r.wait)
			} else {
				keep = append(keep, r)
			}
		}
		pending = append(keep, rel{j.Release(), j.Procs, j.Wait})

		bound, ok := forecast(j.Procs)
		if i >= train && ok {
			res.Scored++
			if j.Wait <= bound {
				res.Correct++
			}
			if bound > 0 {
				ratios = append(ratios, j.Wait/bound)
			}
		}
	}
	if res.Scored > 0 {
		res.CorrectFraction = float64(res.Correct) / float64(res.Scored)
	} else {
		res.CorrectFraction = 1
	}
	sort.Float64s(ratios)
	if n := len(ratios); n > 0 {
		if n%2 == 1 {
			res.MedianRatio = ratios[n/2]
		} else {
			res.MedianRatio = (ratios[n/2-1] + ratios[n/2]) / 2
		}
		sum := 0.0
		for _, r := range ratios {
			sum += r
		}
		res.MeanRatio = sum / float64(n)
	}
	res.Categories = cats()
	return res
}
