package repro

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus the paper's timing claim and the ablations
// DESIGN.md calls out. Each benchmark regenerates its experiment end to end
// (workload generation + trace-replay evaluation) and reports the headline
// statistic as a custom metric, so `go test -bench=. -benchmem` both times
// the harness and reproduces the results.

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/predictor"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

var benchCfg = experiments.Config{Seed: 42}

// BenchmarkTable1Summary regenerates the 39-queue workload suite and its
// Table 1 summary statistics.
func BenchmarkTable1Summary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(benchCfg)
		if len(rows) != 39 {
			b.Fatal("row count")
		}
	}
}

// BenchmarkTable3ByQueue reproduces Table 3: per-queue correct fractions
// for BMBP and the two log-normal comparators over all 32 evaluated queues
// (~1.2 million replayed jobs per iteration).
func BenchmarkTable3ByQueue(b *testing.B) {
	var bmbpMean float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Table34(benchCfg)
		bmbpMean = 0
		for _, r := range rows {
			bmbpMean += r.BMBP.CorrectFraction
		}
		bmbpMean /= float64(len(rows))
	}
	b.ReportMetric(bmbpMean, "bmbp-correct/op")
}

// BenchmarkTable4Accuracy reproduces Table 4: the median actual/predicted
// ratios (the accuracy comparison shares Table 3's evaluation run).
func BenchmarkTable4Accuracy(b *testing.B) {
	var wins int
	for i := 0; i < b.N; i++ {
		rows := experiments.Table34(benchCfg)
		wins = 0
		for _, r := range rows {
			if r.BMBP.MedianRatio >= math.Max(r.LogNoTrim.MedianRatio, r.LogTrim.MedianRatio) {
				wins++
			}
		}
	}
	b.ReportMetric(float64(wins), "bmbp-tightest-queues/op")
}

// BenchmarkTable5BMBPByProcs reproduces Table 5: BMBP correct fractions per
// queue × processor-count category.
func BenchmarkTable5BMBPByProcs(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Table567(benchCfg)
		worst = 1
		for _, r := range rows {
			for _, bu := range trace.AllBuckets {
				if v := r.BMBP[bu]; !math.IsNaN(v) && v < worst {
					worst = v
				}
			}
		}
	}
	b.ReportMetric(worst, "bmbp-worst-cell/op")
}

// BenchmarkTable6LogNormalByProcs reproduces Table 6 (log-normal, no
// trimming, by processor count).
func BenchmarkTable6LogNormalByProcs(b *testing.B) {
	var fails float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Table567(benchCfg)
		fails = 0
		for _, r := range rows {
			for _, bu := range trace.AllBuckets {
				if v := r.LogNoTrim[bu]; !math.IsNaN(v) && v < 0.95 {
					fails++
				}
			}
		}
	}
	b.ReportMetric(fails, "logn-notrim-failed-cells/op")
}

// BenchmarkTable7LogNormalTrimByProcs reproduces Table 7 (log-normal with
// BMBP's trimming, by processor count).
func BenchmarkTable7LogNormalTrimByProcs(b *testing.B) {
	var fails float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Table567(benchCfg)
		fails = 0
		for _, r := range rows {
			for _, bu := range trace.AllBuckets {
				if v := r.LogTrim[bu]; !math.IsNaN(v) && v < 0.95 {
					fails++
				}
			}
		}
	}
	b.ReportMetric(fails, "logn-trim-failed-cells/op")
}

// BenchmarkTable8QuantileProfile reproduces Table 8: the two-hourly
// quantile profile of datastar/normal through May 5, 2004.
func BenchmarkTable8QuantileProfile(b *testing.B) {
	var q95 float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Table8(benchCfg)
		if len(rows) != 13 {
			b.Fatal("row count")
		}
		q95 = rows[len(rows)-1].Q95
	}
	b.ReportMetric(q95, "final-q95-bound-s/op")
}

// BenchmarkFigure1TwoSites reproduces Figure 1: the all-day bound series
// for SDSC Datastar and TACC Lonestar, Feb 24 2005.
func BenchmarkFigure1TwoSites(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		series := experiments.Figure1(benchCfg)
		gap = med(series[0].Values) / math.Max(med(series[1].Values), 1)
	}
	b.ReportMetric(gap, "sdsc-over-tacc-gap/op")
}

// BenchmarkFigure2ProcSplit reproduces Figure 2: the June 2004 per-category
// bound series in which larger jobs were favored.
func BenchmarkFigure2ProcSplit(b *testing.B) {
	var inversion float64
	for i := 0; i < b.N; i++ {
		series := experiments.Figure2(benchCfg)
		inversion = med(series[0].Values) / math.Max(med(series[1].Values), 1)
	}
	b.ReportMetric(inversion, "small-over-large-gap/op")
}

// BenchmarkPredictionLatency measures the paper's Section 5 timing claim
// (8 ms per prediction on a 1 GHz Pentium III): one observation plus a
// refit plus a bound query against a 100k-observation history. MaxHistory
// holds the history at 100k, so every run measures the same n however
// many iterations the harness picks.
func BenchmarkPredictionLatency(b *testing.B) {
	p := core.New(core.Config{Seed: 1, MaxHistory: 100_000})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		p.Observe(math.Exp(2*rng.NormFloat64()), false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Observe(math.Exp(2*rng.NormFloat64()), false)
		p.Refit()
		if _, ok := p.Bound(); !ok {
			b.Fatal("bound unavailable")
		}
	}
}

// BenchmarkLogNormalRefitLatency measures the comparator's per-epoch cost
// (running moments + tolerance factor).
func BenchmarkLogNormalRefitLatency(b *testing.B) {
	p := predictor.NewLogNormal(predictor.LogNormalConfig{})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		p.Observe(math.Exp(2*rng.NormFloat64()), false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Observe(math.Exp(2*rng.NormFloat64()), false)
		p.Refit()
		if _, ok := p.Bound(); !ok {
			b.Fatal("bound unavailable")
		}
	}
}

// --- Ablations (DESIGN.md Section 5) ---

// BenchmarkAblationExactVsApprox compares the exact binomial index search
// against the paper's normal approximation.
func BenchmarkAblationExactVsApprox(b *testing.B) {
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := core.UpperBoundIndex(100_000, 0.95, 0.95, core.ModeExact); !ok {
				b.Fatal("index unavailable")
			}
		}
	})
	b.Run("approx", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := core.UpperBoundIndex(100_000, 0.95, 0.95, core.ModeApprox); !ok {
				b.Fatal("index unavailable")
			}
		}
	})
}

// ablationQueue evaluates one representative nonstationary queue
// (datastar/normal) under a given BMBP configuration and returns the
// correct fraction.
func ablationQueue(b *testing.B, cfg core.Config) float64 {
	b.Helper()
	p := trace.FindPaperQueue("datastar", "normal")
	t := workload.ModelFor(p, 42).Generate()
	preds := []predictor.Predictor{core.New(cfg)}
	res := sim.Run(t, preds, sim.Config{})
	return res[0].CorrectFraction()
}

// BenchmarkAblationBMBPNoTrim quantifies what the change-point machinery
// buys BMBP itself on a strongly nonstationary queue (the paper only
// ablates trimming for the log-normal comparator).
func BenchmarkAblationBMBPNoTrim(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = ablationQueue(b, core.Config{Seed: 1})
		without = ablationQueue(b, core.Config{Seed: 1, NoTrim: true})
	}
	b.ReportMetric(with, "trim-correct/op")
	b.ReportMetric(without, "notrim-correct/op")
}

// BenchmarkAblationFixedThreshold compares the autocorrelation-calibrated
// rare-event threshold against a fixed three-in-a-row rule.
func BenchmarkAblationFixedThreshold(b *testing.B) {
	var adaptive, fixed float64
	for i := 0; i < b.N; i++ {
		adaptive = ablationQueue(b, core.Config{Seed: 1})
		fixed = ablationQueue(b, core.Config{Seed: 1, FixedRareThreshold: 3})
	}
	b.ReportMetric(adaptive, "adaptive-correct/op")
	b.ReportMetric(fixed, "fixed3-correct/op")
}

// BenchmarkAblationCUSUMDetector compares the paper's consecutive-miss
// change detector against a Bernoulli CUSUM on the same nonstationary
// queue.
func BenchmarkAblationCUSUMDetector(b *testing.B) {
	p := trace.FindPaperQueue("datastar", "normal")
	t := workload.ModelFor(p, 42).Generate()
	var runRule, cusum float64
	for i := 0; i < b.N; i++ {
		res := sim.Run(t, []predictor.Predictor{
			core.New(core.Config{Seed: 1}),
			core.NewWithCUSUM(core.Config{Seed: 1}, 0.3, 6),
		}, sim.Config{})
		runRule = res[0].CorrectFraction()
		cusum = res[1].CorrectFraction()
	}
	b.ReportMetric(runRule, "run-rule-correct/op")
	b.ReportMetric(cusum, "cusum-correct/op")
}

// BenchmarkSchedulerSubstrate times the batch-scheduler simulator itself
// (30k jobs through a 128-processor machine with EASY backfilling).
func BenchmarkSchedulerSubstrate(b *testing.B) {
	var util float64
	for i := 0; i < b.N; i++ {
		jobs := scheduler.GenerateJobs(scheduler.WorkloadConfig{Jobs: 30_000, Seed: 7})
		res, err := scheduler.Run(scheduler.DefaultMachine(), jobs)
		if err != nil {
			b.Fatal(err)
		}
		util = res.Utilization
	}
	b.ReportMetric(util, "utilization/op")
}

// BenchmarkAblationBackfillPolicy compares the scheduling disciplines the
// substrate implements — FCFS, EASY, conservative — on one job stream,
// reporting the mean wait each produces.
func BenchmarkAblationBackfillPolicy(b *testing.B) {
	for _, policy := range []scheduler.Policy{scheduler.FCFS, scheduler.EASY, scheduler.Conservative} {
		b.Run(policy.String(), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				jobs := scheduler.GenerateJobs(scheduler.WorkloadConfig{Jobs: 10_000, Seed: 11})
				cfg := scheduler.DefaultMachine()
				cfg.Policy = policy
				if _, err := scheduler.Run(cfg, jobs); err != nil {
					b.Fatal(err)
				}
				var sum float64
				for _, j := range jobs {
					sum += j.Wait()
				}
				mean = sum / float64(len(jobs))
			}
			b.ReportMetric(mean, "mean-wait-s/op")
		})
	}
}

// BenchmarkAblationComparators runs the full comparator field — BMBP, both
// log-normals, Downey's log-uniform, and the naive baselines — over one
// nonstationary queue and reports each method's correct fraction.
func BenchmarkAblationComparators(b *testing.B) {
	p := trace.FindPaperQueue("sdsc", "low")
	t := workload.ModelFor(p, 42).Generate()
	preds := func() []predictor.Predictor {
		return []predictor.Predictor{
			predictor.NewBMBP(0.95, 0.95, 1),
			predictor.NewLogNormal(predictor.LogNormalConfig{}),
			predictor.NewLogNormal(predictor.LogNormalConfig{Trim: true}),
			predictor.NewLogUniform(predictor.LogUniformConfig{}),
			predictor.NewLogUniform(predictor.LogUniformConfig{Trim: true}),
			predictor.NewRunningMax(0.95, 0.95),
			predictor.NewEmpirical(0.95, 0.95, 1),
		}
	}
	var results []sim.Result
	for i := 0; i < b.N; i++ {
		results = sim.Run(t, preds(), sim.Config{})
	}
	for _, r := range results {
		b.ReportMetric(r.CorrectFraction(), r.Method+"/op")
	}
}

// BenchmarkWorkloadGeneration times the calibrated synthetic generator over
// the largest queue (tacc2/normal, 356k jobs).
func BenchmarkWorkloadGeneration(b *testing.B) {
	p := trace.FindPaperQueue("tacc2", "normal")
	for i := 0; i < b.N; i++ {
		t := workload.ModelFor(p, 42).Generate()
		if t.Len() != p.JobCount {
			b.Fatal("length")
		}
	}
}

func med(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}
