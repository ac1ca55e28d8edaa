package scheduler

import (
	"math"
	"math/rand"
)

// BaseTrace is the common-random-numbers (CRN) form of the synthetic
// workload: the raw random draws behind a job stream, captured once,
// separate from the config-dependent transforms that turn them into jobs.
// A what-if scenario grid materializes every scenario from ONE base trace —
// same jobs, perturbed arrival rate or processor caps — so cross-scenario
// deltas measure the perturbation, not sampling noise, and per-scenario
// generation skips the RNG entirely (the dominant cost of GenerateJobs).
//
// Fill with a zero Perturbation reproduces GenerateJobs byte for byte:
// GenerateJobs itself is implemented through a BaseTrace, and the seed-42
// differential golden test pins the combined pipeline.
type BaseTrace struct {
	cfg WorkloadConfig // defaults applied

	// Raw draws the perturbations act on, in the exact order GenerateJobs
	// consumed the RNG: interarrival exponential and processor exponent
	// (its own variable-length coin-flip sequence).
	inter []float64
	pexp  []uint8

	// Job fields no perturbation changes, derived once from the remaining
	// draws (log-runtime normal, estimate uniform, queue uniform): runtime
	// after constraint routing, estimate, routed queue, and that queue's
	// processor cap (0 = none).
	runtime  []float64
	estimate []float64
	queue    []string
	qcap     []int
}

// Perturbation reshapes a base trace into one scenario's workload. The zero
// value reproduces the base workload exactly.
type Perturbation struct {
	// RateMultiplier scales the arrival rate (interarrivals divide by it);
	// 1.2 means 20% more load. 0 means 1.
	RateMultiplier float64
	// MaxProcs caps per-job processor requests below the base config's cap
	// (0 = base cap). Scenarios that shrink the machine set this so the
	// workload stays admissible.
	MaxProcs int
}

// NewBaseTrace samples the raw draws for cfg's job stream. The draw
// sequence depends only on Seed and Jobs, never on the transform
// parameters — that is what makes the perturbed replays common-random.
func NewBaseTrace(cfg WorkloadConfig) *BaseTrace {
	cfg = cfg.withDefaults()
	bt := &BaseTrace{
		cfg:      cfg,
		inter:    make([]float64, cfg.Jobs),
		pexp:     make([]uint8, cfg.Jobs),
		runtime:  make([]float64, cfg.Jobs),
		estimate: make([]float64, cfg.Jobs),
		queue:    make([]string, cfg.Jobs),
		qcap:     make([]int, cfg.Jobs),
	}
	var wsum float64
	for _, w := range cfg.QueueWeights {
		wsum += w
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.Jobs; i++ {
		bt.inter[i] = rng.ExpFloat64()
		exp := uint8(0)
		for exp < 10 && rng.Float64() < 0.45 {
			exp++
		}
		bt.pexp[i] = exp
		rnorm := rng.NormFloat64()
		estU := rng.Float64()
		queueU := rng.Float64()
		bt.route(i, rnorm, estU, queueU*wsum)
	}
	return bt
}

// route derives job i's perturbation-independent fields from its
// log-runtime normal draw, estimate uniform, and queue draw u scaled to
// the total queue weight.
func (bt *BaseTrace) route(i int, rnorm, estU, u float64) {
	cfg := &bt.cfg
	runtime := math.Exp(cfg.RuntimeMu + cfg.RuntimeSigma*rnorm)
	if runtime < 10 {
		runtime = 10
	}
	estimate := runtime * (1 + estU*(cfg.OverestimateMax-1))

	queue := cfg.QueueNames[len(cfg.QueueNames)-1]
	for qi, w := range cfg.QueueWeights {
		if u <= w {
			queue = cfg.QueueNames[qi]
			break
		}
		u -= w
	}
	// Users route around advertised constraints: a job too long for its
	// drawn queue goes to the next queue down that accommodates it; a job
	// still too long for the last queue is shortened to fit
	// (checkpoint-and-resubmit behavior).
	for qi := indexOf(cfg.QueueNames, queue); qi < len(cfg.QueueNames); qi++ {
		queue = cfg.QueueNames[qi]
		ceil := cfg.QueueMaxRuntime[queue]
		if ceil <= 0 || runtime <= ceil {
			break
		}
		if qi == len(cfg.QueueNames)-1 {
			runtime = ceil * 0.95
		}
	}
	if ceil := cfg.QueueMaxRuntime[queue]; ceil > 0 && estimate > ceil {
		estimate = ceil
	}
	if estimate < runtime {
		estimate = runtime
	}
	bt.runtime[i], bt.estimate[i], bt.queue[i] = runtime, estimate, queue
	bt.qcap[i] = cfg.QueueMaxProcs[queue]
}

// Len returns the number of jobs the trace materializes.
func (bt *BaseTrace) Len() int { return len(bt.inter) }

// Config returns the workload config (defaults applied) behind the trace.
func (bt *BaseTrace) Config() WorkloadConfig { return bt.cfg }

// Fill materializes the trace under p into dst, reusing dst's capacity
// (pass a kernel's Jobs arena for allocation-free scenario replay), and
// returns the filled slice. The transforms a perturbation reaches —
// diurnal modulation and the processor caps — are reapplied here against
// the perturbed parameters, so e.g. a higher arrival rate legitimately
// shifts which jobs land in "working hours". Runtime, estimate and queue
// routing do not depend on the perturbation; NewBaseTrace derived them.
func (bt *BaseTrace) Fill(dst []Job, p Perturbation) []Job {
	cfg := bt.cfg
	n := bt.Len()
	if cap(dst) < n {
		dst = make([]Job, n)
	}
	dst = dst[:n]

	rateMul := p.RateMultiplier
	if rateMul <= 0 {
		rateMul = 1
	}
	maxProcs := cfg.MaxProcs
	if p.MaxProcs > 0 && p.MaxProcs < maxProcs {
		maxProcs = p.MaxProcs
	}

	t := float64(cfg.Start)
	for i := 0; i < n; i++ {
		// Diurnal modulation: submissions cluster in "working hours" of a
		// 24h cycle, like every published workload study observes.
		hour := math.Mod(t/3600, 24)
		rate := 1.0
		if hour >= 8 && hour < 20 {
			rate = 0.6 // busier: shorter interarrivals
		} else {
			rate = 1.8
		}
		t += bt.inter[i] * cfg.MeanInterarrival * rate / rateMul

		// Processor counts: powers of two, heavily weighted small, within
		// the machine cap and the routed queue's advertised cap.
		procs := 1 << bt.pexp[i]
		if procs > maxProcs {
			procs = maxProcs
		}
		if qcap := bt.qcap[i]; qcap > 0 && procs > qcap {
			procs = qcap
		}

		dst[i] = Job{
			ID:       i,
			Queue:    bt.queue[i],
			Procs:    procs,
			Submit:   int64(t),
			Estimate: bt.estimate[i],
			Runtime:  bt.runtime[i],
			start:    -1,
		}
	}
	return dst
}
