package scheduler

import (
	"fmt"
	"sort"
)

// Kernel is the reusable simulation engine behind Run. It owns every piece
// of replay state — the job arena, the pending and running sets, the
// conservative-backfill availability profile, the reservation scratch, the
// per-job queue priorities — so back-to-back runs reuse the same memory
// instead of rebuilding it: a steady-state kernel run performs ~0 allocations
// regardless of job count. That is what makes the what-if plane viable:
// a scenario grid executes dozens of calibrated replays per HTTP request,
// each on a per-worker kernel, with no per-run garbage.
//
// A Kernel is not safe for concurrent use; give each worker its own.
//
// Usage:
//
//	k := scheduler.NewKernel()
//	jobs := k.Jobs(n)        // value arena, caller fills every field
//	res, err := k.Run(cfg)   // res.Jobs aliases the arena
//
// Results are identical to the single-shot Run: the event loop, policy
// code, and tie-breaking all operate exactly as before, just on pooled
// storage (see the differential test pinning seed-42 replays).
type Kernel struct {
	jobs  []Job   // value arena; Jobs(n) resizes
	prio  []int   // per-arena-index queue priority, filled at validation
	order []int32 // arena indices, stable-sorted by submit time

	pending []int32 // waiting jobs (arena indices), priority-FCFS order
	run     runHeap // running set, min-heap by actual end

	prof profile // conservative-backfill availability profile (arena reused)

	// ends mirrors the running set in lessRunning order, maintained
	// incrementally: start() inserts, completion removes. Both backfill
	// policies read the running set est-sorted on (nearly) every event, so
	// keeping the order standing — one O(n) memmove per start/finish —
	// replaces the O(n log n) copy-and-sort per event that used to
	// dominate the whole simulation (~80% of kernel CPU).
	ends []running

	boundaries []int64 // downtime capacity-change instants, sorted

	orderSorter orderBySubmit

	// Per-run event-loop state; fields rather than locals so the policy
	// methods share them without closure captures.
	now         int64
	free        int
	offline     int
	backfilled  int
	busySeconds float64

	res KernelResult
}

// KernelResult is the outcome of a kernel run. Jobs aliases the kernel's
// arena: it is valid until the next Jobs or Run call on the same kernel.
type KernelResult struct {
	Jobs []Job
	// Makespan is the completion time of the last job.
	Makespan int64
	// Utilization is busy processor-seconds over Procs·Makespan.
	Utilization float64
	// Backfilled counts jobs started out of priority order.
	Backfilled int
}

// NewKernel returns an empty kernel. Arenas grow on first use and are
// retained across runs.
func NewKernel() *Kernel { return &Kernel{} }

// Jobs returns the kernel's job arena resized to n. Contents are
// unspecified (previous-run values); the caller must assign every field of
// every element before Run.
func (k *Kernel) Jobs(n int) []Job {
	if cap(k.jobs) < n {
		k.jobs = make([]Job, n)
	}
	k.jobs = k.jobs[:n]
	return k.jobs
}

// orderBySubmit stable-sorts arena indices by submission time. A typed
// sort.Interface kept as a kernel field: sort.Stable through a pointer to
// it allocates nothing, and stability makes the result identical to the
// sort.SliceStable the pre-kernel Run used.
type orderBySubmit struct {
	idx  []int32
	jobs []Job
}

func (o *orderBySubmit) Len() int      { return len(o.idx) }
func (o *orderBySubmit) Swap(i, j int) { o.idx[i], o.idx[j] = o.idx[j], o.idx[i] }
func (o *orderBySubmit) Less(i, j int) bool {
	return o.jobs[o.idx[i]].Submit < o.jobs[o.idx[j]].Submit
}

// byEstimatedEnd sorts a running scratch slice by estimated completion.
// sort.Sort and sort.Slice share one pdqsort, so ordering ties exactly as
// the pre-kernel sort.Slice did requires only presenting the elements in
// the same initial order — which the heap layout guarantees (see runHeap).
type byEstimatedEnd struct{ s []running }

func (b *byEstimatedEnd) Len() int      { return len(b.s) }
func (b *byEstimatedEnd) Swap(i, j int) { b.s[i], b.s[j] = b.s[j], b.s[i] }
func (b *byEstimatedEnd) Less(i, j int) bool {
	return lessRunning(b.s[i], b.s[j])
}

// lessRunning is the total order on running entries used everywhere the
// running set is laid out by estimated end: est first, then actual end,
// then width. A total order (rather than est alone) makes the layout — and
// therefore reservation tie-breaking — independent of sort algorithm and
// insertion history, which is what lets the kernel maintain the order
// incrementally. Entries equal under it are field-identical and thus
// interchangeable.
func lessRunning(a, b running) bool {
	if a.est != b.est {
		return a.est < b.est
	}
	if a.end != b.end {
		return a.end < b.end
	}
	return a.procs < b.procs
}

// Run replays the arena jobs (any order; sorted by submit internally)
// through the machine and assigns every arena job a start time. It returns
// an error for jobs that can never run (more processors than the machine
// has). The returned result is reused by the next Run call.
func (k *Kernel) Run(cfg Config) (*KernelResult, error) {
	if cfg.Procs <= 0 {
		return nil, fmt.Errorf("scheduler: machine needs at least one processor")
	}
	if len(cfg.Queues) == 0 {
		return nil, fmt.Errorf("scheduler: at least one queue class required")
	}
	jobs := k.jobs
	if cap(k.prio) < len(jobs) {
		k.prio = make([]int, len(jobs))
	}
	k.prio = k.prio[:len(jobs)]
	for i := range jobs {
		j := &jobs[i]
		if j.Procs > cfg.Procs {
			return nil, fmt.Errorf("scheduler: job %d wants %d procs, machine has %d", j.ID, j.Procs, cfg.Procs)
		}
		if j.Procs < 1 {
			return nil, fmt.Errorf("scheduler: job %d wants %d procs", j.ID, j.Procs)
		}
		qc := queueClass(cfg.Queues, j.Queue)
		if qc == nil {
			return nil, fmt.Errorf("scheduler: job %d names unknown queue %q", j.ID, j.Queue)
		}
		// Enforce the queue's advertised constraints the way batch systems
		// do (Section 5.2 of the paper: "constraints ... which the
		// batch-queue software enforces"): oversized submissions are
		// rejected, runtime estimates are clamped to the queue ceiling
		// (the job is killed at the ceiling if it overruns).
		if qc.MaxProcs > 0 && j.Procs > qc.MaxProcs {
			return nil, fmt.Errorf("scheduler: job %d wants %d procs, queue %q allows %d", j.ID, j.Procs, j.Queue, qc.MaxProcs)
		}
		if qc.MaxRuntime > 0 {
			if j.Estimate > qc.MaxRuntime {
				j.Estimate = qc.MaxRuntime
			}
			if j.Runtime > qc.MaxRuntime {
				j.Runtime = qc.MaxRuntime
				j.Killed = true
			}
		}
		j.start = -1
		k.prio[i] = qc.Priority
	}

	if cap(k.order) < len(jobs) {
		k.order = make([]int32, len(jobs))
	}
	k.order = k.order[:len(jobs)]
	for i := range k.order {
		k.order[i] = int32(i)
	}
	k.orderSorter = orderBySubmit{idx: k.order, jobs: jobs}
	sort.Stable(&k.orderSorter)

	k.pending = k.pending[:0]
	k.run = k.run[:0]
	k.ends = k.ends[:0]
	k.res = KernelResult{Jobs: jobs}
	k.free = cfg.Procs
	k.offline = 0
	k.backfilled = 0
	k.busySeconds = 0

	k.rebuildBoundaries(cfg)
	bi := 0 // index of the next unconsumed boundary

	next := 0
	k.now = 0
	if len(k.order) > 0 {
		k.now = jobs[k.order[0]].Submit
	}

	for next < len(k.order) || len(k.pending) > 0 || k.run.len() > 0 {
		// Advance to the next event: arrival, completion, or capacity
		// change.
		var tArr, tEnd int64 = -1, -1
		if next < len(k.order) {
			tArr = jobs[k.order[next]].Submit
		}
		if k.run.len() > 0 {
			tEnd = k.run[0].end
		}
		tCap := int64(-1)
		for bi < len(k.boundaries) && k.boundaries[bi] <= k.now {
			bi++
		}
		if bi < len(k.boundaries) {
			tCap = k.boundaries[bi]
		}
		switch {
		case tCap >= 0 && (tArr < 0 || tCap < tArr) && (tEnd < 0 || tCap < tEnd):
			k.now = tCap
		case tArr >= 0 && (tEnd < 0 || tArr <= tEnd):
			k.now = tArr
			for next < len(k.order) && jobs[k.order[next]].Submit == k.now {
				k.enqueue(k.order[next])
				next++
			}
		case tEnd >= 0:
			k.now = tEnd
			for k.run.len() > 0 && k.run[0].end == k.now {
				r := k.run.pop()
				k.free += r.procs
				k.endsRemove(r)
			}
		default:
			// Unreachable: loop condition guarantees an event exists.
			return nil, fmt.Errorf("scheduler: event loop stalled at t=%d", k.now)
		}
		k.offline = cfg.offlineAt(k.now)
		k.schedule(cfg)
	}

	k.res.Backfilled = k.backfilled
	for i := range jobs {
		if end := jobs[i].start + int64(jobs[i].Runtime); end > k.res.Makespan {
			k.res.Makespan = end
		}
	}
	if k.res.Makespan > 0 {
		k.res.Utilization = k.busySeconds / (float64(cfg.Procs) * float64(k.res.Makespan))
	}
	return &k.res, nil
}

// rebuildBoundaries fills k.boundaries with every capacity-change instant,
// sorted, reusing the arena.
func (k *Kernel) rebuildBoundaries(cfg Config) {
	k.boundaries = k.boundaries[:0]
	for _, d := range cfg.Downtimes {
		if d.To > d.From && d.Procs > 0 {
			k.boundaries = append(k.boundaries, d.From, d.To)
		}
	}
	// Insertion sort: downtime lists are short, and equal instants are
	// interchangeable, so any ordering algorithm yields the same event
	// sequence.
	for i := 1; i < len(k.boundaries); i++ {
		for j := i; j > 0 && k.boundaries[j] < k.boundaries[j-1]; j-- {
			k.boundaries[j], k.boundaries[j-1] = k.boundaries[j-1], k.boundaries[j]
		}
	}
}

// available returns the processors new work may occupy right now: free
// minus whatever is offline (drained nodes count against free capacity
// first; jobs already running on them are allowed to finish).
func (k *Kernel) available() int {
	a := k.free - k.offline
	if a < 0 {
		a = 0
	}
	return a
}

// start commits one pending job at the current event time. Busy seconds
// accumulate in start order, matching the pre-kernel summation order
// exactly (float addition is order-sensitive, and utilization is pinned by
// the differential test).
func (k *Kernel) start(ji int32) {
	j := &k.jobs[ji]
	j.start = k.now
	k.free -= j.Procs
	k.busySeconds += float64(j.Procs) * j.Runtime
	r := running{
		procs: j.Procs,
		end:   k.now + int64(j.Runtime),
		est:   k.now + int64(j.Estimate),
	}
	k.run.push(r)
	k.endsInsert(r)
}

// endsInsert adds r to the est-ordered mirror of the running set.
func (k *Kernel) endsInsert(r running) {
	i := sort.Search(len(k.ends), func(i int) bool { return !lessRunning(k.ends[i], r) })
	k.ends = append(k.ends, running{})
	copy(k.ends[i+1:], k.ends[i:])
	k.ends[i] = r
}

// endsRemove drops one entry equal to r from the est-ordered mirror.
// Entries equal under lessRunning are field-identical, so removing the
// first match is removing r.
func (k *Kernel) endsRemove(r running) {
	i := sort.Search(len(k.ends), func(i int) bool { return !lessRunning(k.ends[i], r) })
	copy(k.ends[i:], k.ends[i+1:])
	k.ends = k.ends[:len(k.ends)-1]
}

// enqueue inserts an arriving job into pending, which is kept in
// priority-FCFS order: queue priority descending, then submission time.
// The job goes after every waiting job of equal or higher priority. Jobs
// arrive in submit order, so no waiting job was submitted later: this is
// exactly where a stable sort of pending plus the arrival would put it,
// and removals elsewhere preserve the order, so pending never needs a sort.
func (k *Kernel) enqueue(ji int32) {
	p := k.prio[ji]
	i := sort.Search(len(k.pending), func(i int) bool { return k.prio[k.pending[i]] < p })
	k.pending = append(k.pending, 0)
	copy(k.pending[i+1:], k.pending[i:])
	k.pending[i] = ji
}

// queueClass returns the class named name, or nil. A later entry wins over
// an earlier one of the same name, as in a map filled in declaration
// order. Queue lists hold a handful of classes, so a reverse scan is
// cheaper per job than hashing the name.
func queueClass(queues []QueueClass, name string) *QueueClass {
	for i := len(queues) - 1; i >= 0; i-- {
		if queues[i].Name == name {
			return &queues[i]
		}
	}
	return nil
}

// schedule starts every job the policy allows at the current event time.
func (k *Kernel) schedule(cfg Config) {
	jobs := k.jobs
	for {
		progressed := false
		// Start jobs in priority order while they fit. Consuming via a
		// head cursor and compacting afterwards (rather than re-slicing
		// pending[1:]) keeps the slice anchored at its backing array's
		// start, so the arena never loses front capacity to appends.
		h := 0
		for h < len(k.pending) && jobs[k.pending[h]].Procs <= k.available() {
			k.start(k.pending[h])
			h++
			progressed = true
		}
		if h > 0 {
			n := copy(k.pending, k.pending[h:])
			k.pending = k.pending[:n]
		}
		if !progressed || len(k.pending) == 0 {
			break
		}
	}
	if len(k.pending) == 0 {
		return
	}
	switch cfg.Policy {
	case EASY:
		k.backfillEASY()
	case Conservative:
		k.backfillConservative()
	}
}

// backfillEASY reserves the earliest feasible start for the head job, then
// starts any lower-ranked job that fits now without delaying the
// reservation.
func (k *Kernel) backfillEASY() {
	jobs := k.jobs
	head := &jobs[k.pending[0]]
	resStart, resFree := k.reservation(head.Procs)
	for i := 1; i < len(k.pending); i++ {
		j := &jobs[k.pending[i]]
		if j.Procs > k.available() {
			continue
		}
		endEst := k.now + int64(j.Estimate)
		// Safe if it finishes before the reservation, or if it leaves the
		// reserved processors untouched at reservation time.
		if endEst <= resStart || j.Procs <= resFree {
			ji := k.pending[i]
			k.pending = append(k.pending[:i], k.pending[i+1:]...)
			i--
			k.start(ji)
			k.backfilled++
			if endEst > resStart {
				resFree -= j.Procs
			}
			if len(k.pending) == 0 {
				break
			}
		}
	}
}

// reservation computes the earliest time the given processor count becomes
// available assuming running jobs finish at their estimated ends, and how
// many processors will be spare beyond the request at that time. It scans
// the standing est-ordered mirror of the running set (k.ends).
func (k *Kernel) reservation(procs int) (resStart int64, spare int) {
	// Reservation planning approximates future capacity with the current
	// offline level; a boundary crossing reschedules everything anyway.
	free := k.available()
	t := k.now
	for _, r := range k.ends {
		if free >= procs {
			break
		}
		free += r.procs
		if r.est > t {
			t = r.est
		}
	}
	return t, free - procs
}
