package scheduler

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

func oneQueue(procs int, backfill bool) Config {
	policy := FCFS
	if backfill {
		policy = EASY
	}
	return Config{
		Procs:  procs,
		Queues: []QueueClass{{Name: "q", Priority: 1}},
		Policy: policy,
	}
}

func oneQueuePolicy(procs int, policy Policy) Config {
	return Config{
		Procs:  procs,
		Queues: []QueueClass{{Name: "q", Priority: 1}},
		Policy: policy,
	}
}

func TestFCFSSerialMachine(t *testing.T) {
	// One processor, three jobs arriving together: they run back to back.
	jobs := []*Job{
		{ID: 0, Queue: "q", Procs: 1, Submit: 0, Runtime: 100, Estimate: 100},
		{ID: 1, Queue: "q", Procs: 1, Submit: 0, Runtime: 50, Estimate: 50},
		{ID: 2, Queue: "q", Procs: 1, Submit: 0, Runtime: 25, Estimate: 25},
	}
	res, err := Run(oneQueue(1, false), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].Wait() != 0 || jobs[1].Wait() != 100 || jobs[2].Wait() != 150 {
		t.Fatalf("waits: %g %g %g", jobs[0].Wait(), jobs[1].Wait(), jobs[2].Wait())
	}
	if res.Makespan != 175 {
		t.Errorf("makespan = %d", res.Makespan)
	}
	if res.Utilization != 1.0 {
		t.Errorf("utilization = %g", res.Utilization)
	}
	if res.Backfilled != 0 {
		t.Error("no backfill expected")
	}
}

func TestParallelFits(t *testing.T) {
	// Two jobs, machine fits both: both start immediately.
	jobs := []*Job{
		{ID: 0, Queue: "q", Procs: 2, Submit: 10, Runtime: 100, Estimate: 100},
		{ID: 1, Queue: "q", Procs: 2, Submit: 10, Runtime: 100, Estimate: 100},
	}
	if _, err := Run(oneQueue(4, false), jobs); err != nil {
		t.Fatal(err)
	}
	if jobs[0].Wait() != 0 || jobs[1].Wait() != 0 {
		t.Fatalf("waits: %g %g", jobs[0].Wait(), jobs[1].Wait())
	}
}

func TestBackfillLetsSmallJobJumpAhead(t *testing.T) {
	// Machine of 4. A 3-proc job runs until t=100 leaving one processor
	// idle. A 4-proc job waits for the full machine. A 1-proc 10-second
	// job arrives later: without backfill it queues behind the 4-proc
	// job; with EASY backfill it starts immediately on the idle processor
	// because it cannot delay the reservation at t=100.
	mk := func() []*Job {
		return []*Job{
			{ID: 0, Queue: "q", Procs: 3, Submit: 0, Runtime: 100, Estimate: 100},
			{ID: 1, Queue: "q", Procs: 4, Submit: 1, Runtime: 100, Estimate: 100},
			{ID: 2, Queue: "q", Procs: 1, Submit: 2, Runtime: 10, Estimate: 10},
		}
	}
	noBF := mk()
	if _, err := Run(oneQueue(4, false), noBF); err != nil {
		t.Fatal(err)
	}
	if noBF[2].Start() != 200 {
		t.Errorf("without backfill the small job starts at %d, want 200", noBF[2].Start())
	}
	bf := mk()
	res, err := Run(oneQueue(4, true), bf)
	if err != nil {
		t.Fatal(err)
	}
	if bf[2].Start() != 2 {
		t.Errorf("with backfill the small job starts at %d, want 2", bf[2].Start())
	}
	if bf[1].Start() != 100 {
		t.Errorf("reservation violated: second big job starts at %d, want 100", bf[1].Start())
	}
	if res.Backfilled != 1 {
		t.Errorf("backfilled = %d", res.Backfilled)
	}
}

func TestBackfillNeverDelaysReservation(t *testing.T) {
	// A long small job may NOT backfill when it would overlap the head
	// job's reservation and use its processors.
	jobs := []*Job{
		{ID: 0, Queue: "q", Procs: 4, Submit: 0, Runtime: 100, Estimate: 100},
		{ID: 1, Queue: "q", Procs: 3, Submit: 1, Runtime: 100, Estimate: 100},
		// Wants 1 proc for 500s (estimate): at t=100 the head needs 3 of
		// 4, so 1 spare remains — this one CAN backfill into the spare.
		{ID: 2, Queue: "q", Procs: 1, Submit: 2, Runtime: 500, Estimate: 500},
		// This one wants 2 procs for 500s: it would eat into the
		// reservation, so it must wait.
		{ID: 3, Queue: "q", Procs: 2, Submit: 3, Runtime: 500, Estimate: 500},
	}
	// Machine is fully busy: job 0 holds all 4 procs until t=100.
	if _, err := Run(oneQueue(4, true), jobs); err != nil {
		t.Fatal(err)
	}
	if jobs[1].Start() != 100 {
		t.Errorf("head starts at %d, want 100", jobs[1].Start())
	}
	if jobs[2].Start() != 0 && jobs[2].Start() > 100 {
		t.Errorf("1-proc filler should backfill, starts at %d", jobs[2].Start())
	}
	if jobs[3].Start() < 100 {
		t.Errorf("2-proc job must not delay the reservation, starts at %d", jobs[3].Start())
	}
}

func TestPriorityQueues(t *testing.T) {
	// Equal arrival, single slot: the high-priority job goes first even
	// though it arrived later in the slice.
	cfg := Config{
		Procs: 1,
		Queues: []QueueClass{
			{Name: "low", Priority: 1},
			{Name: "high", Priority: 10},
		},
	}
	jobs := []*Job{
		{ID: 0, Queue: "low", Procs: 1, Submit: 5, Runtime: 10, Estimate: 10},
		{ID: 1, Queue: "high", Procs: 1, Submit: 5, Runtime: 10, Estimate: 10},
	}
	if _, err := Run(cfg, jobs); err != nil {
		t.Fatal(err)
	}
	if jobs[1].Start() != 5 || jobs[0].Start() != 15 {
		t.Errorf("starts: high %d low %d", jobs[1].Start(), jobs[0].Start())
	}
}

// TestDuplicateQueueLastWins pins how a queue named twice resolves: the
// later class supplies both the priority and the constraints.
func TestDuplicateQueueLastWins(t *testing.T) {
	cfg := Config{
		Procs: 4,
		Queues: []QueueClass{
			{Name: "q", Priority: 10, MaxProcs: 1},
			{Name: "other", Priority: 5},
			{Name: "q", Priority: 1},
		},
	}
	jobs := []*Job{
		{ID: 0, Queue: "q", Procs: 4, Submit: 0, Runtime: 10, Estimate: 10},
		{ID: 1, Queue: "q", Procs: 4, Submit: 5, Runtime: 10, Estimate: 10},
		{ID: 2, Queue: "other", Procs: 4, Submit: 5, Runtime: 10, Estimate: 10},
	}
	if _, err := Run(cfg, jobs); err != nil {
		t.Fatalf("later class's unlimited MaxProcs not applied: %v", err)
	}
	// At t=10 both waiters fit only one at a time; "other" (priority 5)
	// outranks the later "q" (priority 1), not the earlier one (10).
	if jobs[2].Start() != 10 || jobs[1].Start() != 20 {
		t.Errorf("starts: other %d q %d, want 10 and 20", jobs[2].Start(), jobs[1].Start())
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}, nil); err == nil {
		t.Error("empty config should fail")
	}
	if _, err := Run(oneQueue(0, false), nil); err == nil {
		t.Error("zero procs should fail")
	}
	if _, err := Run(oneQueue(4, false), []*Job{{ID: 0, Queue: "q", Procs: 8, Runtime: 1}}); err == nil {
		t.Error("oversized job should fail")
	}
	if _, err := Run(oneQueue(4, false), []*Job{{ID: 0, Queue: "zzz", Procs: 1, Runtime: 1}}); err == nil {
		t.Error("unknown queue should fail")
	}
	if _, err := Run(oneQueue(4, false), []*Job{{ID: 0, Queue: "q", Procs: 0, Runtime: 1}}); err == nil {
		t.Error("zero-proc job should fail")
	}
}

func TestResultTrace(t *testing.T) {
	jobs := []*Job{
		{ID: 0, Queue: "q", Procs: 1, Submit: 0, Runtime: 10, Estimate: 10},
		{ID: 1, Queue: "q", Procs: 1, Submit: 1, Runtime: 10, Estimate: 10},
	}
	res, err := Run(oneQueue(1, false), jobs)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace("mach", "q")
	if tr.Machine != "mach" || tr.Len() != 2 {
		t.Fatalf("trace: %+v", tr)
	}
	if tr.Jobs[1].Wait != 9 {
		t.Errorf("second wait = %g, want 9", tr.Jobs[1].Wait)
	}
	if res.Trace("mach", "other").Len() != 0 {
		t.Error("queue filter")
	}
	all := res.Trace("mach", "")
	if all.Queue != "all" || all.Len() != 2 {
		t.Error("merged trace")
	}
}

func TestGenerateJobsShape(t *testing.T) {
	jobs := GenerateJobs(WorkloadConfig{Jobs: 5000, Seed: 3})
	if len(jobs) != 5000 {
		t.Fatalf("len = %d", len(jobs))
	}
	queues := map[string]int{}
	for i, j := range jobs {
		if i > 0 && j.Submit < jobs[i-1].Submit {
			t.Fatal("submits not nondecreasing")
		}
		if j.Procs < 1 || j.Procs > 128 {
			t.Fatalf("procs = %d", j.Procs)
		}
		if j.Procs&(j.Procs-1) != 0 {
			t.Fatalf("procs %d not a power of two", j.Procs)
		}
		if j.Estimate < j.Runtime {
			t.Fatal("estimates must not undershoot runtimes")
		}
		if j.Runtime < 10 {
			t.Fatal("runtime floor")
		}
		queues[j.Queue]++
	}
	if len(queues) != 3 {
		t.Fatalf("queues: %v", queues)
	}
	if queues["normal"] < queues["high"] {
		t.Error("normal should dominate the mix")
	}
}

func TestGenerateJobsDeterministic(t *testing.T) {
	a := GenerateJobs(WorkloadConfig{Jobs: 100, Seed: 9})
	b := GenerateJobs(WorkloadConfig{Jobs: 100, Seed: 9})
	for i := range a {
		if *a[i] != *b[i] {
			t.Fatal("not deterministic")
		}
	}
}

func TestEmergentWaitsAreHeavyTailedAndBackfillFavorsSmall(t *testing.T) {
	jobs := GenerateJobs(WorkloadConfig{Jobs: 15000, Seed: 7})
	res, err := Run(DefaultMachine(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backfilled == 0 {
		t.Fatal("no backfilling on a contended machine")
	}
	if res.Utilization < 0.3 || res.Utilization > 1 {
		t.Errorf("utilization = %g", res.Utilization)
	}
	tr := res.Trace("sim", "normal")
	s := tr.Summary()
	if s.Median >= s.Mean {
		t.Errorf("emergent waits not heavy-tailed: median %g mean %g", s.Median, s.Mean)
	}
	// The Section 6.2 folklore: small jobs wait less than large ones.
	small := stats.Mean(tr.FilterProcs(trace.Procs1to4).Waits())
	large := stats.Mean(tr.FilterProcs(trace.Procs17to64).Waits())
	if small >= large {
		t.Errorf("backfill should favor small jobs: small mean %g, large %g", small, large)
	}
}

func TestReservationNeverStarves(t *testing.T) {
	// With backfill on and a stream of small jobs, the big head job still
	// runs (EASY guarantees no starvation via the reservation).
	jobs := []*Job{
		{ID: 0, Queue: "q", Procs: 4, Submit: 0, Runtime: 50, Estimate: 50},
		{ID: 1, Queue: "q", Procs: 4, Submit: 1, Runtime: 50, Estimate: 50},
	}
	for i := 2; i < 40; i++ {
		jobs = append(jobs, &Job{ID: i, Queue: "q", Procs: 1, Submit: int64(i), Runtime: 1000, Estimate: 1000})
	}
	if _, err := Run(oneQueue(4, true), jobs); err != nil {
		t.Fatal(err)
	}
	if jobs[1].Start() != 50 {
		t.Errorf("big job delayed to %d by backfilled small jobs", jobs[1].Start())
	}
}
