// Jobsize: the paper's Section 6.2 scenario. Users believe small jobs
// backfill sooner than large ones — but the only way to know *today's*
// policy is to predict per processor-count category. This example runs a
// qbets.Service split by category over a workload whose priorities flip
// mid-stream (the surprise the paper's Figure 2 documents) and shows the
// forecasts tracking the flip.
//
// The same separation can be learned instead of configured, clustering
// job shapes rather than guessing processor ranges; `qbets-eval -autocat
// datastar/normal` compares fixed and learned categories on a paper queue.
package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"

	"repro/qbets"
)

func main() {
	run(os.Stdout)
}

func run(out io.Writer) {
	svc := qbets.NewService(true /* split by processor category */)
	rng := rand.New(rand.NewSource(3))
	procCounts := []int{2, 8, 32, 128}

	// Phase 1: conventional policy — larger requests wait longer.
	offsets := map[int]float64{2: 0, 8: 0.5, 32: 1.2, 128: 1.8}
	feed := func(jobs int) {
		for i := 0; i < jobs; i++ {
			for _, procs := range procCounts {
				wait := math.Round(math.Exp(math.Log(600) + offsets[procs] + rng.NormFloat64()))
				svc.Observe("normal", procs, wait)
			}
		}
	}
	report := func(phase string) {
		fmt.Fprintf(out, "%s:\n", phase)
		for _, procs := range procCounts {
			bound, ok := svc.Forecast("normal", procs)
			if !ok {
				fmt.Fprintf(out, "  %4d procs (%5s): insufficient history\n", procs, qbets.CategoryOf(procs).Label())
				continue
			}
			fmt.Fprintf(out, "  %4d procs (%5s): 95%%-confidence worst case %8.0f s\n",
				procs, qbets.CategoryOf(procs).Label(), bound)
		}
	}

	feed(2000)
	report("conventional policy (small jobs favored)")

	// Phase 2: administrators flip the policy before a big demo — large
	// jobs now drain first. The forecasters detect the change points and
	// re-learn.
	offsets = map[int]float64{2: 1.5, 8: 1.0, 32: 0.2, 128: 0}
	feed(3000)
	report("\nafter the flip (large jobs favored)")

	// A user about to submit a 32-processor job sees the advantage
	// directly, just as the paper's Figure 2 user would have.
	small, _ := svc.Forecast("normal", 2)
	large, _ := svc.Forecast("normal", 32)
	fmt.Fprintf(out, "\nsubmitting wide is now predicted ~%.1fx faster in the worst case\n", small/large)
}
