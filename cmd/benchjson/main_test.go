package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBench(t *testing.T, name string, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// The -compare edge cases: benchmarks that exist on only one side of the
// diff, and zero ns/op baselines, must never gate the build (there is no
// ratio to judge) and must never crash the comparison.

func TestCompareMissingFromNew(t *testing.T) {
	// A guarded benchmark disappearing from new.json is reported as
	// removed, not a regression: renames and bench refactors happen, and
	// the allowlist is the thing to update when they do.
	oldPath := writeBench(t, "old.json", `[
		{"name": "BenchmarkServiceObserve/nowal", "cpus": 1, "iterations": 100, "ns_per_op": 500}
	]`)
	newPath := writeBench(t, "new.json", `[]`)
	if code := runCompare(oldPath, newPath, 1.25); code != 0 {
		t.Errorf("benchmark missing from new.json: exit %d, want 0", code)
	}
}

func TestCompareMissingFromOld(t *testing.T) {
	// A benchmark new in new.json has no baseline: reported as new, never
	// a failure, even when guarded and however slow.
	oldPath := writeBench(t, "old.json", `[]`)
	newPath := writeBench(t, "new.json", `[
		{"name": "BenchmarkServiceObserve/nowal", "cpus": 1, "iterations": 100, "ns_per_op": 1e12}
	]`)
	if code := runCompare(oldPath, newPath, 1.25); code != 0 {
		t.Errorf("benchmark missing from old.json: exit %d, want 0", code)
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	// ns_per_op == 0 in the baseline (truncated run, hand-edited file)
	// would make every ratio infinite; it must be treated like a missing
	// baseline instead of dividing by zero into a failure.
	oldPath := writeBench(t, "old.json", `[
		{"name": "BenchmarkServiceObserve/nowal", "cpus": 1, "iterations": 100, "ns_per_op": 0}
	]`)
	newPath := writeBench(t, "new.json", `[
		{"name": "BenchmarkServiceObserve/nowal", "cpus": 1, "iterations": 100, "ns_per_op": 800}
	]`)
	if code := runCompare(oldPath, newPath, 1.25); code != 0 {
		t.Errorf("zero baseline: exit %d, want 0", code)
	}
}

func TestCompareGuardedRegressionStillFails(t *testing.T) {
	// Sanity check the other direction: with both sides present the guard
	// still trips past the threshold…
	oldPath := writeBench(t, "old.json", `[
		{"name": "BenchmarkServiceObserve/nowal", "cpus": 1, "iterations": 100, "ns_per_op": 500},
		{"name": "BenchmarkOneShotScale", "cpus": 1, "iterations": 1, "ns_per_op": 500}
	]`)
	newPath := writeBench(t, "new.json", `[
		{"name": "BenchmarkServiceObserve/nowal", "cpus": 1, "iterations": 100, "ns_per_op": 1000},
		{"name": "BenchmarkOneShotScale", "cpus": 1, "iterations": 1, "ns_per_op": 50000}
	]`)
	if code := runCompare(oldPath, newPath, 1.25); code != 1 {
		t.Errorf("guarded 2x regression: exit %d, want 1", code)
	}
	// …and a within-threshold change passes, with the advisory (non
	// allowlisted) benchmark free to regress arbitrarily.
	okPath := writeBench(t, "ok.json", `[
		{"name": "BenchmarkServiceObserve/nowal", "cpus": 1, "iterations": 100, "ns_per_op": 550},
		{"name": "BenchmarkOneShotScale", "cpus": 1, "iterations": 1, "ns_per_op": 50000}
	]`)
	if code := runCompare(oldPath, okPath, 1.25); code != 0 {
		t.Errorf("within-threshold change: exit %d, want 0", code)
	}
}

func TestCompareUnreadableFile(t *testing.T) {
	oldPath := writeBench(t, "old.json", `[]`)
	if code := runCompare(oldPath, filepath.Join(t.TempDir(), "absent.json"), 1.25); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
	badPath := writeBench(t, "bad.json", `{not json`)
	if code := runCompare(oldPath, badPath, 1.25); code != 2 {
		t.Errorf("malformed file: exit %d, want 2", code)
	}
}

func TestCollectKeepsFastestRepetition(t *testing.T) {
	// A -count=N run emits the same benchmark several times; the JSON
	// artifact keeps the fastest repetition (lowest ns/op), with its
	// custom metrics, so one bad scheduling rhythm on a small box cannot
	// poison the recorded number. Distinct GOMAXPROCS stay separate.
	in := strings.NewReader(`goos: linux
BenchmarkShip/f=8   1000   700 ns/op   9000000 records/s
BenchmarkShip/f=8   1000   615 ns/op   13000000 records/s
BenchmarkShip/f=8   1000   650 ns/op   12000000 records/s
BenchmarkShip/f=8-4   1000   900 ns/op   8000000 records/s
`)
	var passthru strings.Builder
	rs, err := collect(in, &passthru)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("got %d results, want 2: %+v", len(rs), rs)
	}
	if rs[0].NsPerOp != 615 || rs[0].Metrics["records/s"] != 13000000 {
		t.Errorf("kept repetition %+v, want the 615 ns/op one", rs[0])
	}
	if rs[1].Cpus != 4 || rs[1].NsPerOp != 900 {
		t.Errorf("GOMAXPROCS=4 run merged away: %+v", rs[1])
	}
	if passthru.String() != "goos: linux\n" {
		t.Errorf("passthru = %q", passthru.String())
	}
}

func TestParseBenchLine(t *testing.T) {
	r, ok := parse("BenchmarkServiceObserve/nowal-8   6954   419488 ns/op   238386 records/s   34 allocs/op")
	if !ok {
		t.Fatal("benchmark line did not parse")
	}
	if r.Name != "BenchmarkServiceObserve/nowal" || r.Cpus != 8 ||
		r.Iterations != 6954 || r.NsPerOp != 419488 || r.AllocsPerOp != 34 {
		t.Errorf("parsed %+v", r)
	}
	if r.Metrics["records/s"] != 238386 {
		t.Errorf("custom metric lost: %+v", r.Metrics)
	}
	if _, ok := parse("ok  \trepro/qbets\t0.585s"); ok {
		t.Error("non-benchmark line parsed as a result")
	}
}

func TestCompareGatesPredictionLatencyAndRecoverWAL(t *testing.T) {
	// Both joined the allowlist together: each must fail the comparison on
	// its own past the threshold, at the CPU count it runs at, and pass
	// within it.
	oldPath := writeBench(t, "old.json", `[
		{"name": "BenchmarkPredictionLatency", "cpus": 1, "iterations": 100, "ns_per_op": 600},
		{"name": "BenchmarkRecoverWAL", "cpus": 2, "iterations": 5, "ns_per_op": 5e8, "metrics": {"records/s": 2000000}}
	]`)
	for _, tc := range []struct {
		name, doc string
		want      int
	}{
		{"prediction latency regressed", `[
			{"name": "BenchmarkPredictionLatency", "cpus": 1, "iterations": 100, "ns_per_op": 800},
			{"name": "BenchmarkRecoverWAL", "cpus": 2, "iterations": 5, "ns_per_op": 5e8}
		]`, 1},
		{"recovery regressed", `[
			{"name": "BenchmarkPredictionLatency", "cpus": 1, "iterations": 100, "ns_per_op": 600},
			{"name": "BenchmarkRecoverWAL", "cpus": 2, "iterations": 5, "ns_per_op": 7e8}
		]`, 1},
		{"both within threshold", `[
			{"name": "BenchmarkPredictionLatency", "cpus": 1, "iterations": 100, "ns_per_op": 700},
			{"name": "BenchmarkRecoverWAL", "cpus": 2, "iterations": 5, "ns_per_op": 6e8}
		]`, 0},
	} {
		newPath := writeBench(t, "new.json", tc.doc)
		if code := runCompare(oldPath, newPath, 1.25); code != tc.want {
			t.Errorf("%s: exit %d, want %d", tc.name, code, tc.want)
		}
	}
	for _, name := range []string{"BenchmarkPredictionLatency", "BenchmarkRecoverWAL"} {
		if !guarded(name) {
			t.Errorf("%s is not on the gated allowlist", name)
		}
	}
}

func TestCompareGatesCodecAndKernel(t *testing.T) {
	// The codec and the warm kernel replay run at -cpu 1 and are gated
	// each on its own; the single-shot scheduler run stays advisory.
	oldPath := writeBench(t, "old.json", `[
		{"name": "BenchmarkBMBPCodec/marshal", "cpus": 1, "iterations": 100, "ns_per_op": 600, "allocs_per_op": 1},
		{"name": "BenchmarkBMBPCodec/unmarshal", "cpus": 1, "iterations": 100, "ns_per_op": 2000},
		{"name": "BenchmarkSchedulerRun/kernel", "cpus": 1, "iterations": 100, "ns_per_op": 1e6},
		{"name": "BenchmarkSchedulerRun/singleshot", "cpus": 1, "iterations": 100, "ns_per_op": 1e6}
	]`)
	for _, tc := range []struct {
		name, doc string
		want      int
	}{
		{"marshal regressed", `[
			{"name": "BenchmarkBMBPCodec/marshal", "cpus": 1, "iterations": 100, "ns_per_op": 800},
			{"name": "BenchmarkBMBPCodec/unmarshal", "cpus": 1, "iterations": 100, "ns_per_op": 2000},
			{"name": "BenchmarkSchedulerRun/kernel", "cpus": 1, "iterations": 100, "ns_per_op": 1e6}
		]`, 1},
		{"unmarshal regressed", `[
			{"name": "BenchmarkBMBPCodec/marshal", "cpus": 1, "iterations": 100, "ns_per_op": 600},
			{"name": "BenchmarkBMBPCodec/unmarshal", "cpus": 1, "iterations": 100, "ns_per_op": 3000},
			{"name": "BenchmarkSchedulerRun/kernel", "cpus": 1, "iterations": 100, "ns_per_op": 1e6}
		]`, 1},
		{"kernel regressed", `[
			{"name": "BenchmarkBMBPCodec/marshal", "cpus": 1, "iterations": 100, "ns_per_op": 600},
			{"name": "BenchmarkBMBPCodec/unmarshal", "cpus": 1, "iterations": 100, "ns_per_op": 2000},
			{"name": "BenchmarkSchedulerRun/kernel", "cpus": 1, "iterations": 100, "ns_per_op": 1.4e6}
		]`, 1},
		{"single-shot slower, advisory", `[
			{"name": "BenchmarkBMBPCodec/marshal", "cpus": 1, "iterations": 100, "ns_per_op": 700},
			{"name": "BenchmarkBMBPCodec/unmarshal", "cpus": 1, "iterations": 100, "ns_per_op": 2400},
			{"name": "BenchmarkSchedulerRun/kernel", "cpus": 1, "iterations": 100, "ns_per_op": 1.2e6},
			{"name": "BenchmarkSchedulerRun/singleshot", "cpus": 1, "iterations": 100, "ns_per_op": 5e6}
		]`, 0},
	} {
		newPath := writeBench(t, "new.json", tc.doc)
		if code := runCompare(oldPath, newPath, 1.25); code != tc.want {
			t.Errorf("%s: exit %d, want %d", tc.name, code, tc.want)
		}
	}
	if guarded("BenchmarkSchedulerRun/singleshot") {
		t.Error("BenchmarkSchedulerRun/singleshot is gated; it allocates a kernel per run and is advisory")
	}
}
