// Command benchjson converts `go test -bench` output on stdin into a JSON
// array on stdout, one entry per benchmark. Standard metrics (ns/op, B/op,
// allocs/op) get their own fields; any custom metrics reported via
// b.ReportMetric (e.g. records/s) land in "metrics". When the same
// benchmark appears more than once (a `-count=N` run), the fastest
// repetition — lowest ns/op — is kept: on a small box a single repetition
// can land in a bad scheduling rhythm, and best-of-N is the standard way
// to record the code's capability rather than the scheduler's mood. Lines
// that are not benchmark results pass through to stderr so the harness log
// keeps the full context.
//
// With -compare it instead diffs two such JSON files:
//
//	benchjson -compare BENCH_PR5.json BENCH_PR6.json
//
// printing a per-benchmark delta table and exiting non-zero if any
// benchmark in the gated allowlist regressed by more than -threshold
// (default 1.25, i.e. >25% slower ns/op). Benchmarks outside the allowlist
// are reported but never fail the run — scale and one-shot benches are too
// noisy to gate on.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

type result struct {
	Name        string             `json:"name"`
	Cpus        int                `json:"cpus,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BPerOp      float64            `json:"b_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// guardedPrefixes is the gated allowlist: the steady-state ingest
// benchmarks, prediction latency, WAL recovery, the predictor state codec
// and the warm what-if kernel, whose ns/op is stable enough to gate on. One-shot sized runs (scale benches) and read benches
// with sub-20ns baselines stay advisory.
var guardedPrefixes = []string{
	"BenchmarkServiceObserve/nowal",
	"BenchmarkServiceObserveBatch/nowal",
	// The wal-interval variants are recorded but advisory: interval-synced
	// WAL appends are buffered file writes, so their ns/op tracks the
	// box's write latency — the same binary has read 353 ns and 690 ns on
	// size1 hours apart with no code change. The nowal variants above are
	// the gated pure-code ingest paths.
	"BenchmarkServerObserveBatch/nowal",
	// The replication shipping bench became a fan-out matrix in PR 10
	// (BenchmarkShipThroughput -> BenchmarkShipThroughput/followers=N);
	// against a pre-PR-10 baseline the old name reports as removed and
	// the matrix as new, which is intentional. The single-follower cell
	// is the steady one, so it is the gated successor; higher fan-outs
	// stay advisory (they saturate a small CI box and swing with it).
	"BenchmarkShipThroughput/followers=1",
	// The paper's §5 prediction-cost claim: one observe plus refit plus
	// bound. It drifted 586 -> 647 ns across PRs 6-10 while ungated.
	"BenchmarkPredictionLatency",
	// A restart's log replay (records/s); restart time is time without
	// service, so a slower replay is a regression like a slower ingest.
	"BenchmarkRecoverWAL",
	// The predictor state codec: every eviction, rehydration, state save
	// and replica snapshot chunk encodes or decodes each stream through it.
	"BenchmarkBMBPCodec",
	// A warm what-if kernel replay (Fill plus Run on a reused kernel), the
	// per-scenario unit of every what-if grid. The single-shot variant
	// allocates a fresh kernel per run and stays advisory.
	"BenchmarkSchedulerRun/kernel",
}

func main() {
	compare := flag.Bool("compare", false, "compare two benchjson files (old new) instead of converting stdin")
	threshold := flag.Float64("threshold", 1.25, "with -compare: max allowed new/old ns/op ratio for allowlisted benchmarks")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -compare old.json new.json")
			os.Exit(2)
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), *threshold))
	}

	results, err := collect(os.Stdin, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: encode:", err)
		os.Exit(1)
	}
}

// benchKey identifies one logical benchmark across files: same name, same
// GOMAXPROCS.
type benchKey struct {
	name string
	cpus int
}

// collect parses benchmark result lines from r, echoing non-result lines
// to passthru. Repeated results for the same benchmark (a `-count=N` run)
// collapse to the fastest repetition.
func collect(r io.Reader, passthru io.Writer) ([]result, error) {
	var results []result
	index := make(map[benchKey]int)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		res, ok := parse(line)
		if !ok {
			fmt.Fprintln(passthru, line)
			continue
		}
		k := benchKey{res.Name, res.Cpus}
		if i, seen := index[k]; seen {
			if res.NsPerOp < results[i].NsPerOp {
				results[i] = res
			}
			continue
		}
		index[k] = len(results)
		results = append(results, res)
	}
	return results, sc.Err()
}

func loadResults(path string) (map[benchKey]result, error) {
	doc, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []result
	if err := json.Unmarshal(doc, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m := make(map[benchKey]result, len(rs))
	for _, r := range rs {
		m[benchKey{r.Name, r.Cpus}] = r
	}
	return m, nil
}

func guarded(name string) bool {
	for _, p := range guardedPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// runCompare prints the delta table and returns the process exit code: 1
// if an allowlisted benchmark regressed past the threshold, else 0.
func runCompare(oldPath, newPath string, threshold float64) int {
	oldR, err := loadResults(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: ", err)
		return 2
	}
	newR, err := loadResults(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: ", err)
		return 2
	}
	keys := make([]benchKey, 0, len(newR))
	for k := range newR {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].cpus < keys[j].cpus
	})

	fmt.Printf("%-64s %12s %12s %8s  %s\n", "benchmark", "old ns/op", "new ns/op", "ratio", "")
	failed := 0
	for _, k := range keys {
		n := newR[k]
		o, ok := oldR[k]
		label := k.name
		if k.cpus > 1 {
			label = fmt.Sprintf("%s-%d", k.name, k.cpus)
		}
		if !ok || o.NsPerOp == 0 {
			fmt.Printf("%-64s %12s %12.1f %8s  new\n", label, "-", n.NsPerOp, "-")
			continue
		}
		ratio := n.NsPerOp / o.NsPerOp
		note := ""
		if guarded(k.name) {
			note = "guarded"
			if ratio > threshold {
				note = fmt.Sprintf("REGRESSED (> %.2fx)", threshold)
				failed++
			}
		}
		fmt.Printf("%-64s %12.1f %12.1f %7.2fx  %s\n", label, o.NsPerOp, n.NsPerOp, ratio, note)
	}
	for k := range oldR {
		if _, ok := newR[k]; !ok {
			fmt.Printf("%-64s %12.1f %12s %8s  removed\n", k.name, oldR[k].NsPerOp, "-", "-")
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d allowlisted benchmark(s) regressed more than %.2fx\n", failed, threshold)
		return 1
	}
	return 0
}

// parse decodes one benchmark result line:
//
//	BenchmarkFoo/bar-8   6954   419488 ns/op   238386 records/s   34 allocs/op
//
// i.e. a name, an iteration count, then (value, unit) pairs.
func parse(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	name, cpus := fields[0], 1
	// go test suffixes the name with "-GOMAXPROCS" when running at more
	// than one CPU (e.g. from -cpu 1,4); split it out so the same logical
	// benchmark keeps one name across CPU counts. Sub-benchmark names in
	// this repo avoid trailing "-<digits>" segments, keeping this split
	// unambiguous.
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil && n > 0 {
			name, cpus = name[:i], n
		}
	}
	r := result{Name: name, Cpus: cpus, Iterations: iters}
	sawNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = val
			sawNs = true
		case "B/op":
			r.BPerOp = val
		case "allocs/op":
			r.AllocsPerOp = val
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = val
		}
	}
	return r, sawNs
}
