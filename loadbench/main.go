// Command loadbench is the repository's end-to-end benchmark. It builds
// the qbets serving stack in-process with the public constructors and
// qbets-serve's defaults, drives it over loopback with closed-loop
// callers (one connection each, as many as the machine has CPUs, at
// least two), checks the answers, and prints one JSON result line.
//
//	bash loadbench/run.sh --workload forecast --seed 1 --seconds 40 --trace 0
//	bash loadbench/run.sh --workload all --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// measures half the time untraced and half with probes on the public
// seams, and reports the per-layer metrics and the tracing overhead.
// See loadbench/README.md for the workloads and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/qbets"
)

// bench is one run's state, shared by the harness and the workload.
type bench struct {
	seed  int64
	rng   *rand.Rand
	trace bool
	work  string

	streams   []*stream
	cursors   []atomic.Int64 // records sent per stream, preload included
	urls      [][]string     // per node, per stream forecast GET URL
	walDir    string
	preloaded uint64
	acked     int64 // observe records acknowledged, all phases

	st                *stack
	streamsAfterSetup [2]int

	cov  *coverage
	viol violations

	// plan workload
	planStream int
	planBound  float64
}

// warmup runs before any measured phase, so connections are open and
// lazy state is built before timing.
const warmup = time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: ingest, forecast, plan, or all to run the three in turn")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 40, "measured seconds")
		traced  = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
		workDir = flag.String("work", ".bench_build/loadbench", "directory for the WAL, epochs and span files")
	)
	flag.Parse()
	var chosen []*workload
	for _, w := range workloads {
		if w.name == *name || *name == "all" {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: loadbench --workload ingest|forecast|plan|all --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	code := 0
	for _, wl := range chosen {
		res, err := run(wl, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *workDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadbench: %s: %v\n", wl.name, err)
			code = 1
			continue
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadbench: %v\n", err)
			code = 1
			continue
		}
		fmt.Println(string(line))
		if !res.Correct {
			code = 1
		}
	}
	os.Exit(code)
}

func run(wl *workload, seed int64, d time.Duration, traced bool, workDir string) (*result, error) {
	b := &bench{
		seed:  seed,
		rng:   rand.New(rand.NewSource(seed)),
		trace: traced,
		cov:   newCoverage(),
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(workDir, wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	b.work = work

	logf("%s: %s", wl.name, wl.why)
	t0 := time.Now()
	if err := wl.prepare(b); err != nil {
		return nil, fmt.Errorf("preparing inputs: %w", err)
	}
	logf("%s: inputs for %d streams ready in %.2fs", wl.name, len(b.streams), time.Since(t0).Seconds())
	setups := make([]float64, 0, wl.setups)
	var heap uint64
	for i := 0; i < wl.setups; i++ {
		if b.st != nil {
			b.st.close()
			b.st = nil
		}
		before := liveHeap()
		start := time.Now()
		st, err := wl.start(b, i)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		logf("%s: set-up %d took %.3fs", wl.name, i, setups[i])
		b.st = st
		if after := liveHeap(); after > before {
			heap = after - before
		}
	}
	defer b.st.close()
	st := b.st
	nodes := []*qbets.Service{st.leader.srv.Service()}
	if st.follower != nil {
		nodes = append(nodes, st.follower.srv.Service())
	}
	for i, svc := range nodes {
		b.streamsAfterSetup[i] = svc.NumStreams()
	}
	b.cacheURLs()

	n := runtime.NumCPU()
	if n < 2 {
		n = 2
	}
	var dials atomic.Int64
	clients := make([]*client, n)
	for i := range clients {
		clients[i] = newClient(&dials, st.tr)
	}
	defer func() {
		for _, c := range clients {
			c.close()
		}
	}()
	callers := wl.callers(b, n)

	warm := runPhase(callers, clients, warmup)
	b.acked += warm.records
	if st.follow != nil {
		// Let the follower finish re-receiving the preloaded log (see
		// startReplicated) before anything is timed.
		start := time.Now()
		if err := st.catchUp(b.preloaded, 120*time.Second); err != nil {
			return nil, err
		}
		logf("%s: follower caught up in %.2fs after warm-up; leader shipped %d records", wl.name, time.Since(start).Seconds(), st.lead.RecordsShipped())
	}

	rep := &report{wl: wl, b: b, setups: setups, heap: heap}
	if !traced {
		rep.measure(callers, clients, d)
		b.acked += rep.main.records
	} else {
		half := d / 2
		rep.measure(callers, clients, half)
		b.acked += rep.main.records
		m0, err := scrape(st.leader.url)
		if err != nil {
			return nil, err
		}
		rt0 := readRuntime()
		st.tr.on.Store(true)
		rep.traced = runPhase(callers, clients, half)
		st.tr.on.Store(false)
		rep.tracedRT = readRuntime().sub(rt0)
		rep.tracedDur = half
		if st.follow != nil {
			rep.lagEnd = st.follow.Lag()
		}
		b.acked += rep.traced.records
		rep.dials = dials.Load()
		// Handlers append their span after the reply is written; let the
		// last ones land before counting.
		time.Sleep(50 * time.Millisecond)
		m1, err := scrape(st.leader.url)
		if err != nil {
			return nil, err
		}
		rep.scrapeDelta = m1.sub(m0)
	}

	logf("%s: measured %d requests; checking", wl.name, rep.main.attempted+rep.traced.attempted)
	if err := wl.check(b); err != nil {
		return nil, fmt.Errorf("checking outputs: %w", err)
	}
	if err := b.checkCounts(rep); err != nil {
		return nil, err
	}
	res := &result{
		Attempted: rep.main.attempted + rep.traced.attempted,
		Failed:    rep.main.failed + rep.traced.failed,
		Metrics:   make(map[string]metric),
	}
	if traced {
		if err := rep.layers(res.Metrics); err != nil {
			return nil, err
		}
		path := filepath.Join(workDir, "spans-"+wl.name+".tsv")
		if err := st.tr.writeSpans(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	} else if err := rep.endToEnd(res.Metrics); err != nil {
		return nil, err
	}
	rep.print(os.Stdout)
	res.Correct = b.viol.count() == 0
	for _, v := range b.viol.first {
		fmt.Fprintf(os.Stderr, "loadbench: %s: check failed: %s\n", wl.name, v)
	}
	return res, nil
}

// checkCounts compares what the probes and the callers counted with the
// program's own counters.
func (b *bench) checkCounts(rep *report) error {
	st := b.st
	m, err := scrape(st.leader.url)
	if err != nil {
		return err
	}
	acked := uint64(b.acked)
	if got := uint64(m["qbets_observations_total"]); got != acked {
		b.viol.addf("qbets_observations_total %d, acknowledged %d", got, acked)
	}
	if st.wal != nil {
		if got := uint64(m["qbets_wal_appends_total"]); got != acked {
			b.viol.addf("qbets_wal_appends_total %d, acknowledged %d", got, acked)
		}
	}
	if st.tr == nil {
		return nil
	}
	if st.lead != nil {
		if got, want := st.tr.appliedRecords.Load(), st.lead.RecordsShipped(); got != want {
			b.viol.addf("follower probe applied %d records, leader RecordsShipped %d", got, want)
		}
	}
	var served [nSpanKinds]int
	st.tr.mu.Lock()
	for _, s := range st.tr.spans {
		served[s.kind]++
	}
	st.tr.mu.Unlock()
	lat := &rep.traced.lat
	for _, c := range []struct {
		name       string
		kind, sent int
	}{
		{"observe", spObserve, len(lat[opObserve])},
		{"forecast", spForecast, len(lat[opForecast])},
		{"batch forecast", spForecastBatch, len(lat[opForecastBatch])},
		{"what-if", spWhatif, len(lat[opWhatif]) + len(lat[opSizing])},
	} {
		if served[c.kind] != c.sent {
			b.viol.addf("server probe saw %d %s requests, callers completed %d", served[c.kind], c.name, c.sent)
		}
	}
	return nil
}

// logf reports progress on standard error; standard output carries the
// results.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadbench: "+format+"\n", args...)
}

// liveHeap returns the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
