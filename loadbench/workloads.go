package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"repro/qbets"
)

// workload is one traffic mix over one topology.
type workload struct {
	name, why string
	// setups is how many times a run builds the stack; setup_s is their
	// median and the last one serves the load.
	setups int
	// prepare makes the inputs (not timed); start builds one stack (timed).
	prepare func(b *bench) error
	start   func(b *bench, i int) (*stack, error)
	callers func(b *bench, n int) []caller
	// primary is the request kind whose latency is p50_ms and p90_ms,
	// and items the work that items_per_s counts.
	primary int
	items   func(t *tally) int64
	// check runs after the load stopped and replication drained.
	check func(b *bench) error
}

var workloads = []*workload{ingestWorkload, forecastWorkload, planWorkload}

// Sizes. The preload is fixed, so set-up does not grow with run length.
const (
	ingestStreams   = 2000
	ingestPreload   = 200
	forecastStreams = 10000
	forecastPreload = 100
	forecastCap     = 2500
	planStreams     = 200
	planPreload     = 200
)

// --- shared request encoding ---------------------------------------------

// shapeJSON renders {"queue":…,"procs":… and leaves the object open for
// more fields. Queue names are generated from letters, digits, '.', '/'
// and '-', so they need no escaping.
func shapeJSON(dst []byte, queue string, procs int) []byte {
	dst = append(dst, `{"queue":"`...)
	dst = append(dst, queue...)
	dst = append(dst, `","procs":`...)
	return strconv.AppendInt(dst, int64(procs), 10)
}

func recordJSON(dst []byte, r qbets.ObserveRecord) []byte {
	dst = shapeJSON(dst, r.Queue, r.Procs)
	dst = append(dst, `,"wait_seconds":`...)
	dst = strconv.AppendFloat(dst, r.WaitSeconds, 'g', -1, 64)
	return append(dst, '}')
}

func forecastURL(base string, s *stream) string {
	return base + "/v1/forecast?queue=" + url.QueryEscape(s.queue) + "&procs=" + strconv.Itoa(s.procs)
}

// observeNext sends stream si's next record as a single-object observe.
func (b *bench) observeNext(c *client, base string, si int) {
	k := int(b.cursors[si].Add(1) - 1)
	body := recordJSON(nil, b.streams[si].record(k))
	if code := c.do(opObserve, http.MethodPost, base+"/v1/observe", body); code == http.StatusNoContent {
		c.t.records++
	} else if code != 0 {
		c.t.failed++
	}
}

// readOne sends a forecast GET for stream si (or, when si < 0, for an
// unknown stream) and scores the bound it serves.
func (b *bench) readOne(c *client, node int, base string, si int) {
	if si < 0 {
		code := c.do(opForecast, http.MethodGet, base+"/v1/forecast?queue=nosuch."+strconv.Itoa(-si)+"&procs=1", nil)
		switch code {
		case http.StatusNotFound:
			c.t.shapes++
		case 0:
		default:
			c.t.failed++
			b.viol.addf("unknown stream answered %d, want 404", code)
		}
		return
	}
	pos := int(b.cursors[si].Load())
	code := c.do(opForecast, http.MethodGet, b.urls[node][si], nil)
	if code != http.StatusOK {
		if code != 0 {
			c.t.failed++
		}
		return
	}
	c.t.shapes++
	var fr qbets.ForecastResponse
	if err := json.Unmarshal(c.body.Bytes(), &fr); err != nil {
		b.viol.addf("forecast reply: %v", err)
		return
	}
	if fr.OK {
		b.cov.score(quote{node, si, pos}, fr.BoundSeconds, b.streams[si].wait(pos))
	}
}

// readBatch sends a POST /v1/forecast for the given streams (negative
// entries are unknown streams) and scores every served bound.
func (b *bench) readBatch(c *client, node int, base string, picks []int) {
	body := []byte{'['}
	pos := make([]int, len(picks))
	for i, si := range picks {
		if i > 0 {
			body = append(body, ',')
		}
		if si < 0 {
			body = shapeJSON(body, "nosuch."+strconv.Itoa(-si), 1)
		} else {
			pos[i] = int(b.cursors[si].Load())
			body = shapeJSON(body, b.streams[si].queue, b.streams[si].procs)
		}
		body = append(body, '}')
	}
	body = append(body, ']')
	code := c.do(opForecastBatch, http.MethodPost, base+"/v1/forecast", body)
	if code != http.StatusOK {
		if code != 0 {
			c.t.failed++
		}
		return
	}
	var frs []qbets.ForecastResponse
	if err := json.Unmarshal(c.body.Bytes(), &frs); err != nil || len(frs) != len(picks) {
		b.viol.addf("batch forecast reply: %d answers for %d shapes (%v)", len(frs), len(picks), err)
		return
	}
	c.t.shapes += int64(len(picks))
	for i, si := range picks {
		fr := frs[i]
		if si < 0 {
			if fr.OK {
				b.viol.addf("unknown stream answered ok:true in a batch")
			}
			continue
		}
		if fr.OK {
			b.cov.score(quote{node, si, pos[i]}, fr.BoundSeconds, b.streams[si].wait(pos[i]))
		}
	}
}

func (b *bench) cacheURLs() {
	bases := []string{b.st.leader.url}
	if b.st.follower != nil {
		bases = append(bases, b.st.follower.url)
	}
	b.urls = make([][]string, len(bases))
	for n, base := range bases {
		b.urls[n] = make([]string, len(b.streams))
		for i, s := range b.streams {
			b.urls[n][i] = forecastURL(base, s)
		}
	}
}

// --- ingest ----------------------------------------------------------------

var ingestWorkload = &workload{
	name:    "ingest",
	why:     "write path alone: observe batches of 1/10/100 through WAL append, refit and follower apply on 2000 warm streams; reads and what-if idle",
	setups:  5,
	primary: opObserve,
	items:   func(t *tally) int64 { return t.records },
	prepare: func(b *bench) error {
		return b.prepareReplicated(ingestStreams, ingestPreload)
	},
	start: func(b *bench, i int) (*stack, error) { return b.startReplicated(i) },
	callers: func(b *bench, n int) []caller {
		out := make([]caller, n)
		for i := range out {
			var own []int
			for s := i; s < len(b.streams); s += n {
				own = append(own, s)
			}
			out[i] = &feeder{b: b, own: own, rng: rand.New(rand.NewSource(b.seed*1000 + int64(i)))}
		}
		return out
	},
	check: checkIngest,
}

// feeder is a log feeder: it POSTs batches of 1, 10 or 100 records (30,
// 50 and 20 % of requests) drawn from the streams it owns, each stream's
// records in trace order.
type feeder struct {
	b    *bench
	own  []int
	rng  *rand.Rand
	body []byte
}

func (f *feeder) step(c *client) {
	size := 1
	switch u := f.rng.Float64(); {
	case u < 0.2:
		size = 100
	case u < 0.7:
		size = 10
	}
	body := append(f.body[:0], '[')
	for i := 0; i < size; i++ {
		if i > 0 {
			body = append(body, ',')
		}
		si := f.own[f.rng.Intn(len(f.own))]
		k := int(f.b.cursors[si].Add(1) - 1)
		body = recordJSON(body, f.b.streams[si].record(k))
	}
	body = append(body, ']')
	f.body = body
	code := c.do(opObserve, http.MethodPost, f.b.st.leader.url+"/v1/observe", body)
	if code == http.StatusNoContent {
		c.t.records += int64(size)
	} else if code != 0 {
		c.t.failed++
	}
}

func checkIngest(b *bench) error {
	st := b.st
	acked := uint64(b.acked)
	if err := b.drain(b.preloaded + acked); err != nil {
		return err
	}
	// The acknowledged-records checks run for every workload
	// (checkCounts); the preload must have come back from the log.
	m, err := scrape(st.leader.url)
	if err != nil {
		return err
	}
	if got := uint64(m["qbets_wal_replayed_records_total"]); got != b.preloaded {
		b.viol.addf("qbets_wal_replayed_records_total %d, preloaded %d", got, b.preloaded)
	}
	return b.compareNodes()
}

// compareNodes checks that leader and follower answer byte-identical
// forecasts for every stream.
func (b *bench) compareNodes() error {
	c := newClient(&atomic.Int64{}, nil)
	defer c.close()
	for si := range b.streams {
		var bodies [2][]byte
		for n := range bodies {
			if code := c.do(opForecast, http.MethodGet, b.urls[n][si], nil); code != http.StatusOK {
				return fmt.Errorf("comparing nodes: %s answered %d", b.streams[si].queue, code)
			}
			bodies[n] = append([]byte(nil), c.body.Bytes()...)
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			b.viol.addf("leader and follower differ on %s: %s vs %s", b.streams[si].queue, bodies[0], bodies[1])
		}
	}
	return nil
}

// --- forecast --------------------------------------------------------------

var forecastWorkload = &workload{
	name:    "forecast",
	why:     "read path: 10000 streams read Zipf(1.1) on leader and follower past a 2500-stream hydrated cap, 10 % observes through WAL and replication; set-up is WAL replay plus snapshot catch-up",
	setups:  3,
	primary: opForecast,
	items:   func(t *tally) int64 { return t.shapes },
	prepare: func(b *bench) error {
		return b.prepareReplicated(forecastStreams, forecastPreload)
	},
	start: func(b *bench, i int) (*stack, error) {
		st, err := b.startReplicated(i)
		if err != nil {
			return nil, err
		}
		// qbets-serve -max-streams applies the cap on its first lifecycle
		// pass; both nodes run with it.
		st.leader.srv.Service().EvictToCap(forecastCap)
		st.follower.srv.Service().EvictToCap(forecastCap)
		return st, nil
	},
	callers: func(b *bench, n int) []caller {
		perm := rand.New(rand.NewSource(b.seed)).Perm(len(b.streams))
		out := make([]caller, n)
		for i := range out {
			rng := rand.New(rand.NewSource(b.seed*1000 + int64(i)))
			out[i] = &reader{
				b: b, rng: rng, perm: perm, node: i % 2,
				zipf: rand.NewZipf(rng, 1.1, 1, uint64(len(b.streams)-1)),
			}
		}
		return out
	},
	check: checkForecast,
}

// reader is a metascheduler querying bounds. On the leader it sends 70 %
// GETs, 20 % batches of 32 shapes and 10 % single-record observes; on
// the follower, reads only in the same GET:batch ratio. Streams are
// drawn Zipf(1.1) over a seeded permutation; 2 % of shapes name unknown
// streams.
type reader struct {
	b     *bench
	rng   *rand.Rand
	zipf  *rand.Zipf
	perm  []int
	node  int
	picks []int
}

const (
	batchShapes  = 32
	unknownShare = 0.02
)

func (r *reader) pick() int {
	if r.rng.Float64() < unknownShare {
		return -1 - r.rng.Intn(1<<20)
	}
	return r.perm[r.zipf.Uint64()]
}

func (r *reader) step(c *client) {
	base := r.b.st.leader.url
	u := r.rng.Float64()
	if r.node == 1 {
		base = r.b.st.follower.url
		u *= 0.9 // reads only
	}
	switch {
	case u < 0.7:
		si := r.pick()
		r.b.readOne(c, r.node, base, si)
	case u < 0.9:
		r.picks = r.picks[:0]
		for i := 0; i < batchShapes; i++ {
			r.picks = append(r.picks, r.pick())
		}
		r.b.readBatch(c, r.node, base, r.picks)
	default:
		r.b.observeNext(c, base, r.perm[r.zipf.Uint64()])
	}
}

func checkForecast(b *bench) error {
	if err := b.drain(b.preloaded + uint64(b.acked)); err != nil {
		return err
	}
	for n, svc := range []*qbets.Service{b.st.leader.srv.Service(), b.st.follower.srv.Service()} {
		if got := svc.NumStreams(); got != b.streamsAfterSetup[n] {
			b.viol.addf("node %d holds %d streams after the run, %d before: a read created streams", n, got, b.streamsAfterSetup[n])
		}
	}
	b.checkCoverage()
	return nil
}

// checkCoverage fails the run when the served bounds held for fewer
// quotes than a true rate of q could explain.
func (b *bench) checkCoverage() {
	n, cov := b.cov.result()
	if n == 0 {
		b.viol.addf("no bounds were served")
		return
	}
	if floor := coverageFloor(quantile, n); cov < floor {
		b.viol.addf("coverage %.4f over %d quotes is below %.4f", cov, n, floor)
	}
}

// --- plan ------------------------------------------------------------------

var planWorkload = &workload{
	name:    "plan",
	why:     "what-if planner and scheduler kernel beside forecast reads on 200 streams, no WAL or replication; shows planning's CPU cost and its effect on reads",
	setups:  9,
	primary: opWhatif,
	items:   func(t *tally) int64 { return t.scenarios },
	prepare: func(b *bench) error {
		b.streams = makeStreams(bases(b.seed), planStreams, b.rng)
		b.initCursors(planPreload)
		b.planStream = b.rng.Intn(len(b.streams))
		return nil
	},
	start: func(b *bench, i int) (*stack, error) {
		st, err := startStandalone(b.streams, planPreload, rand.New(rand.NewSource(b.seed)), b.newTracer())
		if err != nil {
			return nil, err
		}
		// The first what-if request builds the planner.
		c := newClient(&atomic.Int64{}, nil)
		defer c.close()
		s := b.streams[b.planStream]
		body, _ := json.Marshal(qbets.WhatifRequest{Queue: s.queue, Procs: s.procs, WorkloadJobs: planJobs, Scenarios: []qbets.WhatifScenario{{}}})
		if code := c.do(opWhatif, http.MethodPost, st.leader.url+"/v1/whatif", body); code != http.StatusOK {
			st.close()
			return nil, fmt.Errorf("first what-if answered %d: %s", code, c.body.Bytes())
		}
		var resp qbets.WhatifResponse
		if err := json.Unmarshal(c.body.Bytes(), &resp); err != nil || resp.Live == nil || !resp.Live.BoundOK {
			st.close()
			return nil, fmt.Errorf("first what-if: no live bound for %s (%v)", s.queue, err)
		}
		b.planBound = resp.Live.BoundSeconds
		return st, nil
	},
	callers: func(b *bench, n int) []caller {
		out := make([]caller, n)
		for i := range out {
			rng := rand.New(rand.NewSource(b.seed*1000 + int64(i)))
			if i%2 == 0 {
				out[i] = &planner{b: b, rng: rng}
			} else {
				out[i] = &planReader{b: b, rng: rng}
			}
		}
		return out
	},
	check: checkPlan,
}

// The what-if scenario space a planner draws its grids from: arrival
// rate × machine size × policy. Conservative backfilling is left out:
// one 2000-job scenario takes about 1 s at the base rate and minutes at
// 4×, which the sizing search probes, so requests would time out.
var (
	planRates    = []float64{0.8, 1, 1.2, 1.5}
	planProcs    = []int{0, 112, 96, 64}
	planPolicies = []string{"fcfs", "easy"}
)

// A grid has 16 scenarios: 15 drawn from the shared space, which the
// planner's cache serves until the stream's generation moves, and one
// EASY scenario at an arrival rate no request asked before, which it
// must simulate. Every grid so costs about the same simulation work, and
// every sizing search runs the base policy (EASY), which keeps the
// latency distribution from splitting into modes around its median. One
// fresh scenario keeps a grid's simulation on the request's goroutine:
// the planner fans two or more misses out over the cores, and a grid's
// latency would then depend on whether the forecast caller holds the
// other one.
const (
	gridScenarios = 16
	gridFresh     = 1
)

// planJobs sizes the simulated base trace: 500 jobs, a quarter of the
// server's default, so a run answers thousands of grids.
const planJobs = 500

// planner is an operator's capacity tool: what-if grids anchored on one
// live stream; every fourth request is an SLO sizing question instead,
// with the SLO at 1.5, 2 or 3 times the stream's current bound. Stated
// relative to the live bound, the search runs the same simulations
// whatever the stream's level, so its cost does not depend on the seed.
type planner struct {
	b    *bench
	rng  *rand.Rand
	n    int
	live float64 // the anchor stream's bound in the last reply
}

var sloFactors = []float64{1.5, 2, 3}

func (p *planner) step(c *client) {
	b := p.b
	s := b.streams[b.planStream]
	req := qbets.WhatifRequest{Queue: s.queue, Procs: s.procs, WorkloadJobs: planJobs}
	if p.live == 0 {
		p.live = b.planBound
	}
	p.n++
	if p.n%4 == 0 {
		req.Sizing = &qbets.WhatifSizingRequest{
			TargetSeconds: p.live * sloFactors[p.rng.Intn(len(sloFactors))],
			Scenario:      qbets.WhatifScenario{},
		}
	} else {
		space := len(planRates) * len(planProcs) * len(planPolicies)
		for _, i := range p.rng.Perm(space)[:gridScenarios-gridFresh] {
			req.Scenarios = append(req.Scenarios, qbets.WhatifScenario{
				RateMultiplier: planRates[i%len(planRates)],
				Procs:          planProcs[i/len(planRates)%len(planProcs)],
				Policy:         planPolicies[i/(len(planRates)*len(planProcs))],
			})
		}
		for i := 0; i < gridFresh; i++ {
			req.Scenarios = append(req.Scenarios, qbets.WhatifScenario{
				RateMultiplier: 1 + 0.5*p.rng.Float64(),
				Procs:          planProcs[p.rng.Intn(len(planProcs))],
				Policy:         "easy",
			})
		}
	}
	op := opWhatif
	if req.Sizing != nil {
		op = opSizing
	}
	body, _ := json.Marshal(&req)
	code := c.do(op, http.MethodPost, b.st.leader.url+"/v1/whatif", body)
	if code != http.StatusOK {
		if code != 0 {
			c.t.failed++
		}
		return
	}
	var resp qbets.WhatifResponse
	if err := json.Unmarshal(c.body.Bytes(), &resp); err != nil {
		b.viol.addf("what-if reply: %v", err)
		return
	}
	if resp.Live != nil && resp.Live.BoundOK {
		p.live = resp.Live.BoundSeconds
	}
	c.t.scenarios += int64(len(resp.Scenarios))
	if resp.Sizing != nil {
		c.t.scenarios += int64(resp.Sizing.Evaluations)
		c.t.sizingEvals += int64(resp.Sizing.Evaluations)
	}
	b.checkWhatif(&req, &resp)
}

// checkWhatif validates one what-if answer: the requested number of
// scenarios, finite positive calibrated bounds, and a sizing rate inside
// the search bracket.
func (b *bench) checkWhatif(req *qbets.WhatifRequest, resp *qbets.WhatifResponse) {
	if len(resp.Scenarios) != len(req.Scenarios) {
		b.viol.addf("what-if answered %d scenarios for %d", len(resp.Scenarios), len(req.Scenarios))
	}
	for _, sc := range resp.Scenarios {
		if sc.Error != "" {
			b.viol.addf("what-if scenario failed: %s", sc.Error)
		}
		if sc.BoundOK && !(sc.CalibratedBoundSeconds > 0 && !math.IsInf(sc.CalibratedBoundSeconds, 0)) {
			b.viol.addf("calibrated bound %v is not finite and positive", sc.CalibratedBoundSeconds)
		}
	}
	if z := resp.Sizing; z != nil && z.OK && !(z.MaxRateMultiplier >= 1.0/8 && z.MaxRateMultiplier <= 8) {
		b.viol.addf("sizing rate %v outside [1/8, 8]", z.MaxRateMultiplier)
	}
}

// planReader queries forecasts on the site's streams and, on 5 % of its
// requests, observes the queried stream's next record — which moves the
// stream generation and invalidates the what-if cache when it hits the
// planned stream.
type planReader struct {
	b   *bench
	rng *rand.Rand
}

func (r *planReader) step(c *client) {
	si := r.rng.Intn(len(r.b.streams))
	if r.rng.Float64() < 0.05 {
		r.b.observeNext(c, r.b.st.leader.url, si)
		return
	}
	r.b.readOne(c, 0, r.b.st.leader.url, si)
}

func checkPlan(b *bench) error {
	// Identical requests at an unchanged generation: the first may
	// simulate, every repeat must be byte-identical to the second.
	s := b.streams[b.planStream]
	req := qbets.WhatifRequest{Queue: s.queue, Procs: s.procs, WorkloadJobs: planJobs}
	for i := 0; i < gridScenarios; i++ {
		req.Scenarios = append(req.Scenarios, qbets.WhatifScenario{RateMultiplier: 1 + float64(i)/8, Policy: planPolicies[i%len(planPolicies)]})
	}
	body, _ := json.Marshal(&req)
	c := newClient(&atomic.Int64{}, nil)
	defer c.close()
	var replies [3][]byte
	for i := range replies {
		if code := c.do(opWhatif, http.MethodPost, b.st.leader.url+"/v1/whatif", body); code != http.StatusOK {
			return fmt.Errorf("repeat what-if answered %d (%v)", code, c.err)
		}
		replies[i] = append([]byte(nil), c.body.Bytes()...)
		var resp qbets.WhatifResponse
		if err := json.Unmarshal(replies[i], &resp); err != nil {
			return err
		}
		b.checkWhatif(&req, &resp)
	}
	if !bytes.Equal(replies[1], replies[2]) {
		b.viol.addf("identical what-if requests at an unchanged generation answered different bodies")
	}
	b.checkCoverage()
	return nil
}

// --- shared set-up ---------------------------------------------------------

func (b *bench) initCursors(preloaded int) {
	b.cursors = make([]atomic.Int64, len(b.streams))
	for i := range b.cursors {
		b.cursors[i].Store(int64(preloaded))
	}
}

// prepareReplicated generates the streams and logs their preload into a
// WAL directory every set-up restarts from.
func (b *bench) prepareReplicated(nStreams, perStream int) error {
	b.streams = makeStreams(bases(b.seed), nStreams, b.rng)
	b.initCursors(perStream)
	b.walDir = filepath.Join(b.work, "wal")
	n, err := writePreload(b.walDir, b.streams, perStream, rand.New(rand.NewSource(b.seed)))
	b.preloaded = uint64(n)
	return err
}

func (b *bench) startReplicated(i int) (*stack, error) {
	return startReplicated(b.walDir, filepath.Join(b.work, "epochs-"+strconv.Itoa(i)), len(b.streams), b.preloaded, b.newTracer())
}

func (b *bench) newTracer() *tracer {
	if !b.trace {
		return nil
	}
	return newTracer()
}

// drain waits until the leader has synced every record it acknowledged
// (lastSeq) and the follower has applied them, then checks the lag.
func (b *bench) drain(lastSeq uint64) error {
	st := b.st
	if err := st.catchUp(lastSeq, 3*walSyncDur+10*time.Second); err != nil {
		return err
	}
	if got := st.wal.SyncedSeq(); got != lastSeq {
		b.viol.addf("leader logged up to seq %d, expected %d for the acknowledged records", got, lastSeq)
	}
	return nil
}
