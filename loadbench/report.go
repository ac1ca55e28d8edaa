package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// report turns a run's tallies, probes and counters into metrics.
type report struct {
	wl     *workload
	b      *bench
	setups []float64
	heap   uint64 // live heap the final set-up added, bytes

	// main is the untraced measurement (the first half with --trace 1),
	// merged over its windows; traced is the second half, with the
	// probes recording.
	main      tally
	windows   []tally
	mainDur   time.Duration
	traced    tally
	tracedDur time.Duration
	tracedRT  rtStats

	lagEnd      uint64
	dials       int64
	scrapeDelta scraped
}

// nWindows is how many equal windows the untraced measurement is cut
// into. Every end-to-end rate and percentile is the median of its
// per-window values, so a stall of a second or two on a shared machine
// moves one window, not the result.
const nWindows = 5

// measure runs the untraced measurement for d, window by window.
func (r *report) measure(callers []caller, clients []*client, d time.Duration) {
	r.mainDur = d
	for i := 0; i < nWindows; i++ {
		w := runPhase(callers, clients, d/nWindows)
		r.windows = append(r.windows, w)
		r.main.merge(&w)
	}
}

// primaryLat returns the latencies of the workload's primary requests;
// forecast GETs and batches are both forecast requests.
func primaryLat(wl *workload, t *tally) []float64 {
	lat := append([]float64(nil), t.lat[wl.primary]...)
	if wl.primary == opForecast {
		lat = append(lat, t.lat[opForecastBatch]...)
	}
	return lat
}

// endToEnd fills the end-to-end metrics of BENCHMARK.json: medians of
// the per-window values.
func (r *report) endToEnd(m map[string]metric) error {
	win := (r.mainDur / nWindows).Seconds()
	var items, p50s, p90s []float64
	for i := range r.windows {
		w := &r.windows[i]
		lat := primaryLat(r.wl, w)
		p50, _ := percentile(lat, 0.5)
		p90, ok := percentile(lat, 0.9)
		if !ok {
			return fmt.Errorf("window %d: %d %s requests are too few for a p90", i, len(lat), opNames[r.wl.primary])
		}
		items = append(items, float64(r.wl.items(w))/win)
		p50s = append(p50s, p50)
		p90s = append(p90s, p90)
		logf("%s: window %d: %.1f items/s, p50 %.4f ms, p90 %.4f ms", r.wl.name, i, items[i], p50, p90)
	}
	m["setup_s"] = metric{median(append([]float64(nil), r.setups...)), "s"}
	m["items_per_s"] = metric{median(items), "1/s"}
	m["p50_ms"] = metric{median(p50s), "ms"}
	m["p90_ms"] = metric{median(p90s), "ms"}
	m["heap_mb"] = metric{float64(r.heap) / (1 << 20), "MiB"}
	return nil
}

// print writes the per-request view of the untraced measurement: every
// throughput and latency the workload produced, with sample counts.
func (r *report) print(w io.Writer) {
	t := &r.main
	sec := r.mainDur.Seconds()
	row := func(name string, v float64, unit, note string) {
		fmt.Fprintf(w, "%-9s %-18s %14.4f %-10s %s\n", r.wl.name, name, v, unit, note)
	}
	row("setup_s", median(append([]float64(nil), r.setups...)), "s", fmt.Sprintf("median of %d set-ups", len(r.setups)))
	row("heap_mb", float64(r.heap)/(1<<20), "MiB", "live heap added by set-up")
	if t.attempted > 0 {
		row("fail_ratio", float64(t.failed)/float64(t.attempted), "ratio", fmt.Sprintf("%d of %d requests", t.failed, t.attempted))
	}
	for _, c := range []struct {
		name string
		n    int64
	}{{"records_per_s", t.records}, {"shapes_per_s", t.shapes}, {"scenarios_per_s", t.scenarios}} {
		if c.n > 0 {
			row(c.name, float64(c.n)/sec, "1/s", "")
		}
	}
	classes := []struct {
		name string
		lat  []float64
	}{
		{"observe", t.lat[opObserve]},
		{"forecast", append(append([]float64(nil), t.lat[opForecast]...), t.lat[opForecastBatch]...)},
		{"whatif", t.lat[opWhatif]},
		{"sizing", t.lat[opSizing]},
	}
	for _, c := range classes {
		for _, p := range []struct {
			name string
			q    float64
		}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}} {
			if v, ok := percentile(c.lat, p.q); ok {
				row(c.name+"_"+p.name+"_ms", v, "ms", fmt.Sprintf("n=%d", len(c.lat)))
			}
		}
	}
	if n, cov := r.b.cov.result(); n > 0 {
		row("coverage", cov, "ratio", fmt.Sprintf("%d quotes, floor %.4f", n, coverageFloor(quantile, n)))
	}
}

// layerUnits lists every per-layer metric a traced run reports, with its
// unit. A layer a workload does not use reports 0.
var layerUnits = []struct{ name, unit string }{
	{"http.net_us_p50", "us"},
	{"http.conns_opened", "count"},
	{"server.observe_us_p50", "us"},
	{"server.observe_us_p99", "us"},
	{"server.observe_busy_s", "s"},
	{"server.observe_self_us_p50", "us"},
	{"server.observe_self_busy_s", "s"},
	{"server.observe_wal_busy_s", "s"},
	{"server.observe_hook_busy_s", "s"},
	{"server.forecast_us_p50", "us"},
	{"server.forecast_batch_us_p50", "us"},
	{"server.forecast_busy_s", "s"},
	{"server.whatif_ms_p50", "ms"},
	{"server.whatif_busy_s", "s"},
	{"service.streams", "count"},
	{"service.hydrated", "count"},
	{"service.evictions", "count"},
	{"service.rehydrations", "count"},
	{"service.trims", "count"},
	{"service.index_rebuilds", "count"},
	{"service.heap_bytes_per_stream", "B"},
	{"wal.write_calls", "count"},
	{"wal.write_bytes_per_record", "B/record"},
	{"wal.write_busy_s", "s"},
	{"wal.fsync_calls", "count"},
	{"wal.fsync_busy_s", "s"},
	{"wal.replay_s", "s"},
	{"wal.replay_records_per_s", "records/s"},
	{"repl.send_msgs", "count"},
	{"repl.send_bytes_per_record", "B/record"},
	{"repl.send_busy_s", "s"},
	{"repl.apply_calls", "count"},
	{"repl.apply_records_per_call", "records"},
	{"repl.apply_busy_s", "s"},
	{"repl.visible_ms_p50", "ms"},
	{"repl.visible_ms_p99", "ms"},
	{"repl.batch_cache_hit_ratio", "ratio"},
	{"repl.snapshot_s", "s"},
	{"repl.snapshot_chunks", "count"},
	{"repl.lag_records_end", "records"},
	{"whatif.scenarios", "count"},
	{"whatif.cache_hit_ratio", "ratio"},
	{"whatif.sizing_requests", "count"},
	{"whatif.ms_per_simulated_scenario", "ms"},
	{"runtime.cpu_us_per_req", "us"},
	{"runtime.alloc_bytes_per_req", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_items_pct", "%"},
	{"trace.overhead_p50_pct", "%"},
}

// pct returns the p-quantile of xs scaled by scale, or 0 when fewer than
// minBeyond samples lie beyond it.
func pct(xs []float64, p, scale float64) float64 {
	v, ok := percentile(xs, p)
	if !ok {
		return 0
	}
	return v * scale
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers fills the per-layer metrics from the traced half.
func (r *report) layers(m map[string]metric) error {
	st := r.b.st
	tr := st.tr
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	commits := append([]seqTime(nil), tr.commits...)
	applies := append([]seqTime(nil), tr.applies...)
	tr.mu.Unlock()

	v := make(map[string]float64, len(layerUnits))
	const us, ms, sec = 1e-3, 1e-6, 1e-9 // ns to µs, ms, s

	// Children of server spans: WAL calls and commit-hook calls made on
	// the handler's goroutine.
	type kids struct{ wal, hook int64 }
	child := make(map[uint64]*kids)
	serverOf := make(map[uint64]int64) // client request id -> server span ns
	var durs [nSpanKinds][]float64
	var busy [nSpanKinds]int64
	var bytes [nSpanKinds]int64
	for _, s := range spans {
		d := s.end - s.start
		durs[s.kind] = append(durs[s.kind], float64(d))
		busy[s.kind] += d
		bytes[s.kind] += s.n
		switch s.kind {
		case spWALWrite, spWALFsync, spHook:
			if s.parent == 0 {
				continue
			}
			k := child[s.parent]
			if k == nil {
				k = &kids{}
				child[s.parent] = k
			}
			if s.kind == spHook {
				k.hook += d
			} else {
				k.wal += d
			}
		case spObserve, spForecast, spForecastBatch, spWhatif, spServerOther:
			if s.parent != 0 {
				serverOf[s.parent] = d
			}
		}
	}
	var net, self []float64
	var selfBusy, walBusy, hookBusy int64
	for _, s := range spans {
		switch s.kind {
		case spClient:
			if d, ok := serverOf[s.id]; ok {
				net = append(net, float64(s.end-s.start-d))
			}
		case spObserve:
			d := s.end - s.start
			if k := child[s.id]; k != nil {
				d -= k.wal + k.hook
				walBusy += k.wal
				hookBusy += k.hook
			}
			self = append(self, float64(d))
			selfBusy += d
		}
	}
	v["http.net_us_p50"] = pct(net, 0.5, us)
	v["http.conns_opened"] = float64(r.dials)
	v["server.observe_us_p50"] = pct(durs[spObserve], 0.5, us)
	v["server.observe_us_p99"] = pct(durs[spObserve], 0.99, us)
	v["server.observe_busy_s"] = float64(busy[spObserve]) * sec
	v["server.observe_self_us_p50"] = pct(self, 0.5, us)
	v["server.observe_self_busy_s"] = float64(selfBusy) * sec
	v["server.observe_wal_busy_s"] = float64(walBusy) * sec
	v["server.observe_hook_busy_s"] = float64(hookBusy) * sec
	v["server.forecast_us_p50"] = pct(durs[spForecast], 0.5, us)
	v["server.forecast_batch_us_p50"] = pct(durs[spForecastBatch], 0.5, us)
	v["server.forecast_busy_s"] = float64(busy[spForecast]+busy[spForecastBatch]) * sec
	v["server.whatif_ms_p50"] = pct(durs[spWhatif], 0.5, ms)
	v["server.whatif_busy_s"] = float64(busy[spWhatif]) * sec

	svc := st.leader.srv.Service()
	all, err := scrape(st.leader.url)
	if err != nil {
		return err
	}
	trims := 0
	for _, s := range svc.Stats() {
		trims += s.Trims
	}
	streams := svc.NumStreams()
	if st.follower != nil {
		streams += st.follower.srv.Service().NumStreams()
	}
	v["service.streams"] = float64(svc.NumStreams())
	v["service.hydrated"] = float64(svc.LiveStreams())
	v["service.evictions"] = all["qbets_stream_evictions_total"]
	v["service.rehydrations"] = all["qbets_stream_rehydrations_total"]
	v["service.trims"] = float64(trims)
	v["service.index_rebuilds"] = all["qbets_index_rebuilds_total"]
	v["service.heap_bytes_per_stream"] = ratio(float64(r.heap), float64(streams))

	tracedRecords := float64(r.traced.records)
	v["wal.write_calls"] = float64(len(durs[spWALWrite]))
	v["wal.write_bytes_per_record"] = ratio(float64(bytes[spWALWrite]), tracedRecords)
	v["wal.write_busy_s"] = float64(busy[spWALWrite]) * sec
	v["wal.fsync_calls"] = float64(len(durs[spWALFsync]))
	v["wal.fsync_busy_s"] = float64(busy[spWALFsync]) * sec
	if st.wal != nil {
		v["wal.replay_s"] = st.replayDur.Seconds()
		v["wal.replay_records_per_s"] = ratio(float64(st.replay.Records), st.replayDur.Seconds())
	}

	applied := float64(bytes[spReplApply])
	v["repl.send_msgs"] = float64(len(durs[spReplSend]))
	v["repl.send_bytes_per_record"] = ratio(float64(bytes[spReplSend]), applied)
	v["repl.send_busy_s"] = float64(busy[spReplSend]) * sec
	v["repl.apply_calls"] = float64(len(durs[spReplApply]))
	v["repl.apply_records_per_call"] = ratio(applied, float64(len(durs[spReplApply])))
	v["repl.apply_busy_s"] = float64(busy[spReplApply]) * sec
	visible := visibility(commits, applies)
	v["repl.visible_ms_p50"] = pct(visible, 0.5, ms)
	v["repl.visible_ms_p99"] = pct(visible, 0.99, ms)
	if st.lead != nil {
		h, mi := float64(st.lead.BatchCacheHits()), float64(st.lead.BatchCacheMisses())
		v["repl.batch_cache_hit_ratio"] = ratio(h, h+mi)
		v["repl.snapshot_s"] = float64(tr.snapEnd.Load()-tr.snapBegin.Load()) * sec
		v["repl.snapshot_chunks"] = float64(tr.snapChunks.Load())
		v["repl.lag_records_end"] = float64(r.lagEnd)
	}

	d := r.scrapeDelta
	scen, hits := d["qbets_whatif_scenarios_total"], d["qbets_whatif_cache_hits_total"]
	v["whatif.scenarios"] = scen
	v["whatif.cache_hit_ratio"] = ratio(hits, scen)
	v["whatif.sizing_requests"] = d["qbets_whatif_sizing_requests_total"]
	v["whatif.ms_per_simulated_scenario"] = ratio(float64(busy[spWhatif])*ms, scen-hits+float64(r.traced.sizingEvals))

	reqs := float64(r.traced.requests())
	v["runtime.cpu_us_per_req"] = ratio(float64(r.tracedRT.cpu)*us, reqs)
	v["runtime.alloc_bytes_per_req"] = ratio(float64(r.tracedRT.allocBytes), reqs)
	v["runtime.gc_cycles"] = float64(r.tracedRT.gcCycles)
	v["runtime.gc_pause_ms"] = float64(r.tracedRT.gcPause) * ms

	untracedItems := float64(r.wl.items(&r.main)) / r.mainDur.Seconds()
	tracedItems := float64(r.wl.items(&r.traced)) / r.tracedDur.Seconds()
	v["trace.overhead_items_pct"] = 100 * ratio(untracedItems-tracedItems, untracedItems)
	u50, _ := percentile(primaryLat(r.wl, &r.main), 0.5)
	t50, _ := percentile(primaryLat(r.wl, &r.traced), 0.5)
	v["trace.overhead_p50_pct"] = 100 * ratio(t50-u50, u50)

	for _, l := range layerUnits {
		m[l.name] = metric{v[l.name], l.unit}
	}
	return nil
}

// visibility pairs every commit with the first follower apply that
// covered its sequence and returns the delays in nanoseconds.
func visibility(commits, applies []seqTime) []float64 {
	sort.Slice(applies, func(i, j int) bool { return applies[i].seq < applies[j].seq })
	var out []float64
	for _, c := range commits {
		i := sort.Search(len(applies), func(i int) bool { return applies[i].seq >= c.seq })
		if i < len(applies) {
			out = append(out, float64(applies[i].t-c.t))
		}
	}
	return out
}
