package qbets

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/whatif"
)

// Server exposes a Service over HTTP with a small JSON API, the deployment
// shape the paper anticipates ("a user and scheduling tool" fed periodic
// scheduler-log dumps):
//
//	POST /v1/observe   {"queue":"normal","procs":8,"wait_seconds":123}
//	                   (or a JSON array of such records)
//	GET  /v1/forecast?queue=normal&procs=8
//	POST /v1/forecast  [{"queue":"normal","procs":8}, ...]  (batch)
//	GET  /v1/profile?queue=normal&procs=8
//	GET  /v1/status
//	GET  /metrics      (Prometheus text exposition)
//	GET  /healthz
//
// Server is safe for concurrent use, and the forecast plane never blocks:
// forecast, profile, and status reads are served from the Service's
// RCU-published snapshots with no locking, so they cannot contend with
// ingest, refits, or snapshot saves — and ingest on distinct streams still
// proceeds in parallel through the sharded registry. Errors are reported
// as JSON bodies of the form {"error": "..."} with a matching status code.
//
// The server instruments itself through internal/obs: request counts by
// endpoint and status code, a prediction-latency histogram, ingested
// observation counts, and — scraped live from the Service — per-stream
// depth, change-point trims, and the rolling hit rate of resolved
// predictions against the target quantile (the paper's correctness
// metric, Tables 3–7, computed online). See docs/OPERATIONS.md.
type Server struct {
	svc *Service
	reg *obs.Registry

	httpRequests      *obs.CounterVec
	observations      *obs.Counter
	observeErrors     *obs.Counter
	panics            *obs.Counter
	predLatency       *obs.Histogram
	forecastBatchSize *obs.Histogram
	whatifScenarios   *obs.Counter
	whatifCacheHits   *obs.Counter
	whatifSizing      *obs.Counter
	whatifLatency     *obs.Histogram

	// whatifPlanners pools the capacity-planning simulators (whatif.go),
	// keyed by base-trace length × queue filter.
	whatifMu       sync.Mutex
	whatifPlanners map[whatifPlannerKey]*whatif.Planner

	// levelsJSON is the pre-rendered `,"quantile":…,"confidence":…`
	// fragment of every ForecastResponse: the two floats are fixed at
	// construction, and shortest-float formatting is the most expensive
	// part of the encode, so the serving path splices these bytes instead
	// of re-deriving them per response.
	levelsJSON []byte

	// reqCounters memoizes httpRequests.With per (endpoint, status): the
	// label-key formatting in CounterVec.With is a handful of allocations,
	// which the per-request accounting on the zero-alloc read path should
	// not pay twice for the same pair.
	reqCountersMu sync.RWMutex
	reqCounters   map[reqCounterKey]*obs.Counter

	// repl is the replication role, installed by SetLeaderReplication or
	// SetFollowerReplication (serverrepl.go); nil on an unreplicated node.
	repl atomic.Pointer[replState]
}

type reqCounterKey struct {
	endpoint string
	code     int
}

func (s *Server) requestCounter(endpoint string, code int) *obs.Counter {
	k := reqCounterKey{endpoint, code}
	s.reqCountersMu.RLock()
	c := s.reqCounters[k]
	s.reqCountersMu.RUnlock()
	if c == nil {
		c = s.httpRequests.With(endpoint, strconv.Itoa(code))
		s.reqCountersMu.Lock()
		s.reqCounters[k] = c
		s.reqCountersMu.Unlock()
	}
	return c
}

// maxObserveBody caps the POST /v1/observe request body. A batch of a few
// thousand records fits comfortably; anything larger is a client bug or an
// attack, and is rejected before it can exhaust memory.
const maxObserveBody = 1 << 20

// NewServer returns an HTTP server around a fresh Service. splitByProcs
// and opts behave as in NewService. The reported quantile and confidence
// come from the Service itself, so responses and metrics cannot drift
// from the forecasters' actual configuration.
func NewServer(splitByProcs bool, opts ...Option) *Server {
	return newServer(NewService(splitByProcs, opts...))
}

// NewServerWith wraps an existing Service (e.g. one restored from a state
// file) in a Server.
func NewServerWith(svc *Service) *Server { return newServer(svc) }

func newServer(svc *Service) *Server {
	reg := obs.NewRegistry()
	s := &Server{
		svc:               svc,
		reg:               reg,
		httpRequests:      reg.NewCounterVec("qbets_http_requests_total", "HTTP requests served, by endpoint and status code.", "endpoint", "code"),
		observations:      reg.NewCounter("qbets_observations_total", "Wait-time observations ingested."),
		observeErrors:     reg.NewCounter("qbets_observe_rejects_total", "Observe payloads rejected by validation."),
		panics:            reg.NewCounter("qbets_panics_total", "Handler panics recovered by the server."),
		predLatency:       reg.NewHistogram("qbets_prediction_latency_seconds", "Latency of forecast and profile computations.", obs.LatencyBuckets()),
		forecastBatchSize: reg.NewHistogram("qbets_forecast_batch_size", "Shapes per batch forecast request (POST /v1/forecast).", obs.SizeBuckets()),
		whatifScenarios:   reg.NewCounter("qbets_whatif_scenarios_total", "Scenarios answered by POST /v1/whatif (simulated or cache-served, baseline included)."),
		whatifCacheHits:   reg.NewCounter("qbets_whatif_cache_hits_total", "What-if scenarios served from the fingerprint-keyed cache."),
		whatifSizing:      reg.NewCounter("qbets_whatif_sizing_requests_total", "SLO sizing searches answered by POST /v1/whatif."),
		whatifLatency:     reg.NewHistogram("qbets_whatif_latency_seconds", "Latency of what-if grid evaluation and sizing, per request.", obs.LatencyBuckets()),
		whatifPlanners:    make(map[whatifPlannerKey]*whatif.Planner),
		reqCounters:       make(map[reqCounterKey]*obs.Counter),
	}
	s.levelsJSON = appendForecastLevels(nil, svc.Quantile(), svc.Confidence())
	// Durability metrics live on the Service (they tick whether or not a
	// registry exists); the server exposes them.
	d := svc.durabilityMetrics()
	reg.RegisterGauge("qbets_readonly", "1 while observation-log appends are failing and observes are refused; forecasts still serve.", d.readonly)
	reg.RegisterCounter("qbets_wal_appends_total", "Observation records appended to the write-ahead log.", d.appends)
	reg.RegisterCounter("qbets_wal_append_errors_total", "Failed write-ahead log appends (each one refused an observe).", d.appendErrors)
	reg.RegisterCounter("qbets_wal_replayed_records_total", "Observation records replayed from the write-ahead log at startup.", d.replayed)
	reg.RegisterCounter("qbets_wal_replay_dropped_total", "Replay truncation events: torn or corrupt log tails dropped during recovery.", d.replayDropped)
	reg.RegisterCounter("qbets_wal_replay_dropped_bytes_total", "Bytes discarded by replay truncations.", d.replayDroppedB)
	reg.RegisterCounter("qbets_wal_compact_errors_total", "Write-ahead log compaction failures (the snapshot still succeeded; the log is just longer).", d.compactErrors)
	qLabel := strconv.FormatFloat(svc.Quantile(), 'g', -1, 64)
	cLabel := strconv.FormatFloat(svc.Confidence(), 'g', -1, 64)
	reg.RegisterGaugeFunc("qbets_target_info",
		"Configured prediction target; the value is always 1, the labels carry the quantile and confidence.",
		func(emit func(string, float64)) {
			emit(obs.Labels("quantile", qLabel, "confidence", cLabel), 1)
		})
	l := svc.lifecycleMetrics()
	reg.RegisterCounter("qbets_stream_evictions_total", "Idle streams evicted to compact cold state (still serving reads; rehydrated on their next write).", l.evictions)
	reg.RegisterCounter("qbets_stream_rehydrations_total", "Cold streams rehydrated by a write.", l.rehydrations)
	reg.RegisterCounter("qbets_index_rebuilds_total", "Stream-index partition publications (per-partition copy-on-write republishes plus full rebuilds, counted per partition).", l.indexRebuilds)
	reg.RegisterGaugeFunc("qbets_streams", "Streams currently tracked, by lifecycle state: live streams hold a hydrated forecaster, evicted ones serve reads from compact cold state.",
		func(emit func(string, float64)) {
			live := svc.LiveStreams()
			emit(obs.Labels("state", "live"), float64(live))
			emit(obs.Labels("state", "evicted"), float64(svc.NumStreams()-live))
		})
	// Per-stream series are only emitted for registries small enough for a
	// scrape to digest; past the cap the aggregate series above still tell
	// the health story, and per-stream detail is available via /v1/status
	// with an explicit limit.
	perStream := func(each func(StreamStatus, func(string, float64))) func(func(string, float64)) {
		return func(emit func(string, float64)) {
			if svc.NumStreams() > perStreamMetricsCap {
				return
			}
			for _, st := range svc.Stats() {
				each(st, emit)
			}
		}
	}
	reg.RegisterGaugeFunc("qbets_stream_observations", "History depth per stream (omitted above "+strconv.Itoa(perStreamMetricsCap)+" streams).",
		perStream(func(st StreamStatus, emit func(string, float64)) {
			emit(obs.Labels("stream", st.Stream), float64(st.Observations))
		}))
	reg.RegisterGaugeFunc("qbets_stream_hit_rate",
		"Rolling fraction of resolved predictions whose wait fell within the quoted bound; compare against the target quantile.",
		perStream(func(st StreamStatus, emit func(string, float64)) {
			if st.RollingResolved > 0 {
				emit(obs.Labels("stream", st.Stream), st.RollingHitRate)
			}
		}))
	reg.RegisterGaugeFunc("qbets_stream_resolved", "Resolved predictions in the rolling hit-rate window, per stream.",
		perStream(func(st StreamStatus, emit func(string, float64)) {
			emit(obs.Labels("stream", st.Stream), float64(st.RollingResolved))
		}))
	reg.RegisterCounterFunc("qbets_stream_trims_total", "Change-point trims per stream.",
		perStream(func(st StreamStatus, emit func(string, float64)) {
			emit(obs.Labels("stream", st.Stream), float64(st.Trims))
		}))
	// A gauge, not a counter: a wholesale state restore replaces streams,
	// whose generations restart at 1.
	reg.RegisterGaugeFunc("qbets_forecast_generation",
		"Per-stream forecast snapshot generation: 1 at stream creation, +1 per applied observation, batch chunk, or replay group. A stalled generation under ingest means the read plane is serving stale bounds.",
		perStream(func(st StreamStatus, emit func(string, float64)) {
			emit(obs.Labels("stream", st.Stream), float64(st.Generation))
		}))
	return s
}

// perStreamMetricsCap is the registry size past which per-stream metric
// series stop being emitted: a million-stream registry would otherwise
// produce a multi-hundred-megabyte scrape.
const perStreamMetricsCap = 10000

// Service returns the underlying Service.
func (s *Server) Service() *Service { return s.svc }

// Metrics returns the server's metric registry, for mounting on a
// separate listener (qbets-serve's -metrics-addr).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// ObserveRecord is the POST /v1/observe payload.
type ObserveRecord struct {
	Queue       string  `json:"queue"`
	Procs       int     `json:"procs"`
	WaitSeconds float64 `json:"wait_seconds"`
}

// ForecastResponse is the GET /v1/forecast payload.
type ForecastResponse struct {
	Queue        string  `json:"queue"`
	Procs        int     `json:"procs"`
	Quantile     float64 `json:"quantile"`
	Confidence   float64 `json:"confidence"`
	BoundSeconds float64 `json:"bound_seconds"`
	OK           bool    `json:"ok"`
	Observations int     `json:"observations"`
}

// ProfileEntry is one element of the GET /v1/profile payload.
type ProfileEntry struct {
	Quantile   float64 `json:"quantile"`
	Confidence float64 `json:"confidence"`
	Side       string  `json:"side"`
	Seconds    float64 `json:"seconds"`
	OK         bool    `json:"ok"`
}

// StreamStatusResponse is one stream's entry in the GET /v1/status payload.
type StreamStatusResponse struct {
	Stream          string  `json:"stream"`
	Observations    int     `json:"observations"`
	MinObservations int     `json:"min_observations"`
	BoundSeconds    float64 `json:"bound_seconds"`
	BoundOK         bool    `json:"bound_ok"`
	// HitRate is the rolling correctness over the last Resolved resolved
	// predictions; meaningful when Resolved > 0.
	HitRate          float64 `json:"hit_rate"`
	Resolved         int     `json:"resolved"`
	LifetimeHits     uint64  `json:"lifetime_hits"`
	LifetimeResolved uint64  `json:"lifetime_resolved"`
	Trims            int     `json:"trims"`
	LastTrimUnix     int64   `json:"last_trim_unix,omitempty"`
}

// StatusResponse is the GET /v1/status payload. TotalStreams is the full
// registry size; Streams may be a prefix of it when the request carried a
// limit parameter (streams come back in key order, so the prefix is
// deterministic).
type StatusResponse struct {
	Quantile     float64                `json:"quantile"`
	Confidence   float64                `json:"confidence"`
	TotalStreams int                    `json:"total_streams"`
	Streams      []StreamStatusResponse `json:"streams"`
}

// ErrorResponse is the JSON body every error response carries.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ServeHTTP implements http.Handler. A panic in any handler is recovered
// here — counted, answered with a 500 if nothing was written yet — so one
// poisoned request cannot take down the connection's goroutine with the
// default net/http crash trace as the only evidence.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	endpoint := "other"
	defer func() {
		if p := recover(); p != nil {
			s.panics.Inc()
			sw.code = http.StatusInternalServerError
			if !sw.wrote {
				writeError(sw, http.StatusInternalServerError, "internal error: %v", p)
			}
		}
		s.requestCounter(endpoint, sw.code).Inc()
	}()
	switch r.URL.Path {
	case "/v1/observe":
		endpoint = "observe"
		s.handleObserve(sw, r)
	case "/v1/forecast":
		endpoint = "forecast"
		s.handleForecast(sw, r)
	case "/v1/profile":
		endpoint = "profile"
		s.handleProfile(sw, r)
	case "/v1/status":
		endpoint = "status"
		s.handleStatus(sw, r)
	case "/v1/whatif":
		endpoint = "whatif"
		s.handleWhatif(sw, r)
	case "/metrics":
		endpoint = "metrics"
		s.reg.Handler().ServeHTTP(sw, r)
	case "/healthz":
		endpoint = "healthz"
		sw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// A replicated node reports unhealthy when its role is degraded —
		// a fenced ex-leader must stop taking writes, a follower lagging
		// past its bound must stop serving stale reads — so a balancer
		// drains it until replication recovers.
		if rs := s.repl.Load(); rs != nil && rs.degraded != nil && rs.degraded() {
			sw.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			sw.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(sw, "degraded: %s replication\n", rs.role)
		} else {
			fmt.Fprintln(sw, "ok")
		}
	default:
		writeError(sw, http.StatusNotFound, "no such endpoint: %s", r.URL.Path)
	}
}

// statusWriter records the status code a handler sends and whether the
// header has gone out (after which a recovered panic can't send a 500).
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// internedQueue is a string whose JSON decoding routes through a bounded
// intern cache keyed by the raw token bytes, so repeated queue names — the
// overwhelmingly common case in scheduler-log ingest — decode without
// allocating a fresh string per record. Decoding semantics are exactly
// encoding/json's for a plain string field: cache misses delegate to
// json.Unmarshal and memoize its result, so identical raw bytes always
// yield the identical value, and anything the standard decoder rejects is
// rejected here too.
type internedQueue string

// maxInternedQueues caps the intern cache; a flood of distinct queue names
// (an attack, not a workload) degrades to per-record allocation, never to
// unbounded memory.
const maxInternedQueues = 4096

var queueInterner = struct {
	sync.RWMutex
	m map[string]string
}{m: make(map[string]string)}

func (q *internedQueue) UnmarshalJSON(b []byte) error {
	// JSON null leaves the value unchanged, exactly as encoding/json
	// treats a plain string field.
	if string(b) == "null" {
		return nil
	}
	v, err := internQueueToken(b)
	if err != nil {
		return err
	}
	*q = internedQueue(v)
	return nil
}

// observeWire mirrors ObserveRecord for the decode hot path, with the
// queue routed through the intern cache. Kept separate so the public
// ObserveRecord type stays a plain-string struct.
type observeWire struct {
	Queue       internedQueue `json:"queue"`
	Procs       int           `json:"procs"`
	WaitSeconds float64       `json:"wait_seconds"`
}

// maxPooledObserveRecords bounds the record capacity a pooled batch may
// retain between requests.
const maxPooledObserveRecords = 8192

// observeBatch is the pooled per-request state of handleObserve: the
// decoded records, the peek buffer, and the scratch record the streaming
// decoder fills — so in steady state the ingest path allocates only what
// encoding/json's decoder itself needs, nothing per record.
type observeBatch struct {
	recs []ObserveRecord
	br   *bufio.Reader
	wire observeWire
}

var observeBatchPool = sync.Pool{
	New: func() any { return &observeBatch{br: bufio.NewReaderSize(nil, 4096)} },
}

func (b *observeBatch) release() {
	b.br.Reset(nil)
	b.wire = observeWire{}
	clear(b.recs)
	b.recs = b.recs[:0]
	if cap(b.recs) > maxPooledObserveRecords {
		b.recs = nil
	}
	observeBatchPool.Put(b)
}

// peekNonSpace returns the first non-whitespace byte without consuming it,
// skipping exactly the JSON whitespace set (space, tab, CR, LF).
func peekNonSpace(br *bufio.Reader) (byte, error) {
	for {
		c, err := br.ReadByte()
		if err != nil {
			return 0, err
		}
		switch c {
		case ' ', '\t', '\r', '\n':
			continue
		}
		return c, br.UnreadByte()
	}
}

// writeDecodeError maps a body-decode failure to its 400: the body-cap
// error gets its dedicated message, everything else is formatted with the
// caller's context ("bad JSON", "bad JSON object", "bad JSON array").
func writeDecodeError(w http.ResponseWriter, err error, format string) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusBadRequest, "body exceeds %d bytes; split the batch", tooBig.Limit)
		return
	}
	writeError(w, http.StatusBadRequest, format, err)
}

// handleObserve ingests a single record or an array of records: the first
// JSON value in the body (trailing bytes are ignored), decoded in one
// streaming pass with validation fused into the walk, then applied through
// the service's batch path. Nothing is ingested unless the whole payload
// decodes and validates — partial application happens only when the
// observation log degrades mid-batch, reported as a 503 with Retry-After
// and the index of the first unapplied record.
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	b := observeBatchPool.Get().(*observeBatch)
	defer b.release()
	b.br.Reset(http.MaxBytesReader(w, r.Body, maxObserveBody))
	first, err := peekNonSpace(b.br)
	if err != nil {
		s.observeErrors.Inc()
		writeDecodeError(w, err, "bad JSON: %v")
		return
	}
	dec := json.NewDecoder(b.br)
	if first == '[' {
		if _, err := dec.Token(); err != nil { // consume '['
			s.observeErrors.Inc()
			writeDecodeError(w, err, "bad JSON array: %v")
			return
		}
		for i := 0; dec.More(); i++ {
			b.wire = observeWire{}
			if err := dec.Decode(&b.wire); err != nil {
				s.observeErrors.Inc()
				writeDecodeError(w, err, "bad JSON array: %v")
				return
			}
			if !validWire(&b.wire) {
				s.observeErrors.Inc()
				writeError(w, http.StatusBadRequest, "record %d: queue required and wait_seconds must be finite and >= 0", i)
				return
			}
			b.recs = append(b.recs, ObserveRecord{Queue: string(b.wire.Queue), Procs: b.wire.Procs, WaitSeconds: b.wire.WaitSeconds})
		}
		if _, err := dec.Token(); err != nil { // consume ']'
			s.observeErrors.Inc()
			writeDecodeError(w, err, "bad JSON array: %v")
			return
		}
	} else {
		b.wire = observeWire{}
		if err := dec.Decode(&b.wire); err != nil {
			s.observeErrors.Inc()
			writeDecodeError(w, err, "bad JSON object: %v")
			return
		}
		if !validWire(&b.wire) {
			s.observeErrors.Inc()
			writeError(w, http.StatusBadRequest, "record 0: queue required and wait_seconds must be finite and >= 0")
			return
		}
		b.recs = append(b.recs, ObserveRecord{Queue: string(b.wire.Queue), Procs: b.wire.Procs, WaitSeconds: b.wire.WaitSeconds})
	}
	applied, err := s.svc.ObserveBatch(b.recs)
	s.observations.Add(uint64(applied))
	if err != nil {
		if errors.Is(err, ErrReadOnly) || errors.Is(err, ErrNotLeader) {
			// Records before the reported index were logged and applied; the
			// client should retry the remainder once appends heal (or against
			// the leader). The hint is derived, not fixed: the WAL's sync
			// probe interval or the replication backoff, whichever is longer.
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		s.observeErrors.Inc()
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func validWire(rec *observeWire) bool {
	return rec.Queue != "" && !math.IsNaN(rec.WaitSeconds) && !math.IsInf(rec.WaitSeconds, 0) && rec.WaitSeconds >= 0
}

// handleForecast serves the read plane's hot endpoint. GET answers one
// (queue, procs) shape; POST answers a whole batch of shapes in one
// request (see handleForecastBatch). Both run lock-free against the
// service's published snapshots and render through the pooled append
// encoder, so the steady-state cost is decode + two atomic loads + one
// buffer write.
func (s *Server) handleForecast(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		s.handleForecastBatch(w, r)
		return
	}
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET or POST required")
		return
	}
	queue, procs, ok := s.shapeParams(w, r)
	if !ok {
		return
	}
	start := time.Now()
	st, known := s.svc.StreamStats(queue, procs)
	s.predLatency.Observe(time.Since(start).Seconds())
	if !known {
		writeError(w, http.StatusNotFound, "unknown stream for queue %q, procs %d: no observations yet", queue, procs)
		return
	}
	rb := getResponseBuf()
	rb.b = appendForecastHead(rb.b, queue, procs)
	rb.b = append(rb.b, s.levelsJSON...)
	rb.b = appendForecastTail(rb.b, st.BoundSeconds, st.BoundOK, st.Observations)
	rb.b = append(rb.b, '\n')
	writeRawJSON(w, rb.b)
	rb.release()
}

// maxForecastBody caps the POST /v1/forecast request body; thousands of
// shapes fit comfortably.
const maxForecastBody = 1 << 20

// forecastShape is one resolved (queue, procs) request within a batch.
type forecastShape struct {
	queue string
	procs int
}

// maxPooledForecastShapes bounds the shape capacity a pooled batch may
// retain between requests; maxPooledForecastBody does the same for the
// body buffer.
const (
	maxPooledForecastShapes = 8192
	maxPooledForecastBody   = 1 << 18
)

// forecastBatch is the pooled per-request state of handleForecastBatch:
// the raw body and the decoded shapes, both capacity-retained so the
// steady-state batch path allocates nothing per request.
type forecastBatch struct {
	shapes []forecastShape
	buf    []byte
}

var forecastBatchPool = sync.Pool{
	New: func() any { return &forecastBatch{buf: make([]byte, 0, 4096)} },
}

func (b *forecastBatch) release() {
	clear(b.shapes)
	b.shapes = b.shapes[:0]
	if cap(b.shapes) > maxPooledForecastShapes {
		b.shapes = nil
	}
	b.buf = b.buf[:0]
	if cap(b.buf) > maxPooledForecastBody {
		b.buf = nil
	}
	forecastBatchPool.Put(b)
}

// readBody slurps r into the pooled buffer, growing it as needed.
func (b *forecastBatch) readBody(r io.Reader) ([]byte, error) {
	for {
		if len(b.buf) == cap(b.buf) {
			b.buf = append(b.buf, 0)[:len(b.buf)]
		}
		n, err := r.Read(b.buf[len(b.buf):cap(b.buf)])
		b.buf = b.buf[:len(b.buf)+n]
		if err == io.EOF {
			return b.buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// handleForecastBatch answers POST /v1/forecast: a JSON array of
// {queue, procs} shapes, answered by a JSON array of ForecastResponse in
// the same order — the shape an urgent-workload scheduler polls before
// placement, quoting bounds for many candidate job shapes in one round
// trip. Unlike the single-shape GET, an unknown stream is not a 404: its
// entry comes back with ok=false and zero observations, so one cold shape
// cannot fail the whole batch. procs omitted or 0 defaults to 1, matching
// the GET parameter.
func (s *Server) handleForecastBatch(w http.ResponseWriter, r *http.Request) {
	b := forecastBatchPool.Get().(*forecastBatch)
	defer b.release()
	body, err := b.readBody(http.MaxBytesReader(w, r.Body, maxForecastBody))
	if err != nil {
		writeDecodeError(w, err, "bad JSON: %v")
		return
	}
	i := 0
	for i < len(body) && (body[i] == ' ' || body[i] == '\t' || body[i] == '\r' || body[i] == '\n') {
		i++
	}
	if i == len(body) {
		writeError(w, http.StatusBadRequest, "bad JSON: %v", errShapeEOF)
		return
	}
	if body[i] != '[' {
		writeError(w, http.StatusBadRequest, "batch forecast body must be a JSON array of {queue, procs} shapes")
		return
	}
	b.shapes, err = parseForecastShapes(b.shapes[:0], body[i:])
	if err != nil {
		var fe *shapeFieldError
		if errors.As(err, &fe) {
			writeError(w, http.StatusBadRequest, "%v", err)
		} else {
			writeError(w, http.StatusBadRequest, "bad JSON array: %v", err)
		}
		return
	}
	s.forecastBatchSize.Observe(float64(len(b.shapes)))
	rb := getResponseBuf()
	rb.b = append(rb.b, '[')
	start := time.Now()
	for i := range b.shapes {
		sh := &b.shapes[i]
		if i > 0 {
			rb.b = append(rb.b, ',')
		}
		rb.b = appendForecastHead(rb.b, sh.queue, sh.procs)
		rb.b = append(rb.b, s.levelsJSON...)
		// An unknown stream degrades to ok=false with zero observations
		// rather than failing the batch; asking never creates a stream.
		if st, known := s.svc.StreamStats(sh.queue, sh.procs); known {
			rb.b = appendForecastTail(rb.b, st.BoundSeconds, st.BoundOK, st.Observations)
		} else {
			rb.b = appendForecastTail(rb.b, 0, false, 0)
		}
	}
	s.predLatency.Observe(time.Since(start).Seconds())
	rb.b = append(rb.b, ']', '\n')
	writeRawJSON(w, rb.b)
	rb.release()
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	queue, procs, ok := s.shapeParams(w, r)
	if !ok {
		return
	}
	start := time.Now()
	bounds := s.svc.Profile(queue, procs)
	s.predLatency.Observe(time.Since(start).Seconds())
	if bounds == nil {
		writeError(w, http.StatusNotFound, "unknown stream for queue %q, procs %d: no observations yet", queue, procs)
		return
	}
	// bounds is the published immutable snapshot slice — rendered in
	// place, never mutated.
	rb := getResponseBuf()
	rb.b = appendProfileEntries(rb.b, bounds)
	rb.b = append(rb.b, '\n')
	writeRawJSON(w, rb.b)
	rb.release()
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	// Stats walks the ordered index, so the response is already sorted by
	// stream key; limit stops the walk early — on a huge registry, asking
	// for the first 100 streams costs 100 statuses, not a million.
	limit := 0
	if l := queryParam(r.URL.RawQuery, "limit"); l != "" {
		v, err := strconv.Atoi(l)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		limit = v
	}
	stats := s.svc.StatsLimit(limit)
	streams := make([]StreamStatusResponse, len(stats))
	for i, st := range stats {
		streams[i] = StreamStatusResponse{
			Stream:           st.Stream,
			Observations:     st.Observations,
			MinObservations:  st.MinObservations,
			BoundSeconds:     st.BoundSeconds,
			BoundOK:          st.BoundOK,
			HitRate:          st.RollingHitRate,
			Resolved:         st.RollingResolved,
			LifetimeHits:     st.LifetimeHits,
			LifetimeResolved: st.LifetimeResolved,
			Trims:            st.Trims,
			LastTrimUnix:     st.LastTrimUnix,
		}
	}
	writeJSON(w, StatusResponse{
		Quantile:     s.svc.Quantile(),
		Confidence:   s.svc.Confidence(),
		TotalStreams: s.svc.NumStreams(),
		Streams:      streams,
	})
}

func (s *Server) shapeParams(w http.ResponseWriter, r *http.Request) (queue string, procs int, ok bool) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return "", 0, false
	}
	queue = queryParam(r.URL.RawQuery, "queue")
	if queue == "" {
		writeError(w, http.StatusBadRequest, "queue parameter required")
		return "", 0, false
	}
	procs = 1
	if p := queryParam(r.URL.RawQuery, "procs"); p != "" {
		v, err := strconv.Atoi(p)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, "procs must be a positive integer")
			return "", 0, false
		}
		procs = v
	}
	return queue, procs, true
}

// queryParam extracts the first value of key from a raw query string
// without materializing a url.Values map — the single-shape GETs are the
// read plane's hottest requests, and parsing two known keys by hand keeps
// them allocation-free in the common (unescaped) case. Escaped values fall
// back to url.QueryUnescape; pairs net/url would reject (embedded
// semicolons) are skipped, matching r.URL.Query()'s drop-on-error
// behavior.
func queryParam(raw, key string) string {
	for len(raw) > 0 {
		pair := raw
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			pair, raw = raw[:i], raw[i+1:]
		} else {
			raw = ""
		}
		if pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		k, v := pair, ""
		if i := strings.IndexByte(pair, '='); i >= 0 {
			k, v = pair[:i], pair[i+1:]
		}
		if k != key {
			if strings.IndexByte(k, '%') < 0 && strings.IndexByte(k, '+') < 0 {
				continue
			}
			u, err := url.QueryUnescape(k)
			if err != nil || u != key {
				continue
			}
		}
		if strings.IndexByte(v, '%') >= 0 || strings.IndexByte(v, '+') >= 0 {
			u, err := url.QueryUnescape(v)
			if err != nil {
				continue // matches url.Values: malformed pair is dropped
			}
			v = u
		}
		return v
	}
	return ""
}

// contentTypeJSON is the shared Content-Type header value for the
// pre-rendered read-plane responses; assigning the cached slice instead of
// Header().Set avoids the per-response []string allocation.
var contentTypeJSON = []string{"application/json"}

// writeRawJSON sends a pre-rendered JSON body (already newline-terminated,
// matching json.Encoder output byte for byte).
func writeRawJSON(w http.ResponseWriter, body []byte) {
	w.Header()["Content-Type"] = contentTypeJSON
	_, _ = w.Write(body)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func writeError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: fmt.Sprintf(format, args...)})
}
