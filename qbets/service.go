package qbets

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Service manages one Forecaster per (queue, processor category), the
// deployment shape the paper's Section 6.2 evaluates: users ask "how long
// would a 32-processor job submitted to normal wait, at worst?".
//
// Service is safe for concurrent use and designed so readers never wait:
// every read API — Forecast, Profile, Observations, StreamStats, Stats —
// runs lock-free against two RCU-published immutable structures:
//
//   - a partitioned copy-on-write stream index (see index.go), the
//     service's one registry: one or two atomic loads resolve a (queue,
//     processor-category) shape to its stream with no locking and no key
//     construction, for the write path too. Creating a stream republishes
//     only the partition it hashes into, O(partition load), so
//     stream-creation churn scales linearly; and
//   - a per-stream forecastSnapshot (bound, monitoring counters,
//     generation number) published under the stream's write lock.
//
// Snapshot publication is amortized, not per-write: an applied
// observation, batch chunk, or replay group bumps the stream's applied
// generation and sets a dirty flag; the snapshot itself is republished on
// the next read that finds the flag set (publish-on-demand, via a
// non-blocking TryLock) or eagerly once publishBacklog events accumulate
// unread. Readers therefore never block, can never observe a half-applied
// batch chunk — publications only happen at chunk boundaries under the
// stream lock — and the write path pays one snapshot allocation per
// read-visible state instead of one per refit. If a writer holds the
// stream lock, readers serve the previous snapshot: bounded staleness,
// never a stale *forecast* for longer than one lock hold + publishBacklog
// applied events.
//
// Each stream also self-monitors the paper's correctness metric online:
// every observation whose wait can be compared against the bound quoted at
// its arrival is a resolved prediction, and the rolling fraction of hits
// (wait <= quoted bound) is tracked against the target quantile q — the
// live analogue of the "correct %" columns of Tables 3–7. A bound that is
// an upper confidence bound on the q quantile covers at least a fraction q
// of waits; the confidence C governs how often that holds, not the rate.
//
// At registry scale (the ROADMAP's millions-of-streams regime), idle
// streams can be evicted to a compact cold form and rehydrated on their
// next write — see evict.go.
type Service struct {
	opts       []Option
	byProcs    atomic.Bool
	quantile   float64
	confidence float64

	nStreams atomic.Int64
	nextSeed atomic.Int64

	// index is the stream registry (index.go): an immutable root of
	// immutable partitions, republished per-partition on stream creation
	// and wholesale when replaceStreams installs a restored set or growth
	// resizes the partition array. A lookup is two atomic loads plus one
	// or two map probes — no locks, no key concatenation. indexMu
	// serializes creation, growth and restore.
	index   atomic.Pointer[streamIndex]
	indexMu sync.Mutex

	// emptyProfile is the quantile profile of a zero-observation stream,
	// computed once and shared by every newly created stream's first
	// snapshot — all empty streams answer Profile identically, so there is
	// no reason to allocate a fresh slice per creation.
	emptyProfile atomic.Pointer[[]Bound]

	// Lifecycle (evict.go). clock is the coarse activity clock streams
	// stamp on writes: eviction passes advance it, so its resolution is
	// the eviction interval — cheap enough for every observe, precise
	// enough for TTLs that are minutes. nCold counts evicted streams;
	// evictions/rehydrations/indexRebuilds feed /metrics.
	clock         atomic.Int64
	nCold         atomic.Int64
	evictions     obs.Counter
	rehydrations  obs.Counter
	indexRebuilds obs.Counter

	// Durability. wal is attached once by RecoverWAL before traffic and
	// never changes; nil means observations are held in memory between
	// snapshots, the pre-WAL behavior. readonly is 1 while log appends are
	// failing (observes are refused rather than silently losing data) and
	// self-heals on the next successful append. The counters feed the
	// server's /metrics.
	wal               *wal.WAL
	restoredSeq       atomic.Uint64 // highest lastSeq anchor of the last restored stream set
	readonly          obs.Gauge
	walAppends        obs.Counter
	walAppendErrors   obs.Counter
	walReplayed       obs.Counter
	walReplayDropped  obs.Counter // replay truncation events (torn/corrupt tails)
	walReplayDroppedB obs.Counter // bytes discarded by those truncations
	walCompactErrors  obs.Counter

	// Replication (replica.go). follower gates the write path: a follower
	// refuses Observe/ObserveBatch with ErrNotLeader and takes state only
	// from its replication session. replApplied is the follower's applied
	// prefix — the highest replicated sequence folded in. commitHook, when
	// set on a leader, runs between a batch's durable append and its
	// apply (synchronous replication: the ack waits for a follower).
	follower    atomic.Bool
	replApplied atomic.Uint64
	commitHook  func(lastSeq uint64) error

	// replMu serializes ApplyReplicated, which groups every shipped batch
	// in the same replBatch and replSc instead of allocating per batch.
	replMu    sync.Mutex
	replBatch []replayRecord
	replSc    replayScratch

	// Chunked catch-up (replicastream.go). snapChunkStreams is the
	// per-chunk stream count for outgoing snapshot streams (0 = default);
	// pendingSnap accumulates an incoming chunked install until commit.
	snapChunkStreams atomic.Int64
	pendingSnapMu    sync.Mutex
	pendingSnap      *pendingReplicaSnapshot
}

// streamLockIDs numbers streams as they are constructed (stream.lockID).
var streamLockIDs atomic.Uint64

// ErrInvalidWait rejects observations whose wait is NaN, infinite, or
// negative — none of which can be a queue delay, and any of which would
// poison the order statistics every future bound is computed from.
var ErrInvalidWait = errors.New("qbets: wait_seconds must be finite and non-negative")

// ErrReadOnly reports that the service is refusing observations because
// write-ahead-log appends are failing: accepting an observation it cannot
// make durable would silently violate the crash-safety contract. Forecasts
// and status reads keep working; the mode clears itself as soon as an
// append succeeds again.
var ErrReadOnly = errors.New("qbets: read-only: observation log appends are failing")

// cacheSlotWhole is the stream-index slot for whole-queue streams (byProcs
// off); slots below it are indexed by processor category.
const cacheSlotWhole = int(trace.NumProcBuckets)

// publishBacklog bounds how many applied-but-unpublished events a stream
// may accumulate before the write path publishes eagerly. Reads publish on
// demand, so this only matters for write-heavy streams nobody reads
// between scrapes: their snapshot (and therefore /metrics and the
// state-save fallback for cold streams) lags at most this many events.
const publishBacklog = 64

// forecastSnapshot is the immutable answer the read plane serves: the
// stream's current bound and self-monitoring state, published (a fresh
// allocation, never mutated — except the profile cache below) under the
// stream's write lock. gen starts at 1 on stream creation and advances by
// exactly one per applied Observe, ObserveBatch chunk, or replay group —
// whether or not a snapshot was published for the intermediate states —
// so a reader can order the states it sees and tests can assert that
// every visible state lies on a chunk boundary.
type forecastSnapshot struct {
	gen              uint64
	boundSeconds     float64
	boundOK          bool
	observations     int
	minObservations  int
	rollingHitRate   float64
	rollingResolved  int
	lifetimeHits     uint64
	lifetimeResolved uint64
	trims            int
	lastTrimUnix     int64

	// profile is the Table 8 quantile profile for this snapshot's state,
	// computed lazily on the first Profile call that lands on the snapshot
	// (under the stream lock) and cached here — publish-on-read twice
	// over: most snapshots are never asked for a profile, so publication
	// does not pay for one. The pointed-to slice is immutable and shared
	// with every Profile caller.
	profile atomic.Pointer[[]Bound]
}

// hitRateWindow is the number of resolved predictions the rolling
// correctness estimate covers. Around 500 the binomial noise on the rate
// (±2σ ≈ 0.02 at C = 0.95) is small against the 0.05 slack the paper's
// tables examine, while the window still reacts to regime changes within
// a few hundred jobs.
const hitRateWindow = 500

// stream couples one Forecaster with its own lock and monitoring state.
// The lock serializes writers (observe, batch apply, replay, serialize,
// evict); readers go through snap, the RCU-published forecastSnapshot,
// and only ever *try* the lock (publish-on-demand) — they never wait on
// it.
type stream struct {
	key string
	mu  sync.RWMutex
	// lockID places mu in the global lock order (see observeChunk): drawn
	// once at construction from streamLockIDs, so unique and fixed.
	lockID uint64
	fc     *Forecaster
	// hit (guarded by mu) is the stream's hit-rate tracker, built at its
	// first live-scored observation: recovery, replication and adoption
	// score nothing, and nil reads as an empty tracker.
	hit  *obs.RollingRate
	snap atomic.Pointer[forecastSnapshot]

	// dirty is set (under mu) when applied state is newer than the
	// published snapshot and cleared by publishLocked. Readers poll it to
	// decide whether a publish-on-demand attempt is worthwhile.
	dirty atomic.Bool

	// lastProfile is the most recently computed quantile profile, kept as
	// a fallback so Profile can answer without blocking even when the
	// current snapshot's profile has not been computed and the stream
	// lock is held by a writer. Stale by at most the same bound as the
	// snapshot itself.
	lastProfile atomic.Pointer[[]Bound]

	// lastTouch is the service's coarse clock value at the stream's last
	// write (creation, observe, replay); eviction passes compare it
	// against their TTL cutoff. Reads do not touch it — serving a cold
	// stream's snapshot is free, so read traffic alone never keeps a
	// stream hydrated.
	lastTouch atomic.Int64

	// evicted mirrors fc == nil for lock-free observers (eviction passes,
	// metrics); the authoritative state is fc, guarded by mu.
	evicted atomic.Bool

	// appliedGen (guarded by mu) counts applied events — observations,
	// batch chunks, replay groups — since stream creation or adoption.
	// The published snapshot's gen is appliedGen+1 at publication time.
	appliedGen uint64

	// cold (guarded by mu) is the serialized forecaster while evicted
	// (fc == nil): exactly what MarshalBinary would have produced, ready
	// to be written to a state snapshot or rehydrated on the next write.
	cold []byte

	// Trim tracking (guarded by mu): trimsSeen mirrors fc.ChangePoints()
	// after each observe so the wall-clock time of the latest trim can be
	// recorded as it happens.
	trimsSeen    int
	lastTrimUnix int64

	// lastSeq (guarded by mu) is the WAL sequence number of the newest
	// observation folded into fc — 0 before any logged observation. It is
	// serialized with the stream, which is what makes snapshot + log-tail
	// recovery exact: replay skips records at or below it, so nothing is
	// double-applied and nothing is lost.
	lastSeq uint64
}

// StreamStatus is a point-in-time snapshot of one stream's state and
// self-monitoring metrics.
type StreamStatus struct {
	// Stream is the registry key ("queue" or "queue/bucket").
	Stream string
	// Observations and MinObservations report history depth vs. the
	// minimum needed for a bound.
	Observations    int
	MinObservations int
	// BoundSeconds is the current bound (valid when BoundOK).
	BoundSeconds float64
	BoundOK      bool
	// RollingHitRate is the fraction of the last RollingResolved resolved
	// predictions whose wait fell within the quoted bound; the paper's
	// correctness metric, computed online. Compare against
	// TargetQuantile: a healthy stream sits at or above it.
	RollingHitRate  float64
	RollingResolved int
	// LifetimeHits / LifetimeResolved are totals since stream creation.
	LifetimeHits     uint64
	LifetimeResolved uint64
	// Trims counts change-point events; LastTrimUnix is the wall-clock
	// second of the most recent one (0 if none).
	Trims        int
	LastTrimUnix int64
	// TargetQuantile / TargetConfidence echo the service configuration.
	TargetQuantile   float64
	TargetConfidence float64
	// Generation numbers the published forecast snapshot this status was
	// read from: 1 at stream creation, +1 per applied observation, batch
	// chunk, or replay group. It is monotone for the life of a stream (a
	// wholesale restore starts new streams over at 1) and is exported as
	// the qbets_forecast_generation metric.
	Generation uint64
}

// NewService returns an empty Service. splitByProcs selects whether each
// queue is modeled as one stream or as four per-category streams.
func NewService(splitByProcs bool, opts ...Option) *Service {
	c := config{quantile: 0.95, confidence: 0.95}
	for _, o := range opts {
		o(&c)
	}
	s := &Service{opts: opts, quantile: c.quantile, confidence: c.confidence}
	s.byProcs.Store(splitByProcs)
	s.index.Store(newStreamIndex(indexInitialPartitions))
	s.clock.Store(time.Now().UnixNano())
	return s
}

// Quantile returns the resolved quantile streams are configured with.
func (s *Service) Quantile() float64 { return s.quantile }

// Confidence returns the resolved confidence level streams are configured
// with.
func (s *Service) Confidence() float64 { return s.confidence }

// lookup returns the stream for a key without creating it: two atomic
// loads of the published index, no locking. A stream whose creation has
// not yet republished its partition is momentarily invisible here, which
// reads the same as arriving just before the creation.
func (s *Service) lookup(key string) *stream {
	return s.index.Load().lookupKey(key)
}

// getOrCreate returns the stream for a key, creating it on first use. A
// miss re-checks under indexMu, which every creation holds, so a key is
// created once however many callers race for it; by the time this
// returns the new stream is visible to lock-free readers.
func (s *Service) getOrCreate(key string) *stream {
	if st := s.lookup(key); st != nil {
		return st
	}
	s.indexMu.Lock()
	defer s.indexMu.Unlock()
	if st := s.lookup(key); st != nil {
		return st
	}
	st := s.newStream(key)
	s.nStreams.Add(1)
	s.indexInsertLocked(key, st)
	return st
}

// splitKey inverts keyForSlot under a routing mode: whole-queue keys map
// to the queue itself, per-category keys split at the trailing
// "/<bucket label>".
func splitKey(key string, byProcs bool) (queue string, slot int, ok bool) {
	if !byProcs {
		return key, cacheSlotWhole, true
	}
	for b := 0; b < int(trace.NumProcBuckets); b++ {
		label := ProcCategory(b).Label()
		if len(key) > len(label)+1 && key[len(key)-len(label)-1] == '/' && key[len(key)-len(label):] == label {
			return key[:len(key)-len(label)-1], b, true
		}
	}
	return "", 0, false
}

// slotOf maps a processor count to its streamCache slot under the current
// routing mode. Batch callers capture the slots for a whole chunk before
// resolving streams, so one chunk can never see two routing modes.
func (s *Service) slotOf(procs int) int {
	if !s.byProcs.Load() {
		return cacheSlotWhole
	}
	return int(CategoryOf(procs))
}

// keyForSlot builds the registry key for a queue and cache slot.
func (s *Service) keyForSlot(queue string, slot int) string {
	if slot == cacheSlotWhole {
		return queue
	}
	return queue + "/" + ProcCategory(slot).Label()
}

// streamForSlot resolves (queue, slot) to its stream through the published
// index — the hot ingest path, two atomic loads and two map reads with no
// key construction — falling back to key construction + getOrCreate on a
// miss. There is no insert-back step: getOrCreate republishes the
// partition, so the next call hits.
func (s *Service) streamForSlot(queue string, slot int) *stream {
	if arr := s.index.Load().lookupQueue(queue); arr != nil && arr[slot] != nil {
		return arr[slot]
	}
	return s.getOrCreate(s.keyForSlot(queue, slot))
}

// readStream is the forecast-plane lookup: (queue, procs) to stream with
// zero locks and zero allocations, never creating anything. nil means the
// shape is unknown.
func (s *Service) readStream(queue string, procs int) *stream {
	arr := s.index.Load().lookupQueue(queue)
	if arr == nil {
		return nil
	}
	return arr[s.slotOf(procs)]
}

// newStream builds a settled stream: the forecaster's lazily-computed
// bound is materialized up front so read paths stay mutation-free, and the
// first forecast snapshot (generation 1) is published before the stream
// becomes reachable. The empty-stream profile is shared service-wide —
// every zero-observation stream answers Profile identically.
func (s *Service) newStream(key string) *stream {
	seed := s.nextSeed.Add(1) - 1
	opts := append([]Option{WithSeed(seed)}, s.opts...)
	fc := New(opts...)
	fc.Forecast()
	st := &stream{key: key, lockID: streamLockIDs.Add(1), fc: fc}
	st.lastTouch.Store(s.clock.Load())
	st.publishLocked()
	p := s.sharedEmptyProfile()
	st.snap.Load().profile.Store(p)
	st.lastProfile.Store(p)
	return st
}

// sharedEmptyProfile computes (once) the profile every zero-observation
// stream shares: no entry can be OK without history, so the result does
// not depend on the per-stream seed.
func (s *Service) sharedEmptyProfile() *[]Bound {
	if p := s.emptyProfile.Load(); p != nil {
		return p
	}
	fc := New(s.opts...)
	p := fc.Profile()
	s.emptyProfile.CompareAndSwap(nil, &p)
	return s.emptyProfile.Load()
}

// publishLocked derives a fresh immutable forecastSnapshot from the
// forecaster and monitoring state and RCU-publishes it, clearing the dirty
// flag. Callers hold the stream's write lock (or, on the creation paths,
// sole ownership) and the forecaster must be settled — every write path
// refits eagerly before marking dirty. The snapshot's generation is
// appliedGen+1, so however many publications were skipped in between,
// every *published* state carries the generation of the apply that
// produced it — which is what keeps the chunk-coherence oracle exact
// under lazy publication.
func (st *stream) publishLocked() {
	bound, ok := st.fc.Forecast()
	rate, n := st.hit.Rate()
	hits, total := st.hit.Lifetime()
	st.snap.Store(&forecastSnapshot{
		gen:              st.appliedGen + 1,
		boundSeconds:     bound,
		boundOK:          ok,
		observations:     st.fc.Observations(),
		minObservations:  st.fc.MinObservations(),
		rollingHitRate:   rate,
		rollingResolved:  n,
		lifetimeHits:     hits,
		lifetimeResolved: total,
		trims:            st.fc.ChangePoints(),
		lastTrimUnix:     st.lastTrimUnix,
	})
	st.dirty.Store(false)
}

// markDirtyLocked records one applied event: the generation advances, the
// stream is stamped on the activity clock, and the dirty flag invites the
// next reader to publish. Publication happens here only when the backlog
// of unpublished events reaches publishBacklog, so an unread, write-hot
// stream still surfaces a recent state to /metrics scrapes and cold-path
// state saves.
func (st *stream) markDirtyLocked(s *Service) {
	st.appliedGen++
	if !st.dirty.Load() {
		st.dirty.Store(true)
	}
	if c := s.clock.Load(); st.lastTouch.Load() != c {
		st.lastTouch.Store(c)
	}
	if st.appliedGen+1-st.snap.Load().gen >= publishBacklog {
		st.publishLocked()
	}
}

// loadSnap returns the stream's published snapshot, first publishing any
// applied-but-unpublished state if the stream lock is free
// (publish-on-demand). If a writer holds the lock the previous snapshot is
// served — the read never blocks, and the staleness is bounded by one lock
// hold plus publishBacklog events.
func (st *stream) loadSnap() *forecastSnapshot {
	if st.dirty.Load() && st.mu.TryLock() {
		if st.dirty.Load() && st.fc != nil {
			st.publishLocked()
		}
		st.mu.Unlock()
	}
	return st.snap.Load()
}

// applyRunLocked is BMBP's per-wait state transition, applied to one
// stream's run of records in log order under the caller's write lock — by
// live ingest, WAL recovery and replication alike. Each record folds in on
// its own (scoring is per-record by definition, so final state depends
// only on the wait sequence); the refit, lastSeq advance, trim bookkeeping
// and generation bump run once per run.
//
// live is the callers' one difference. Live ingest scores each record
// against the bound its job would have been quoted and never skips a
// record it has just logged (seq is 0 without a WAL). Recovery and
// replication skip records at or below the stream's lastSeq anchor and
// score nothing: this process never made those quotes.
func (st *stream) applyRunLocked(s *Service, run []replayRecord, live bool) {
	applied := false
	for _, r := range run {
		if !live && r.seq <= st.lastSeq {
			continue
		}
		if live {
			if bound, ok := st.fc.Forecast(); ok {
				if st.hit == nil {
					st.hit = obs.NewRollingRate(hitRateWindow)
				}
				st.hit.Record(r.wait <= bound)
			}
		}
		st.fc.Observe(r.wait)
		if r.seq > st.lastSeq {
			st.lastSeq = r.seq
		}
		applied = true
	}
	if !applied {
		return
	}
	st.fc.Forecast() // eager refit: read paths must never find a stale bound
	if tr := st.fc.ChangePoints(); tr != st.trimsSeen {
		st.trimsSeen = tr
		st.lastTrimUnix = time.Now().Unix()
	}
	// One generation per run: readers see whole runs or nothing.
	st.markDirtyLocked(s)
}

// replayInFlight is how many decoded records RecoverWAL's apply workers
// take per batch between them: each of w workers is handed batches of
// replayBatch(w) = replayInFlight/w records. A batch is grouped into
// per-stream runs, and each run pays one lock hold, one settle and one
// publication, so runs must span several records: a log interleaving
// 10,000 streams round-robin gives runs of 6.5 records on any worker
// count. Fixing the total rather than the per-worker size also fixes the
// start-up cost, since a worker starts only once the decoder has filled
// its first batch: about replayInFlight records on any core count
// (docs/PERFORMANCE.md has the sweep this size came from). A batch is
// garbage once its worker has applied it, so the size leaves the settled
// heap unchanged.
const replayInFlight = 65536

// replayBatch is the batch size of each of workers apply workers.
func replayBatch(workers int) int { return max(1, replayInFlight/workers) }

// replayRecord is one record of a per-stream run, already resolved to its
// stream: a decoded log record bound for a recovery or replication apply,
// or an ingested wait with the sequence number its WAL append assigned.
type replayRecord struct {
	st   *stream
	wait float64
	seq  uint64
}

// replayScratch is the grouping state of the three apply paths, reused
// across batches: one per RecoverWAL apply worker, the service's for
// ApplyReplicated (under replMu), and one in each pooled chunkScratch for
// ObserveBatch. Recovery's is never pooled: a pool would keep its
// transient batches counted in the live heap after the restart.
type replayScratch struct {
	group   map[*stream]int32 // stream -> its group in this batch
	streams []*stream         // group -> stream, in first-appearance order
	starts  []int32           // group -> start of its run in sorted; starts[G] = len(batch)
	of      []int32           // batch record -> its group
	sorted  []replayRecord    // the batch grouped, batch order within a group; st is nil
}

// groupRuns lays batch out in sc.sorted as per-stream runs, a counting
// sort keyed by stream pointer: linear in the batch, batch order within a
// run. Group g is sc.streams[g] with run sc.sorted[sc.starts[g]:sc.starts[g+1]].
func (sc *replayScratch) groupRuns(batch []replayRecord) {
	sc.streams, sc.starts, sc.of = sc.streams[:0], sc.starts[:0], sc.of[:0]
	if sc.group == nil {
		sc.group = make(map[*stream]int32)
	}
	var g int32
	for i := range batch {
		switch {
		case i == 0: // a one-stream batch never touches the table
			sc.streams, sc.starts = append(sc.streams, batch[0].st), append(sc.starts, 0)
		case batch[i].st != batch[i-1].st: // else the previous record's group
			if len(sc.group) == 0 {
				sc.group[sc.streams[0]] = 0
			}
			var ok bool
			if g, ok = sc.group[batch[i].st]; !ok {
				g = int32(len(sc.streams))
				sc.group[batch[i].st] = g
				sc.streams = append(sc.streams, batch[i].st)
				sc.starts = append(sc.starts, 0)
			}
		}
		sc.starts[g]++
		sc.of = append(sc.of, g)
	}
	clear(sc.group)
	var at int32
	for g, n := range sc.starts {
		at += n
		sc.starts[g] = at // the run's end until the placement below
	}
	sc.starts = append(sc.starts, at)
	// Placing back to front keeps batch order within a run and leaves each
	// group's entry at its run's start.
	sc.sorted = slices.Grow(sc.sorted[:0], len(batch))[:len(batch)]
	for i := len(batch) - 1; i >= 0; i-- {
		g := sc.of[i]
		sc.starts[g]--
		sc.sorted[sc.starts[g]] = replayRecord{wait: batch[i].wait, seq: batch[i].seq}
	}
}

// apply groups batch and folds each run in one lock hold through
// applyRunLocked. A cold stream rehydrates only if its run reaches past
// its lastSeq (runs are in log order, so the last record decides), so a
// re-sent batch or a log tail a snapshot covers decodes no blob. apply
// returns the first rehydration failure; that stream's run is skipped,
// every other run still applies. The scratch holds no stream once apply
// returns, so it pins nothing a restore has since replaced.
func (sc *replayScratch) apply(s *Service, batch []replayRecord) error {
	sc.groupRuns(batch)
	var firstErr error
	for g, st := range sc.streams {
		run := sc.sorted[sc.starts[g]:sc.starts[g+1]]
		st.mu.Lock()
		var err error
		if st.fc == nil && run[len(run)-1].seq > st.lastSeq {
			err = st.rehydrateLocked(s)
		}
		if err == nil {
			st.applyRunLocked(s, run, false)
		} else if firstErr == nil {
			firstErr = err
		}
		st.mu.Unlock()
	}
	clear(sc.streams)
	return firstErr
}

// BatchError reports a batch that was refused or cut short at a specific
// record: records before Index were applied (and are durable under the
// WAL's sync policy), records at and after it were not. Err carries the
// cause — errors.Is(err, ErrReadOnly) means the observation log stopped
// taking appends mid-batch (or, under synchronous replication, a chunk's
// commit wait failed after it was applied — Index then equals the applied
// count) and the client should retry the remainder after the Retry-After
// interval; ErrInvalidWait means the batch was rejected up front without
// applying anything; ErrNotLeader means this node is a replication
// follower and the whole batch must go to the leader.
type BatchError struct {
	Index int
	Err   error
}

func (e *BatchError) Error() string { return fmt.Sprintf("record %d: %v", e.Index, e.Err) }
func (e *BatchError) Unwrap() error { return e.Err }

// observeBatchChunk is how many records one WAL append — and, under
// sync=always, one fsync — covers. It bounds how much work a single
// multi-stream lock hold can pin and is the granularity of partial
// failure: a batch dies on a chunk boundary, so ObserveBatch's applied
// count is exact.
const observeBatchChunk = 256

// chunkScratch is the memory observeChunk lays a chunk out in; its slices
// grow to a chunk on first use. ObserveBatch pools them uncleared: the
// pool drops idle scratch at each GC, so what one still references is
// pinned for at most two cycles.
type chunkScratch struct {
	replayScratch
	recs    []replayRecord // the chunk resolved, chunk order
	order   []uint64       // groups in lock order
	entries []wal.Entry
}

var chunkScratchPool = sync.Pool{New: func() any { return new(chunkScratch) }}

// ObserveBatch records a batch of completed waits, amortizing the write
// path: records are grouped by stream, each chunk is appended to the WAL
// as one batch (one fsync under sync=always, against one per record for
// the loop-over-Observe equivalent), and each stream's group is applied
// under a single lock acquisition. Final predictor state is identical to
// calling Observe once per record in order.
//
// On success it returns (len(records), nil). A record that cannot be a
// queue delay rejects the whole batch up front — (0, *BatchError wrapping
// ErrInvalidWait) — applying nothing. If the observation log stops taking
// appends partway through, every record before the returned count was
// applied and durable, no later record was, and the *BatchError (wrapping
// ErrReadOnly) carries the index of the first unapplied record so the
// client can retry exactly the remainder.
func (s *Service) ObserveBatch(records []ObserveRecord) (applied int, err error) {
	for i := range records {
		w := records[i].WaitSeconds
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return 0, &BatchError{Index: i, Err: ErrInvalidWait}
		}
	}
	if s.follower.Load() {
		return 0, &BatchError{Index: 0, Err: ErrNotLeader}
	}
	if len(records) == 0 {
		return 0, nil
	}
	var sc *chunkScratch // a one-record batch (every Observe is one) needs none
	if len(records) > 1 {
		sc = chunkScratchPool.Get().(*chunkScratch)
		defer chunkScratchPool.Put(sc)
	}
	for base := 0; base < len(records); base += observeBatchChunk {
		end := min(base+observeBatchChunk, len(records))
		last, cerr := s.observeChunk(records[base:end], sc)
		if cerr != nil {
			return base, &BatchError{Index: base, Err: cerr}
		}
		applied = end
		// Synchronous replication gates the ack per chunk, outside every
		// stream lock, so a commit wait can ride out a concurrent catch-up
		// snapshot (which read-locks every stream). The chunk is applied
		// and durable locally, so the reported count stays truthful, but
		// the client is not acked past a failed commit wait: retry after
		// heal at worst re-records a real wait, while acking un-replicated
		// data could lose it in a failover.
		if s.commitHook != nil && last > 0 {
			if herr := s.commitHook(last); herr != nil {
				return applied, &BatchError{Index: applied, Err: fmt.Errorf("%w: replication: %v", ErrReadOnly, herr)}
			}
		}
	}
	return applied, nil
}

// observeChunk resolves, groups, logs, and applies one chunk, returning
// its last log sequence (0 when no WAL is attached). The chunk is atomic:
// either every record is appended (one AppendBatch, in chunk order) and
// applied, or none is. All affected stream write locks are held across
// append-then-apply, so a concurrent snapshot's (state, lastSeq) view
// stays consistent and compaction can never delete a segment whose
// records some stream has not yet folded in. Evicted streams rehydrate
// after the locks are taken and before anything is appended, so a
// rehydration failure applies nothing.
//
// Lock order: observeChunk is the only holder of several stream locks,
// and it takes them in ascending lockID, a strict global order (lock IDs
// are unique and fixed), so concurrent batches over overlapping streams
// cannot deadlock. Every other path holds one stream lock at a time.
func (s *Service) observeChunk(chunk []ObserveRecord, sc *chunkScratch) (uint64, error) {
	if len(chunk) == 1 {
		return s.observeOne(chunk[0])
	}
	// Records resolve in chunk order, so streams are created (and seeded)
	// in first-appearance order, under one routing mode per chunk; a
	// record with the previous record's shape reuses its stream. seq holds
	// the chunk offset until the append assigns sequence numbers.
	byProcs := s.byProcs.Load()
	sc.recs = slices.Grow(sc.recs[:0], len(chunk))[:len(chunk)]
	var st *stream
	prev := -1
	for i := range chunk {
		slot := cacheSlotWhole
		if byProcs {
			slot = int(CategoryOf(chunk[i].Procs))
		}
		if slot != prev || chunk[i].Queue != chunk[i-1].Queue {
			st, prev = s.streamForSlot(chunk[i].Queue, slot), slot
		}
		sc.recs[i] = replayRecord{st: st, wait: chunk[i].WaitSeconds, seq: uint64(i)}
	}
	sc.groupRuns(sc.recs)
	// Each order entry packs a group's lock ID above its index (a chunk
	// has at most 256 groups), so a plain integer sort gives lock order.
	sc.order = sc.order[:0]
	for g, st := range sc.streams {
		sc.order = append(sc.order, st.lockID<<8|uint64(g))
	}
	slices.Sort(sc.order)
	for _, o := range sc.order {
		sc.streams[o&0xff].mu.Lock()
	}
	defer func() {
		for _, st := range sc.streams {
			st.mu.Unlock()
		}
	}()
	for _, st := range sc.streams {
		if st.fc == nil {
			if err := st.rehydrateLocked(s); err != nil {
				return 0, err
			}
		}
	}
	var last uint64
	if s.wal == nil {
		for i := range sc.sorted {
			sc.sorted[i].seq = 0 // no log, no sequence numbers
		}
	} else {
		// Records carry the WAL's coarse clock (exact to the last sync):
		// the timestamp is forensic — recovery replays by sequence, not
		// time — and a per-chunk time syscall would be pure overhead.
		now := s.wal.CoarseUnixNanos()
		sc.entries = sc.entries[:0]
		for _, r := range sc.recs {
			sc.entries = append(sc.entries, wal.Entry{Key: r.st.key, Wait: r.wait, UnixNanos: now})
		}
		firstSeq, err := s.logEntries(sc.entries)
		if err != nil {
			return 0, err
		}
		for i := range sc.sorted {
			sc.sorted[i].seq += firstSeq
		}
		last = firstSeq + uint64(len(chunk)) - 1
	}
	for g, st := range sc.streams {
		st.applyRunLocked(s, sc.sorted[sc.starts[g]:sc.starts[g+1]], true)
	}
	return last, nil
}

// observeOne is observeChunk for a one-record chunk (every Observe): the
// record is its own run, so it needs no grouping, lock order or scratch.
func (s *Service) observeOne(r ObserveRecord) (uint64, error) {
	st := s.streamForSlot(r.Queue, s.slotOf(r.Procs))
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.fc == nil {
		if err := st.rehydrateLocked(s); err != nil {
			return 0, err
		}
	}
	run := [1]replayRecord{{wait: r.WaitSeconds}}
	if s.wal != nil {
		entry := [1]wal.Entry{{Key: st.key, Wait: r.WaitSeconds, UnixNanos: s.wal.CoarseUnixNanos()}}
		var err error
		if run[0].seq, err = s.logEntries(entry[:]); err != nil {
			return 0, err
		}
	}
	st.applyRunLocked(s, run[:], true)
	return run[0].seq, nil
}

// logEntries appends a chunk's entries to the WAL as one batch and
// returns the first one's sequence number. A failed append latches the
// service read-only; the next successful one clears the latch.
func (s *Service) logEntries(entries []wal.Entry) (uint64, error) {
	firstSeq, err := s.wal.AppendBatch(entries)
	if err != nil {
		s.walAppendErrors.Inc()
		s.readonly.Set(1)
		return 0, fmt.Errorf("%w: %v", ErrReadOnly, err)
	}
	s.walAppends.Add(uint64(len(entries)))
	// Clear the read-only latch only when it is actually set: an
	// unconditional store would bounce the gauge's cacheline between
	// every observing core.
	if s.readonly.Value() != 0 {
		s.readonly.Set(0)
	}
	return firstSeq, nil
}

// status renders the stream's published snapshot as a StreamStatus,
// publishing pending state on demand — no blocking, no allocations beyond
// a possible publish.
func (st *stream) status(q, c float64) StreamStatus {
	snap := st.loadSnap()
	return StreamStatus{
		Stream:           st.key,
		Observations:     snap.observations,
		MinObservations:  snap.minObservations,
		BoundSeconds:     snap.boundSeconds,
		BoundOK:          snap.boundOK,
		RollingHitRate:   snap.rollingHitRate,
		RollingResolved:  snap.rollingResolved,
		LifetimeHits:     snap.lifetimeHits,
		LifetimeResolved: snap.lifetimeResolved,
		Trims:            snap.trims,
		LastTrimUnix:     snap.lastTrimUnix,
		TargetQuantile:   q,
		TargetConfidence: c,
		Generation:       snap.gen,
	}
}

// Observe records a completed wait for a queue and processor count: a
// one-record ObserveBatch. It returns ErrInvalidWait for waits that cannot
// be queue delays (NaN, Inf, negative), ErrNotLeader on a follower, and
// ErrReadOnly (wrapped, with the cause) when a write-ahead log is attached
// and the append failed — in that case the observation was NOT recorded,
// by design: refusing is recoverable, silent loss is not — or when a
// synchronous-replication commit wait failed after the record was applied.
func (s *Service) Observe(queue string, procs int, waitSeconds float64) error {
	rec := [1]ObserveRecord{{Queue: queue, Procs: procs, WaitSeconds: waitSeconds}}
	if _, err := s.ObserveBatch(rec[:]); err != nil {
		return err.(*BatchError).Err // ObserveBatch fails only with *BatchError
	}
	return nil
}

// Forecast returns the bound a job with the given shape would be quoted.
// ok is false when the stream is unknown or its history is too short;
// asking about a never-observed shape does not create a stream.
//
// Forecast never blocks and allocates nothing in steady state: two atomic
// index loads, one snapshot load — plus a non-blocking publish if pending
// writes have not been surfaced yet. It cannot be delayed by concurrent
// ingest, refits, or snapshot saves on the same stream.
func (s *Service) Forecast(queue string, procs int) (seconds float64, ok bool) {
	st := s.readStream(queue, procs)
	if st == nil {
		return 0, false
	}
	snap := st.loadSnap()
	return snap.boundSeconds, snap.boundOK
}

// Profile returns the Table 8 quantile profile for a job shape, or nil if
// the stream is unknown.
//
// The returned slice is the published immutable snapshot's profile, shared
// with every concurrent caller — treat it as read-only. Mutating it is a
// data race. Profiles are computed on demand: the first call after a write
// computes and caches the profile for the current snapshot (under the
// stream lock if it is free; otherwise the previous profile is served,
// same staleness bound as Forecast). This is what makes steady-state
// Profile allocation-free; copy the slice if you need to edit it.
func (s *Service) Profile(queue string, procs int) []Bound {
	st := s.readStream(queue, procs)
	if st == nil {
		return nil
	}
	return st.profile()
}

// profile serves the stream's quantile profile from the published
// snapshot, computing it on demand. Order of preference: the current
// snapshot's cached profile; compute-and-cache under a non-blocking
// TryLock; the last profile ever computed (bounded staleness, same rule
// as loadSnap); and — only for a stream that has never computed one — a
// blocking compute.
func (st *stream) profile() []Bound {
	snap := st.loadSnap()
	if p := snap.profile.Load(); p != nil {
		return *p
	}
	if st.mu.TryLock() {
		p := st.fillProfileLocked()
		st.mu.Unlock()
		if p != nil {
			return *p
		}
	}
	if p := st.lastProfile.Load(); p != nil {
		return *p
	}
	st.mu.Lock()
	p := st.fillProfileLocked()
	st.mu.Unlock()
	if p != nil {
		return *p
	}
	return nil
}

// fillProfileLocked computes the profile for the stream's current state
// and caches it on the published snapshot (and the stream's lastProfile
// fallback). A cold stream's profile comes from its blob decoded into a
// forecaster that is dropped afterwards, so a read never rehydrates; nil
// means that blob is corrupt. Caller holds the stream's write lock.
func (st *stream) fillProfileLocked() *[]Bound {
	fc := st.fc
	if fc != nil && st.dirty.Load() {
		st.publishLocked()
	}
	snap := st.snap.Load()
	if p := snap.profile.Load(); p != nil {
		return p
	}
	if fc == nil {
		var err error
		if fc, err = st.decodeColdLocked(); err != nil {
			return nil
		}
	}
	p := fc.Profile()
	snap.profile.Store(&p)
	st.lastProfile.Store(&p)
	return &p
}

// Observations returns the history length behind a job shape's stream
// (0 for unknown streams).
func (s *Service) Observations(queue string, procs int) int {
	st := s.readStream(queue, procs)
	if st == nil {
		return 0
	}
	return st.loadSnap().observations
}

// Queues lists the streams the service currently tracks, sorted by stream
// key (a k-way merge of the index partitions' sorted key lists).
func (s *Service) Queues() []string {
	idx := s.index.Load()
	out := make([]string, 0, idx.count())
	idx.forEachOrdered(func(k string, _ *stream) bool {
		out = append(out, k)
		return true
	})
	return out
}

// NumStreams returns how many streams the service tracks.
func (s *Service) NumStreams() int { return int(s.nStreams.Load()) }

// LiveStreams returns how many streams currently hold a hydrated
// forecaster in memory (NumStreams minus the evicted ones).
func (s *Service) LiveStreams() int { return int(s.nStreams.Load() - s.nCold.Load()) }

// StreamStats returns the status snapshot for one job shape. ok is false
// for unknown streams. Like Forecast, it never blocks and allocates
// nothing in steady state.
func (s *Service) StreamStats(queue string, procs int) (StreamStatus, bool) {
	st := s.readStream(queue, procs)
	if st == nil {
		return StreamStatus{}, false
	}
	return st.status(s.quantile, s.confidence), true
}

// Stats returns status snapshots for every stream, sorted by stream key.
// It walks the published index, so it takes no locks and cannot stall or
// be stalled by ingest.
func (s *Service) Stats() []StreamStatus {
	return s.StatsLimit(0)
}

// StatsLimit returns status snapshots for the first limit streams in key
// order (all of them when limit <= 0). The ordered walk stops as soon as
// the limit is reached, so asking a million-stream registry for its first
// hundred streams costs a hundred statuses, not a million.
func (s *Service) StatsLimit(limit int) []StreamStatus {
	idx := s.index.Load()
	n := idx.count()
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]StreamStatus, 0, n)
	idx.forEachOrdered(func(_ string, st *stream) bool {
		out = append(out, st.status(s.quantile, s.confidence))
		return limit <= 0 || len(out) < limit
	})
	return out
}

// replaceStreams swaps in a freshly restored stream set (state.go):
// readers mid-flight keep operating on streams from the old set, which
// matches wholesale-restore semantics. The new root is built from the
// restored set alone under indexMu, so no old-set stream and no
// concurrent creation leaks in; once this returns, every lock-free reader
// resolves streams (and therefore forecast snapshots) from the restored
// set only.
func (s *Service) replaceStreams(streams map[string]*stream) {
	var cold int64
	var seq uint64
	for _, st := range streams {
		if st.evicted.Load() {
			cold++
		}
		seq = max(seq, st.lastSeq) // the set is not yet published: no lock needed
	}
	s.restoredSeq.Store(seq)
	s.indexMu.Lock()
	defer s.indexMu.Unlock()
	s.nStreams.Store(int64(len(streams)))
	s.nCold.Store(cold)
	s.rebuildIndexLocked(func(fn func(string, *stream)) {
		for k, st := range streams {
			fn(k, st)
		}
	})
}

// RecoverWAL replays w's surviving records on top of the service's current
// state — typically a freshly restored snapshot — and attaches w so every
// subsequent Observe is logged before it mutates a stream. Records a
// stream's snapshot already covers (sequence number at or below the
// stream's persisted lastSeq) are skipped, so the merge is exact: each
// observation lands exactly once whatever the crash timing. Torn or
// corrupt log tails are tolerated (truncated and counted, never fatal).
//
// RecoverWAL must be called once, before the service takes traffic.
//
// Replay decodes on one goroutine and applies on GOMAXPROCS: each key is
// resolved to its stream on its first record, in log order (so stream
// creation, and with it seed assignment, matches record-at-a-time
// replay), and each record is handed to the apply worker its key hashes
// to. A stream belongs to exactly one worker, so within a stream the
// log's order is preserved exactly, and streams are independent, so
// recovered state matches record-at-a-time replay. Each worker folds a
// batch of replayBatch(GOMAXPROCS) records as per-stream runs
// (replayScratch.apply); a stream's records may straddle batches, each
// batch's share its own run. A cold-adopted stream (sharded restore)
// rehydrates before the first run that reaches past its lastSeq; the
// first rehydration failure is returned after every other stream has
// replayed.
func (s *Service) RecoverWAL(w *wal.WAL) (wal.ReplayStats, error) {
	workers := runtime.GOMAXPROCS(0)
	batchLen := replayBatch(workers)
	queues := make([]chan []replayRecord, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := range queues {
		// Two queued batches keep a worker busy while the decoder fills
		// its next one.
		queues[i] = make(chan []replayRecord, 2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc replayScratch
			for batch := range queues[i] {
				if err := sc.apply(s, batch); err != nil && errs[i] == nil {
					errs[i] = err
				}
			}
		}()
	}
	pending := make([][]replayRecord, workers)
	// Each distinct key resolves to its stream and worker once, on its
	// first record; later records cost one probe of this map.
	type target struct {
		st     *stream
		worker uint32
	}
	resolved := make(map[string]target)
	stats, err := w.Replay(func(r wal.Record) {
		t, ok := resolved[r.Key]
		if !ok {
			t = target{st: s.getOrCreate(r.Key), worker: keyHash(r.Key) % uint32(workers)}
			resolved[r.Key] = t
		}
		p := t.worker
		b := pending[p]
		if b == nil {
			b = make([]replayRecord, 0, batchLen)
		}
		b = append(b, replayRecord{st: t.st, wait: r.Wait, seq: r.Seq})
		if len(b) == batchLen {
			queues[p] <- b
			b = nil
		}
		pending[p] = b
	})
	for p, b := range pending {
		if len(b) > 0 {
			queues[p] <- b
		}
		close(queues[p])
	}
	wg.Wait()
	if err != nil {
		return stats, err
	}
	for _, rerr := range errs {
		if rerr != nil {
			return stats, rerr
		}
	}
	// A save compacts the segments its snapshot covers, possibly all of
	// them, and a log reopened empty numbers from 1 again: new records must
	// land above every restored anchor, or the next recovery would skip
	// them as already covered.
	w.AdvanceSeq(s.restoredSeq.Load())
	s.wal = w
	s.walReplayed.Add(uint64(stats.Records))
	s.walReplayDropped.Add(uint64(stats.Truncations))
	s.walReplayDroppedB.Add(uint64(stats.DroppedBytes))
	return stats, nil
}

// ReadOnly reports whether the service is currently refusing observations
// because WAL appends are failing (see ErrReadOnly).
func (s *Service) ReadOnly() bool { return s.readonly.Value() != 0 }

// DurabilityStats is a snapshot of the service's durability counters.
type DurabilityStats struct {
	// WALAttached is true when observations are logged before being applied.
	WALAttached bool
	// ReadOnly mirrors Service.ReadOnly.
	ReadOnly bool
	// Appends / AppendErrors count WAL appends since process start.
	Appends, AppendErrors uint64
	// ReplayedRecords is how many log records startup recovery applied or
	// skipped as already-snapshotted; ReplayTruncations / ReplayDroppedBytes
	// describe the torn or corrupt tails recovery discarded.
	ReplayedRecords, ReplayTruncations, ReplayDroppedBytes uint64
	// CompactionErrors counts failed best-effort segment deletions after
	// snapshots (the snapshot itself succeeded; the log is just longer
	// than it needs to be).
	CompactionErrors uint64
}

// Durability returns the service's durability counters.
func (s *Service) Durability() DurabilityStats {
	return DurabilityStats{
		WALAttached:        s.wal != nil,
		ReadOnly:           s.ReadOnly(),
		Appends:            s.walAppends.Value(),
		AppendErrors:       s.walAppendErrors.Value(),
		ReplayedRecords:    s.walReplayed.Value(),
		ReplayTruncations:  s.walReplayDropped.Value(),
		ReplayDroppedBytes: s.walReplayDroppedB.Value(),
		CompactionErrors:   s.walCompactErrors.Value(),
	}
}

// durabilityMetricRefs hands the server pointers to the service-owned
// durability counters so it can expose them on /metrics without mirroring.
type durabilityMetricRefs struct {
	readonly                                                       *obs.Gauge
	appends, appendErrors, replayed, replayDropped, replayDroppedB *obs.Counter
	compactErrors                                                  *obs.Counter
}

func (s *Service) durabilityMetrics() durabilityMetricRefs {
	return durabilityMetricRefs{
		readonly:       &s.readonly,
		appends:        &s.walAppends,
		appendErrors:   &s.walAppendErrors,
		replayed:       &s.walReplayed,
		replayDropped:  &s.walReplayDropped,
		replayDroppedB: &s.walReplayDroppedB,
		compactErrors:  &s.walCompactErrors,
	}
}

// lifecycleMetricRefs hands the server pointers to the service-owned
// stream-lifecycle counters (evictions, rehydrations, index partition
// rebuilds), same pattern as durabilityMetricRefs.
type lifecycleMetricRefs struct {
	evictions, rehydrations, indexRebuilds *obs.Counter
}

func (s *Service) lifecycleMetrics() lifecycleMetricRefs {
	return lifecycleMetricRefs{
		evictions:     &s.evictions,
		rehydrations:  &s.rehydrations,
		indexRebuilds: &s.indexRebuilds,
	}
}
