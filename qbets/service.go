package qbets

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
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
// streams live in a fixed array of lock-striped shards (hashed by stream
// key) that only the write and admin paths touch, while every read API —
// Forecast, Profile, Observations, StreamStats, Stats — runs lock-free
// against two RCU-published immutable structures:
//
//   - a partitioned copy-on-write stream index (see index.go): one or two
//     atomic loads resolve a (queue, processor-category) shape to its
//     stream with no locking and no key construction. Creating a stream
//     republishes only the partition it hashes into, O(partition load),
//     so stream-creation churn scales linearly; and
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
// (wait <= quoted bound) is tracked against the target confidence — the
// live analogue of the "correct %" columns of Tables 3–7.
//
// At registry scale (the ROADMAP's millions-of-streams regime), idle
// streams can be evicted to a compact cold form and rehydrated on their
// next write — see evict.go.
type Service struct {
	opts       []Option
	byProcs    atomic.Bool
	quantile   float64
	confidence float64

	shards   [serviceShards]serviceShard
	nStreams atomic.Int64
	nextSeed atomic.Int64

	// index is the partitioned copy-on-write read path (index.go): an
	// immutable root of immutable partitions, republished per-partition on
	// stream creation and wholesale when replaceStreams installs a
	// restored set or growth resizes the partition array. The hot read
	// path is two atomic loads plus one or two map probes — no locks, no
	// key concatenation.
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

	// Chunked catch-up (replicastream.go). snapChunkStreams is the
	// per-chunk stream count for outgoing snapshot streams (0 = default);
	// pendingSnap accumulates an incoming chunked install until commit.
	snapChunkStreams atomic.Int64
	pendingSnapMu    sync.Mutex
	pendingSnap      *pendingReplicaSnapshot
}

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

const serviceShards = 64

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

type serviceShard struct {
	mu sync.RWMutex
	m  map[string]*stream
}

// stream couples one Forecaster with its own lock and monitoring state.
// The lock serializes writers (observe, batch apply, replay, serialize,
// evict); readers go through snap, the RCU-published forecastSnapshot,
// and only ever *try* the lock (publish-on-demand) — they never wait on
// it.
type stream struct {
	key  string
	mu   sync.RWMutex
	fc   *Forecaster
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
	// TargetConfidence: a healthy stream sits at or above it.
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
	for i := range s.shards {
		s.shards[i].m = make(map[string]*stream)
	}
	return s
}

// Quantile returns the resolved quantile streams are configured with.
func (s *Service) Quantile() float64 { return s.quantile }

// Confidence returns the resolved confidence level streams are configured
// with.
func (s *Service) Confidence() float64 { return s.confidence }

func (s *Service) key(queue string, procs int) string {
	if !s.byProcs.Load() {
		return queue
	}
	return queue + "/" + CategoryOf(procs).Label()
}

// shardOf hashes a stream key to its shard (FNV-1a, shared with the index
// partitioning in index.go).
func shardOf(key string) uint32 {
	return keyHash(key) % serviceShards
}

// lookup returns the stream for a key without creating it: two atomic
// loads of the published index, no locking. A stream whose creation has
// not yet republished its partition is momentarily invisible here, which
// reads the same as arriving just before the creation — the shard maps
// stay the authority for the write path.
func (s *Service) lookup(key string) *stream {
	return s.index.Load().lookupKey(key)
}

// getOrCreate returns the stream for a key, creating it on first use. The
// new stream's index partition is republished after the shard insert
// (outside the shard lock), so by the time this returns the new stream is
// visible to lock-free readers.
func (s *Service) getOrCreate(key string) *stream {
	if st := s.lookup(key); st != nil {
		return st
	}
	sh := &s.shards[shardOf(key)]
	sh.mu.Lock()
	st := sh.m[key]
	created := st == nil
	if created {
		st = s.newStream(key)
		sh.m[key] = st
		s.nStreams.Add(1)
	}
	sh.mu.Unlock()
	if created {
		s.indexInsert(key, st)
	}
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

// keyForSlot builds the registry key for a queue and cache slot; it agrees
// with key() by construction.
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
	if arr := s.index.Load().lookupQueue(queue); arr != nil {
		if st := arr[slot]; st != nil {
			return st
		}
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

// streamFor is the hot-path form of getOrCreate(key(queue, procs)).
func (s *Service) streamFor(queue string, procs int) *stream {
	return s.streamForSlot(queue, s.slotOf(procs))
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
	st := &stream{key: key, fc: fc, hit: obs.NewRollingRate(hitRateWindow)}
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

// adoptStream wraps a restored forecaster (state.go's restore path).
// lastSeq is the WAL sequence number the snapshot covers for this stream.
// The restored state's forecast snapshot is installed here, before
// replaceStreams publishes the stream — a reader that resolves the new
// stream can never see a stale or missing snapshot. The profile is
// computed on demand (first Profile call), not here: restoring a million
// streams must not pay for a million profiles nobody asked for.
func (s *Service) adoptStream(key string, fc *Forecaster, lastSeq uint64) *stream {
	fc.Forecast() // settle the lazy refit before concurrent reads start
	st := &stream{key: key, fc: fc, hit: obs.NewRollingRate(hitRateWindow), trimsSeen: fc.ChangePoints(), lastSeq: lastSeq}
	st.lastTouch.Store(s.clock.Load())
	st.publishLocked()
	return st
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

// observe records a wait: the observation is logged and applied under the
// stream's write lock, then — outside every lock — the commit hook gates
// the ack under synchronous replication. A hook failure refuses the
// observe with ErrReadOnly even though the record is durable and applied
// locally: the client was never acked, so retry-after-heal at worst
// re-records a real wait, while acking un-replicated data could lose it
// in a failover. The hook runs lock-free deliberately: a commit wait can
// ride out a concurrent catch-up snapshot, which read-locks every stream.
func (st *stream) observe(s *Service, waitSeconds float64) error {
	seq, err := st.observeApply(s, waitSeconds)
	if err != nil {
		return err
	}
	if s.commitHook != nil && s.wal != nil {
		if herr := s.commitHook(seq); herr != nil {
			return fmt.Errorf("%w: replication: %v", ErrReadOnly, herr)
		}
	}
	return nil
}

// observeApply appends and applies one wait under the stream's write
// lock: the observation goes to the service's WAL first (if one is
// attached), then folds into the forecaster, scoring the bound the
// arriving job would have been quoted and keeping the bound fresh.
// Holding the write lock across append-then-apply is what keeps
// (forecaster state, lastSeq) consistent — a snapshot taken concurrently
// sees either both effects or neither. An evicted stream rehydrates
// here, before the append.
func (st *stream) observeApply(s *Service, waitSeconds float64) (uint64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.fc == nil {
		if err := st.rehydrateLocked(s); err != nil {
			return 0, err
		}
	}
	var seq uint64
	if s.wal != nil {
		var err error
		// Records carry the WAL's coarse clock (exact to the last sync):
		// the timestamp is forensic — recovery replays by sequence, not
		// time — and a per-observe time syscall is the hot path's single
		// largest avoidable cost.
		seq, err = s.wal.Append(st.key, waitSeconds, s.wal.CoarseUnixNanos())
		if err != nil {
			s.walAppendErrors.Inc()
			s.readonly.Set(1)
			return 0, fmt.Errorf("%w: %v", ErrReadOnly, err)
		}
		s.walAppends.Inc()
		// Clear the read-only latch only when it is actually set: an
		// unconditional store would bounce the gauge's cacheline between
		// every observing core.
		if s.readonly.Value() != 0 {
			s.readonly.Set(0)
		}
	}
	st.applyLocked(s, waitSeconds, seq, true)
	return seq, nil
}

// applyLocked folds a wait into the forecaster. scoreHit is false on the
// replay path: recovered observations update predictor state exactly as
// they did in the crashed process, but the rolling correctness monitor
// only scores quotes this process actually made (the same rule snapshot
// restore follows).
func (st *stream) applyLocked(s *Service, waitSeconds float64, seq uint64, scoreHit bool) {
	if scoreHit {
		if bound, ok := st.fc.Forecast(); ok {
			st.hit.Record(waitSeconds <= bound)
		}
	}
	st.fc.Observe(waitSeconds)
	st.fc.Forecast() // eager refit: read paths must never find a stale bound
	if seq > st.lastSeq {
		st.lastSeq = seq
	}
	if tr := st.fc.ChangePoints(); tr != st.trimsSeen {
		st.trimsSeen = tr
		st.lastTrimUnix = time.Now().Unix()
	}
	st.markDirtyLocked(s)
}

// applyGroupLocked folds one batch group into the forecaster under the
// single write-lock acquisition ObserveBatch already holds. Each wait is
// still scored against the bound quoted at its arrival — the correctness
// monitor and the predictor's own change-point scoring are per-record by
// definition, so final state depends only on the wait sequence, not on how
// it was batched — but the trailing settle, lastSeq advance, and trim
// bookkeeping run once per group instead of once per record. lastSeq is
// the sequence number of the group's newest record (0 without a WAL).
func (st *stream) applyGroupLocked(s *Service, chunk []ObserveRecord, idxs []int32, lastSeq uint64) {
	for _, idx := range idxs {
		w := chunk[idx].WaitSeconds
		if bound, ok := st.fc.Forecast(); ok {
			st.hit.Record(w <= bound)
		}
		st.fc.Observe(w)
	}
	st.fc.Forecast() // eager refit: read paths must never find a stale bound
	if lastSeq > st.lastSeq {
		st.lastSeq = lastSeq
	}
	if tr := st.fc.ChangePoints(); tr != st.trimsSeen {
		st.trimsSeen = tr
		st.lastTrimUnix = time.Now().Unix()
	}
	// One generation per chunk: readers see whole chunks or nothing.
	st.markDirtyLocked(s)
}

// replayGroupLocked is applyGroupLocked's recovery-path sibling: recovered
// records at or below the stream's snapshot anchor are skipped, quotes are
// not scored (this process never made them), and the forecaster settles
// once per group — which is what makes batched replay measurably faster
// than the record-at-a-time path on a long log tail.
func (st *stream) replayGroupLocked(s *Service, recs []replayRecord) {
	applied := false
	for _, r := range recs {
		if r.seq <= st.lastSeq {
			continue
		}
		st.fc.Observe(r.wait)
		st.lastSeq = r.seq
		applied = true
	}
	if !applied {
		return
	}
	st.fc.Forecast()
	if tr := st.fc.ChangePoints(); tr != st.trimsSeen {
		st.trimsSeen = tr
		st.lastTrimUnix = time.Now().Unix()
	}
	st.markDirtyLocked(s)
}

// replayBatch is how many decoded records RecoverWAL hands one apply
// worker at a time.
const replayBatch = 4096

// replayRecord is one decoded log record bound for an apply worker,
// already resolved to its stream.
type replayRecord struct {
	st   *stream
	wait float64
	seq  uint64
}

// replayScratch is the grouping state of one RecoverWAL apply worker,
// reused across the batches it applies, or of one ApplyReplicated call.
// It is never pooled across calls: recovery's batches are transient, and
// a pool would keep them counted in the live heap after the restart.
type replayScratch struct {
	group   map[*stream]int32 // stream -> its group in this batch
	streams []*stream         // group -> stream, in first-appearance order
	ends    []int32           // group -> end of its run in sorted
	of      []int32           // batch record -> its group
	sorted  []replayRecord    // the batch grouped, log order within a group
}

// apply groups batch by stream (a counting sort, so each group keeps the
// log's order) and folds each group in one lock hold through
// replayGroupLocked. It returns the first rehydration failure; the failed
// stream's group is skipped, every other group still applies.
func (sc *replayScratch) apply(s *Service, batch []replayRecord) error {
	clear(sc.group)
	sc.streams, sc.ends, sc.of = sc.streams[:0], sc.ends[:0], sc.of[:0]
	for i := range batch {
		g, ok := sc.group[batch[i].st]
		if !ok {
			g = int32(len(sc.streams))
			sc.group[batch[i].st] = g
			sc.streams = append(sc.streams, batch[i].st)
			sc.ends = append(sc.ends, 0)
		}
		sc.ends[g]++
		sc.of = append(sc.of, g)
	}
	var at int32
	for g, n := range sc.ends {
		sc.ends[g] = at
		at += n
	}
	sc.sorted = slices.Grow(sc.sorted[:0], len(batch))[:len(batch)]
	for i := range batch {
		g := sc.of[i]
		sc.sorted[sc.ends[g]] = batch[i]
		sc.ends[g]++
	}
	var firstErr error
	var start int32
	for g, st := range sc.streams {
		run := sc.sorted[start:sc.ends[g]]
		start = sc.ends[g]
		st.mu.Lock()
		var err error
		if st.fc == nil {
			err = st.rehydrateLocked(s)
		}
		if err == nil {
			st.replayGroupLocked(s, run)
		} else if firstErr == nil {
			firstErr = err
		}
		st.mu.Unlock()
	}
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

// batchGroup is one (queue, category) run within a chunk: the indices of
// the chunk's records that route to one stream.
type batchGroup struct {
	queue string
	slot  int
	st    *stream
	idxs  []int32
}

// batchScratch is the pooled working state of one ObserveBatch call; the
// ingest hot path reuses it so batch grouping allocates nothing in steady
// state.
type batchScratch struct {
	groups  []batchGroup
	entries []wal.Entry
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// release returns the scratch to the pool with anything that could pin
// request memory cleared; group index slices keep their capacity.
func (sc *batchScratch) release() {
	for i := range sc.groups {
		sc.groups[i].queue, sc.groups[i].st = "", nil
	}
	clear(sc.entries)
	batchScratchPool.Put(sc)
}

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
	sc := batchScratchPool.Get().(*batchScratch)
	defer sc.release()
	for base := 0; base < len(records); base += observeBatchChunk {
		end := min(base+observeBatchChunk, len(records))
		last, cerr := s.observeChunk(records[base:end], sc)
		if cerr != nil {
			return base, &BatchError{Index: base, Err: cerr}
		}
		applied = end
		// Synchronous replication gates the ack per chunk, outside the
		// chunk's stream locks (see stream.observe): the chunk is applied
		// and durable locally, so the reported count stays truthful, but
		// the client is not acked past a failed commit wait.
		if s.commitHook != nil && last > 0 {
			if herr := s.commitHook(last); herr != nil {
				return applied, &BatchError{Index: applied, Err: fmt.Errorf("%w: replication: %v", ErrReadOnly, herr)}
			}
		}
	}
	return applied, nil
}

// observeChunk groups, logs, and applies one chunk, returning the chunk's
// last log sequence (0 when no WAL is attached). The chunk is atomic:
// either every record is appended (one AppendBatch) and applied, or none
// is. All affected stream write locks are held, in key order, across
// append-then-apply — the same invariant the single-record path keeps, so
// a concurrent snapshot's (state, lastSeq) view stays consistent and
// compaction can never delete a segment whose records some stream has not
// yet folded in. Evicted streams rehydrate after the locks are taken and
// before anything is appended, so a rehydration failure applies nothing.
func (s *Service) observeChunk(chunk []ObserveRecord, sc *batchScratch) (uint64, error) {
	byProcs := s.byProcs.Load()
	groups := sc.groups[:0]
	for i := range chunk {
		slot := cacheSlotWhole
		if byProcs {
			slot = int(CategoryOf(chunk[i].Procs))
		}
		gi := 0
		for ; gi < len(groups); gi++ {
			if groups[gi].slot == slot && groups[gi].queue == chunk[i].Queue {
				groups[gi].idxs = append(groups[gi].idxs, int32(i))
				break
			}
		}
		if gi == len(groups) {
			if len(groups) < cap(groups) {
				groups = groups[:gi+1]
				g := &groups[gi]
				g.queue, g.slot, g.st, g.idxs = chunk[i].Queue, slot, nil, append(g.idxs[:0], int32(i))
			} else {
				groups = append(groups, batchGroup{queue: chunk[i].Queue, slot: slot, idxs: []int32{int32(i)}})
			}
		}
	}
	sc.groups = groups
	for gi := range groups {
		groups[gi].st = s.streamForSlot(groups[gi].queue, groups[gi].slot)
	}
	// Distinct (queue, slot) pairs resolve to distinct streams (the slot
	// set is fixed for the chunk), so sorting by key gives a strict global
	// lock order — concurrent batches cannot deadlock.
	slices.SortFunc(groups, func(a, b batchGroup) int { return strings.Compare(a.st.key, b.st.key) })
	for gi := range groups {
		groups[gi].st.mu.Lock()
	}
	defer func() {
		for gi := range groups {
			groups[gi].st.mu.Unlock()
		}
	}()
	for gi := range groups {
		if groups[gi].st.fc == nil {
			if err := groups[gi].st.rehydrateLocked(s); err != nil {
				return 0, err
			}
		}
	}
	if s.wal == nil {
		for gi := range groups {
			groups[gi].st.applyGroupLocked(s, chunk, groups[gi].idxs, 0)
		}
		return 0, nil
	}
	entries := sc.entries[:0]
	if cap(entries) < len(chunk) {
		entries = make([]wal.Entry, 0, observeBatchChunk)
	}
	entries = entries[:len(chunk)]
	now := s.wal.CoarseUnixNanos()
	for gi := range groups {
		g := &groups[gi]
		for _, idx := range g.idxs {
			entries[idx] = wal.Entry{Key: g.st.key, Wait: chunk[idx].WaitSeconds, UnixNanos: now}
		}
	}
	sc.entries = entries
	firstSeq, werr := s.wal.AppendBatch(entries)
	if werr != nil {
		s.walAppendErrors.Inc()
		s.readonly.Set(1)
		return 0, fmt.Errorf("%w: %v", ErrReadOnly, werr)
	}
	s.walAppends.Add(uint64(len(chunk)))
	if s.readonly.Value() != 0 {
		s.readonly.Set(0)
	}
	for gi := range groups {
		g := &groups[gi]
		g.st.applyGroupLocked(s, chunk, g.idxs, firstSeq+uint64(g.idxs[len(g.idxs)-1]))
	}
	return firstSeq + uint64(len(chunk)) - 1, nil
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

// Observe records a completed wait for a queue and processor count. It
// returns ErrInvalidWait for waits that cannot be queue delays (NaN, Inf,
// negative) and ErrReadOnly (wrapped, with the cause) when a write-ahead
// log is attached and the append failed — in that case the observation was
// NOT recorded, by design: refusing is recoverable, silent loss is not.
func (s *Service) Observe(queue string, procs int, waitSeconds float64) error {
	if math.IsNaN(waitSeconds) || math.IsInf(waitSeconds, 0) || waitSeconds < 0 {
		return ErrInvalidWait
	}
	if s.follower.Load() {
		return ErrNotLeader
	}
	return s.streamFor(queue, procs).observe(s, waitSeconds)
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
	return st.profile(s)
}

// profile serves the stream's quantile profile from the published
// snapshot, computing it on demand. Order of preference: the current
// snapshot's cached profile; compute-and-cache under a non-blocking
// TryLock; the last profile ever computed (bounded staleness, same rule
// as loadSnap); and — only for a cold-adopted stream that has never
// computed one — a blocking compute, which may rehydrate the forecaster.
func (st *stream) profile(s *Service) []Bound {
	snap := st.loadSnap()
	if p := snap.profile.Load(); p != nil {
		return *p
	}
	if st.mu.TryLock() {
		p := st.fillProfileLocked(s)
		st.mu.Unlock()
		if p != nil {
			return *p
		}
	}
	if p := st.lastProfile.Load(); p != nil {
		return *p
	}
	st.mu.Lock()
	p := st.fillProfileLocked(s)
	st.mu.Unlock()
	if p != nil {
		return *p
	}
	return nil
}

// fillProfileLocked computes the profile for the stream's current state
// and caches it on the published snapshot (and the stream's lastProfile
// fallback). Returns nil only if an evicted forecaster cannot be
// rehydrated. Caller holds the stream's write lock.
func (st *stream) fillProfileLocked(s *Service) *[]Bound {
	if st.fc == nil {
		if err := st.rehydrateLocked(s); err != nil {
			return nil
		}
	}
	if st.dirty.Load() {
		st.publishLocked()
	}
	snap := st.snap.Load()
	if p := snap.profile.Load(); p != nil {
		return p
	}
	p := st.fc.Profile()
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

// replaceStreams swaps in a freshly restored stream set (state.go). Shard
// locks are taken in index order, so concurrent replaceStreams calls
// cannot deadlock; readers mid-flight keep operating on streams from the
// old set, which matches wholesale-restore semantics.
func (s *Service) replaceStreams(streams map[string]*stream) {
	var n, cold int64
	var grouped [serviceShards]map[string]*stream
	for i := range grouped {
		grouped[i] = make(map[string]*stream)
	}
	for k, st := range streams {
		grouped[shardOf(k)][k] = st
		n++
		if st.evicted.Load() {
			cold++
		}
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.m = grouped[i]
		sh.mu.Unlock()
	}
	s.nStreams.Store(n)
	s.nCold.Store(cold)
	// Republish the index from the new shard maps. The rebuild always
	// reads current shard state, so it can never resurrect an old-set
	// stream; once this returns, every lock-free reader resolves streams
	// (and therefore forecast snapshots) from the restored set only.
	s.republishIndex()
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
// Replay decodes on one goroutine and applies on GOMAXPROCS: each record
// is resolved to its stream in log order (so stream creation, and with it
// seed assignment, matches record-at-a-time replay), then handed to the
// apply worker its key hashes to. A stream belongs to exactly one worker,
// so within a stream the log's order is preserved exactly, and streams
// are independent, so recovered state matches record-at-a-time replay.
// Each worker groups a batch by stream and folds every group in one lock
// acquisition and one settle (replayGroupLocked). A cold-adopted stream
// (sharded restore) rehydrates before its first group applies; the first
// rehydration failure is returned after every other stream has replayed.
func (s *Service) RecoverWAL(w *wal.WAL) (wal.ReplayStats, error) {
	workers := runtime.GOMAXPROCS(0)
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
			sc := replayScratch{group: make(map[*stream]int32)}
			for batch := range queues[i] {
				if err := sc.apply(s, batch); err != nil && errs[i] == nil {
					errs[i] = err
				}
			}
		}()
	}
	pending := make([][]replayRecord, workers)
	stats, err := w.Replay(func(r wal.Record) {
		p := keyHash(r.Key) % uint32(workers)
		b := pending[p]
		if b == nil {
			b = make([]replayRecord, 0, replayBatch)
		}
		b = append(b, replayRecord{st: s.getOrCreate(r.Key), wait: r.Wait, seq: r.Seq})
		if len(b) == replayBatch {
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

// snapshotStreams returns the current stream set (state.go's save path).
func (s *Service) snapshotStreams() map[string]*stream {
	out := make(map[string]*stream, s.nStreams.Load())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, st := range sh.m {
			out[k] = st
		}
		sh.mu.RUnlock()
	}
	return out
}
