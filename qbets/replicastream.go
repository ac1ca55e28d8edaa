package qbets

import (
	"encoding/json"
	"fmt"

	"repro/internal/repl"
)

// Chunked catch-up snapshots. The monolithic ReplicaSnapshot marshals the
// whole state into one blob — O(state) leader memory per catching-up
// follower. This file streams the same sharded per-stream cores in
// bounded chunks instead: OpenReplicaSnapshotStream captures the stream
// set (pointers, not state) and renders each chunk on demand under the
// per-stream read locks, so leader memory during catch-up is O(chunk),
// and several followers catching up concurrently share one captured
// generation. The follower side installs incrementally through the same
// cold-adoption machinery as InstallReplicaSnapshot: each chunk's streams
// are adopted cold into a pending set, and commit swaps the set in
// wholesale — a torn transfer aborts before any visible state changes.

// defaultSnapshotChunkStreams is how many streams one snapshot chunk
// carries when SetSnapshotChunkStreams has not been called.
const defaultSnapshotChunkStreams = 256

// SetSnapshotChunkStreams overrides the per-chunk stream count for
// outgoing catch-up streams. Call before serving; n <= 0 restores the
// default. Small values are useful in tests that need many chunks from a
// small state.
func (s *Service) SetSnapshotChunkStreams(n int) { s.snapChunkStreams.Store(int64(n)) }

// replicaSnapHeader rides in the snapBegin payload: everything the
// follower needs besides the per-stream cores.
type replicaSnapHeader struct {
	ByProcs  bool  `json:"by_procs"`
	NextSeed int64 `json:"next_seed"`
	Streams  int   `json:"streams"`
	Chunks   int   `json:"chunks"`
}

// replicaSnapStream implements repl.SnapshotStream over a captured stream
// set. AppendChunk is safe for concurrent use: each call renders its own
// chunk slice under per-stream read locks into the caller's buffer.
type replicaSnapStream struct {
	covered uint64
	header  []byte
	keys    []string
	sts     []*stream
	per     int
}

// OpenReplicaSnapshotStream captures the serving state for chunked
// follower catch-up. The covered sequence is read BEFORE the stream set
// is captured — the same discipline as ReplicaSnapshot, and for the same
// reason: a record at or below it was applied before the capture began,
// so the per-stream read locks taken while rendering chunks are
// guaranteed to observe it, and anything newer that leaks in is dropped
// by the follower's replay dedup.
func (s *Service) OpenReplicaSnapshotStream() (repl.SnapshotStream, error) {
	var covered uint64
	if s.wal != nil {
		covered = s.wal.SyncedSeq()
	}
	if ra := s.replApplied.Load(); ra > covered {
		covered = ra
	}
	idx := s.index.Load()
	n := idx.count()
	keys, sts := make([]string, 0, n), make([]*stream, 0, n)
	idx.forEachOrdered(func(k string, st *stream) bool {
		keys, sts = append(keys, k), append(sts, st)
		return true
	})
	per := int(s.snapChunkStreams.Load())
	if per <= 0 {
		per = defaultSnapshotChunkStreams
	}
	chunks := (len(keys) + per - 1) / per
	header, err := json.Marshal(replicaSnapHeader{
		ByProcs:  s.byProcs.Load(),
		NextSeed: s.nextSeed.Load(),
		Streams:  len(keys),
		Chunks:   chunks,
	})
	if err != nil {
		return nil, err
	}
	return &replicaSnapStream{covered: covered, header: header, keys: keys, sts: sts, per: per}, nil
}

func (r *replicaSnapStream) CoveredSeq() uint64 { return r.covered }
func (r *replicaSnapStream) Header() []byte     { return r.header }
func (r *replicaSnapStream) Chunks() int        { return (len(r.keys) + r.per - 1) / r.per }
func (r *replicaSnapStream) Close()             {}

// AppendChunk renders chunk i — a JSON object mapping stream keys to
// their shard cores, the same per-stream document the sharded save format
// uses — into dst. Transient memory is O(chunk): each core is rendered
// under its stream's read lock and encoded straight into the caller's
// buffer.
func (r *replicaSnapStream) AppendChunk(i int, dst []byte) ([]byte, error) {
	lo, hi := i*r.per, (i+1)*r.per
	if hi > len(r.keys) {
		hi = len(r.keys)
	}
	if i < 0 || lo >= hi {
		return nil, fmt.Errorf("qbets: snapshot chunk %d out of range (%d chunks)", i, r.Chunks())
	}
	keys, sts := r.keys[lo:hi], r.sts[lo:hi]
	return appendShardCores(dst, keys, func(j int) (shardStream, error) {
		return coreOf(keys[j], sts[j])
	})
}

// pendingReplicaSnapshot accumulates an incoming chunked install: streams
// adopted cold, chunk by chunk, invisible to readers until commit. The
// header's declared totals are kept so commit can refuse an incomplete
// transfer — a transport that reorders the end marker ahead of a chunk
// must not be able to install a truncated state.
type pendingReplicaSnapshot struct {
	byProcs      bool
	nextSeed     int64
	streams      map[string]*stream
	expectChunks int // chunk count the header declared
	next         int // next chunk index expected
}

// BeginReplicaSnapshot starts a chunked install, discarding any earlier
// partial one (a torn transfer superseded by a fresh attempt).
func (s *Service) BeginReplicaSnapshot(coveredSeq uint64, header []byte) error {
	if !s.follower.Load() {
		return fmt.Errorf("qbets: BeginReplicaSnapshot on a non-follower")
	}
	var h replicaSnapHeader
	if err := json.Unmarshal(header, &h); err != nil {
		return fmt.Errorf("qbets: %w: replica snapshot header: %v", ErrCorruptState, err)
	}
	if h.Chunks < 0 || h.Streams < 0 {
		return fmt.Errorf("qbets: %w: replica snapshot header declares %d chunks, %d streams", ErrCorruptState, h.Chunks, h.Streams)
	}
	s.pendingSnapMu.Lock()
	// The map grows from the chunks that arrive, not from the header's
	// declared stream count: that comes off the wire, and a corrupt or
	// hostile header must not allocate before any chunk proves it.
	s.pendingSnap = &pendingReplicaSnapshot{
		byProcs:      h.ByProcs,
		nextSeed:     h.NextSeed,
		streams:      make(map[string]*stream),
		expectChunks: h.Chunks,
	}
	s.pendingSnapMu.Unlock()
	return nil
}

// ApplyReplicaSnapshotChunk folds one chunk into the pending install via
// the same cold adoption as a sharded restore — no forecaster history is
// decoded until a stream's first write.
func (s *Service) ApplyReplicaSnapshotChunk(index int, chunk []byte) error {
	m, err := parseShardCores(chunk)
	if err != nil {
		return fmt.Errorf("qbets: %w: replica snapshot chunk %d: %v", ErrCorruptState, index, err)
	}
	s.pendingSnapMu.Lock()
	defer s.pendingSnapMu.Unlock()
	p := s.pendingSnap
	if p == nil {
		return fmt.Errorf("qbets: snapshot chunk %d without a pending install", index)
	}
	if index != p.next || index >= p.expectChunks {
		return fmt.Errorf("qbets: %w: snapshot chunk %d out of order (expected %d of %d)", ErrCorruptState, index, p.next, p.expectChunks)
	}
	for k, core := range m {
		p.streams[k] = s.adoptColdStream(k, core)
	}
	p.next++
	return nil
}

// CommitReplicaSnapshot atomically replaces the serving state with the
// pending install — the same wholesale swap as InstallReplicaSnapshot.
func (s *Service) CommitReplicaSnapshot(coveredSeq uint64) error {
	s.pendingSnapMu.Lock()
	p := s.pendingSnap
	s.pendingSnap = nil
	s.pendingSnapMu.Unlock()
	if p == nil {
		return fmt.Errorf("qbets: CommitReplicaSnapshot without a pending install")
	}
	if p.next != p.expectChunks {
		// A reordered or dropped chunk must not install truncated state:
		// the end marker commits only a transfer that delivered every
		// chunk the header declared.
		return fmt.Errorf("qbets: %w: chunked install committed with %d of %d chunks", ErrCorruptState, p.next, p.expectChunks)
	}
	s.byProcs.Store(p.byProcs)
	s.nextSeed.Store(p.nextSeed)
	s.replaceStreams(p.streams)
	// The installed state is authoritative: it replaced whatever was
	// applied before, so the position resets to what it covers.
	s.replApplied.Store(coveredSeq)
	return nil
}

// AbortReplicaSnapshot discards a partial chunked install; serving state
// is untouched.
func (s *Service) AbortReplicaSnapshot() {
	s.pendingSnapMu.Lock()
	s.pendingSnap = nil
	s.pendingSnapMu.Unlock()
}
