package qbets

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/wal"
)

// Follower mode. A follower Service serves the lock-free forecast plane
// from replicated state and refuses writes: observations reach it only
// through ApplyReplicated (shipped WAL batches) and
// InstallReplicaSnapshot (catch-up), both driven by a repl.Follower. The
// apply path is the WAL-recovery machinery — replayGroupLocked with
// per-stream lastSeq dedup — so a replicated record folds in exactly as
// it would have during crash recovery on the leader, and re-delivery is
// harmless. Because the leader ships only records at or below its
// durability watermark, in log order, the follower's state is always a
// consistent prefix of the leader's acked log.

// ErrNotLeader reports a write sent to a follower: this node replicates
// from a leader and serves reads only. Clients should retry against the
// leader (or wait out a failover).
var ErrNotLeader = errors.New("qbets: not the leader: this node serves follower reads only")

// ErrReplicaGap reports a shipped batch that does not extend the
// follower's applied prefix — records were lost or reordered in transit.
// The replication session reconnects and renegotiates position.
var ErrReplicaGap = errors.New("qbets: replicated batch does not extend the applied prefix")

// replicaState is the wire form of a catch-up snapshot: the sharded save
// format's per-stream cores, plus the service header, in one document.
// The covered sequence travels alongside it in the protocol message.
type replicaState struct {
	ByProcs  bool                   `json:"by_procs"`
	NextSeed int64                  `json:"next_seed"`
	Streams  map[string]shardStream `json:"streams"`
}

// SetFollower switches the service's write gate. Set it before the node
// takes traffic; Promote clears it after a failover.
func (s *Service) SetFollower(on bool) { s.follower.Store(on) }

// IsFollower reports whether writes are refused with ErrNotLeader.
func (s *Service) IsFollower() bool { return s.follower.Load() }

// SetCommitHook installs fn on the leader's write path: it runs after an
// observation batch is durable in the local WAL and applied, outside
// every stream lock, with the batch's last sequence number. A
// synchronous-replication leader points it at repl.Leader.CommitWait, so
// an observe acks only once a follower holds the records — and a fenced
// leader can never ack at all. A hook failure refuses the observe
// (wrapped in ErrReadOnly, so clients see the same 503-and-retry
// contract as a degraded log); the records are already durable and
// applied locally, so nothing acked is ever lost — only un-acked work
// can need reconciling, through recovery or a follower re-sync.
//
// The hook runs lock-free so a commit wait cannot deadlock against a
// catch-up snapshot, which read-locks every stream.
//
// Install before the service takes traffic.
func (s *Service) SetCommitHook(fn func(lastSeq uint64) error) { s.commitHook = fn }

// ReplicaAppliedSeq reports the highest replicated sequence folded into
// this follower's state — the position it renegotiates from on reconnect.
func (s *Service) ReplicaAppliedSeq() uint64 { return s.replApplied.Load() }

// SyncProbeInterval reports the attached WAL's background sync cadence
// (zero when none is attached or syncs are per-record): the honest
// Retry-After for a read-only refusal, since that is how long an append
// failure takes to self-heal or re-confirm.
func (s *Service) SyncProbeInterval() time.Duration {
	if s.wal == nil {
		return 0
	}
	return s.wal.SyncProbeInterval()
}

// ApplyReplicated folds one shipped batch into follower state. prevSeq is
// the sequence the batch extends: a batch from the future (prevSeq above
// the applied prefix) is refused with ErrReplicaGap, a batch from the
// past re-applies as a no-op through the per-stream dedup. The batch is
// grouped and applied exactly as one WAL-recovery worker batch is, so
// quotes are not scored — this process never made them.
func (s *Service) ApplyReplicated(prevSeq uint64, recs []wal.Record) error {
	if !s.follower.Load() {
		return fmt.Errorf("qbets: ApplyReplicated on a non-follower")
	}
	if len(recs) == 0 {
		return nil
	}
	applied := s.replApplied.Load()
	if prevSeq > applied {
		return fmt.Errorf("%w: batch extends seq %d but only %d is applied", ErrReplicaGap, prevSeq, applied)
	}
	batch := make([]replayRecord, len(recs))
	for i, r := range recs {
		batch[i] = replayRecord{st: s.getOrCreate(r.Key), wait: r.Wait, seq: r.Seq}
	}
	sc := replayScratch{group: make(map[*stream]int32)}
	if err := sc.apply(s, batch); err != nil {
		// The applied prefix does not advance: the session re-sends the
		// batch, and the streams that did apply skip it by lastSeq.
		return err
	}
	if last := recs[len(recs)-1].Seq; last > applied {
		s.replApplied.Store(last)
	}
	return nil
}

// ReplicaSnapshot captures the full serving state for follower catch-up:
// every stream's saved core (the sharded on-disk format, marshaled to one
// document) and the log sequence the snapshot covers. The covered
// sequence is read BEFORE any stream is marshaled: a record at or below
// it was durable — and therefore applied, under the same stream lock hold
// as its append — before the capture began, so the per-stream read locks
// taken during marshaling are guaranteed to observe it. Records applied
// during the capture may leak in; their sequence anchors ride along in
// the stream cores, so the follower's replay dedup drops the overlap.
func (s *Service) ReplicaSnapshot() (coveredSeq uint64, blob []byte, err error) {
	if s.wal != nil {
		coveredSeq = s.wal.SyncedSeq()
	}
	// A promoted leader's replicated prefix may sit above its (fresh)
	// local log's watermark; the snapshot covers that prefix too.
	if ra := s.replApplied.Load(); ra > coveredSeq {
		coveredSeq = ra
	}
	streams := s.snapshotStreams()
	doc := replicaState{
		ByProcs:  s.byProcs.Load(),
		NextSeed: s.nextSeed.Load(),
		Streams:  make(map[string]shardStream, len(streams)),
	}
	for k, st := range streams {
		core, cerr := coreOf(k, st)
		if cerr != nil {
			return 0, nil, cerr
		}
		doc.Streams[k] = core
	}
	blob, err = json.Marshal(doc)
	if err != nil {
		return 0, nil, err
	}
	return coveredSeq, blob, nil
}

// InstallReplicaSnapshot replaces the follower's state wholesale with a
// leader snapshot — the same cold-adoption path as a sharded restore, so
// a million-stream install decodes no forecaster history.
func (s *Service) InstallReplicaSnapshot(coveredSeq uint64, blob []byte) error {
	if !s.follower.Load() {
		return fmt.Errorf("qbets: InstallReplicaSnapshot on a non-follower")
	}
	var doc replicaState
	if err := json.Unmarshal(blob, &doc); err != nil {
		return fmt.Errorf("qbets: %w: replica snapshot: %v", ErrCorruptState, err)
	}
	restored := make(map[string]*stream, len(doc.Streams))
	for k, core := range doc.Streams {
		restored[k] = s.adoptColdStream(k, core)
	}
	s.byProcs.Store(doc.ByProcs)
	s.nextSeed.Store(doc.NextSeed)
	s.replaceStreams(restored)
	// The installed state is authoritative: it replaced whatever was
	// applied before, so the position resets to what it covers.
	s.replApplied.Store(coveredSeq)
	return nil
}

// Promote turns a follower into a leader after a failover: it attaches
// (and replays) the node's own WAL, advances the log's sequence space
// past the replicated prefix — new appends must land above the old
// leader's records or recovery would dedup them away — and only then
// opens the write gate. The atomic follower flag is the
// happens-before edge: a writer that observes the gate open also
// observes the attached WAL and advanced sequence space.
//
// The caller claims the new epoch first (repl.Follower.Promote persists
// it) and afterwards stands up a repl.Leader with it; a deposed ex-leader
// is fenced on first contact.
func (s *Service) Promote(w *wal.WAL) (wal.ReplayStats, error) {
	if !s.follower.Load() {
		return wal.ReplayStats{}, fmt.Errorf("qbets: Promote on a non-follower")
	}
	stats, err := s.RecoverWAL(w)
	if err != nil {
		return stats, err
	}
	s.wal.AdvanceSeq(s.replApplied.Load())
	s.follower.Store(false)
	return stats, nil
}
