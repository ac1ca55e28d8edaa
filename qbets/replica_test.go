package qbets

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/repl"
	"repro/internal/wal"
)

func newReplicaWAL(t *testing.T, opt wal.Options) *wal.WAL {
	t.Helper()
	if opt.FS == nil {
		opt.FS = wal.NewMemFS()
	}
	w, err := wal.Open("wal", opt)
	if err != nil {
		t.Fatal(err)
	}
	// No Replay here: these WALs are handed to RecoverWAL / Promote,
	// which replay as part of attachment.
	t.Cleanup(func() { w.Close() })
	return w
}

func waitForReplica(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestFollowerRefusesWrites(t *testing.T) {
	s := NewService(false, WithSeed(1))
	s.SetFollower(true)
	if err := s.Observe("normal", 4, 10); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("Observe on follower: got %v, want ErrNotLeader", err)
	}
	n, err := s.ObserveBatch([]ObserveRecord{{Queue: "normal", WaitSeconds: 10}})
	if n != 0 || !errors.Is(err, ErrNotLeader) {
		t.Fatalf("ObserveBatch on follower: got (%d, %v), want (0, ErrNotLeader)", n, err)
	}
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 0 {
		t.Fatalf("ObserveBatch error should be a BatchError at index 0, got %#v", err)
	}
	// Invalid waits are still rejected as invalid, not masked by the gate.
	if err := s.Observe("normal", 4, -1); !errors.Is(err, ErrInvalidWait) {
		t.Fatalf("invalid wait on follower: got %v, want ErrInvalidWait", err)
	}
	s.SetFollower(false)
	if err := s.Observe("normal", 4, 10); err != nil {
		t.Fatalf("Observe after clearing follower mode: %v", err)
	}
}

// TestApplyReplicatedMatchesDirectObserve proves the follower apply path
// is state-equivalent to the leader's: the same waits, delivered as
// replicated records, produce the same bounds and depths.
func TestApplyReplicatedMatchesDirectObserve(t *testing.T) {
	oracle := NewService(false, WithSeed(1))
	fol := NewService(false, WithSeed(1))
	fol.SetFollower(true)

	rng := rand.New(rand.NewSource(7))
	queues := []string{"normal", "high", "low"}
	var recs []wal.Record
	for i := 0; i < 300; i++ {
		q := queues[i%len(queues)]
		wsec := float64(1 + rng.Intn(1000))
		if err := oracle.Observe(q, 0, wsec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, wal.Record{Seq: uint64(i + 1), Key: q, Wait: wsec, UnixNanos: 1})
	}
	// Deliver in two batches, the second overlapping the first: the
	// per-stream dedup must drop the overlap.
	if err := fol.ApplyReplicated(0, recs[:200]); err != nil {
		t.Fatal(err)
	}
	if err := fol.ApplyReplicated(100, recs[100:]); err != nil {
		t.Fatal(err)
	}
	if got := fol.ReplicaAppliedSeq(); got != 300 {
		t.Fatalf("ReplicaAppliedSeq = %d, want 300", got)
	}
	for _, q := range queues {
		want, wantOK := oracle.Forecast(q, 0)
		got, gotOK := fol.Forecast(q, 0)
		if want != got || wantOK != gotOK {
			t.Fatalf("queue %q: follower forecast (%v,%v) != oracle (%v,%v)", q, got, gotOK, want, wantOK)
		}
		ws, _ := oracle.StreamStats(q, 0)
		fs, _ := fol.StreamStats(q, 0)
		if ws.Observations != fs.Observations {
			t.Fatalf("queue %q: follower has %d observations, oracle %d", q, fs.Observations, ws.Observations)
		}
	}

	// A batch from the future must be refused with a gap.
	future := []wal.Record{{Seq: 501, Key: "normal", Wait: 1, UnixNanos: 1}}
	if err := fol.ApplyReplicated(500, future); !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("future batch: got %v, want ErrReplicaGap", err)
	}
	// Re-delivering an old batch is a no-op, not an error.
	if err := fol.ApplyReplicated(0, recs[:50]); err != nil {
		t.Fatal(err)
	}
	fs, _ := fol.StreamStats("normal", 0)
	ws, _ := oracle.StreamStats("normal", 0)
	if fs.Observations != ws.Observations {
		t.Fatalf("re-delivery changed state: %d vs %d observations", fs.Observations, ws.Observations)
	}
}

// TestApplyReplicatedCoveredRunSkipsRehydration: a re-sent batch whose
// records an evicted stream already holds (every seq at or below its
// lastSeq) skips the stream without decoding its blob, so a reconnect's
// re-send inflates nothing; the first record past the anchor still
// rehydrates and applies.
func TestApplyReplicatedCoveredRunSkipsRehydration(t *testing.T) {
	fol := NewService(false, WithSeed(1))
	fol.SetFollower(true)
	recs := make([]wal.Record, 100)
	for i := range recs {
		recs[i] = wal.Record{Seq: uint64(i + 1), Key: "normal", Wait: float64(10 + i%37), UnixNanos: 1}
	}
	if err := fol.ApplyReplicated(0, recs); err != nil {
		t.Fatal(err)
	}
	if n := fol.EvictToCap(0); n != 1 {
		t.Fatalf("evicted %d streams, want 1", n)
	}
	before, _ := fol.StreamStats("normal", 0)
	if err := fol.ApplyReplicated(0, recs); err != nil {
		t.Fatal(err)
	}
	after, _ := fol.StreamStats("normal", 0)
	if got := fol.rehydrations.Value(); got != 0 || fol.LiveStreams() != 0 || after != before {
		t.Fatalf("covered re-send: %d rehydrations, %d live streams, status %+v (was %+v); want 0, 0, unchanged",
			got, fol.LiveStreams(), after, before)
	}
	next := []wal.Record{{Seq: 101, Key: "normal", Wait: 12, UnixNanos: 1}}
	if err := fol.ApplyReplicated(100, next); err != nil {
		t.Fatal(err)
	}
	if got, _ := fol.StreamStats("normal", 0); fol.rehydrations.Value() != 1 || fol.LiveStreams() != 1 || got.Observations != 101 {
		t.Fatalf("uncovered record: %d rehydrations, %d live streams, %d observations; want 1, 1, 101",
			fol.rehydrations.Value(), fol.LiveStreams(), got.Observations)
	}
}

// TestApplyReplicatedCorruptStreamBoundary pins where a corrupt cold
// stream stops a follower: records it already covers skip it, so a
// re-sent batch applies and the prefix advances, while a record past its
// anchor needs the blob and still fails with ErrCorruptState, leaving
// the prefix where it was.
func TestApplyReplicatedCorruptStreamBoundary(t *testing.T) {
	var cores map[string]shardStream
	if err := json.Unmarshal(realSnapshotChunk(t, true), &cores); err != nil {
		t.Fatal(err)
	}
	corrupt := cores["short/1-4"]
	corrupt.State, corrupt.Seq = []byte("AAAA"), 20 // undecodable, anchored at seq 20
	chunk, err := json.Marshal(map[string]shardStream{"q/65+": corrupt, "r/65+": cores["normal/65+"]})
	if err != nil {
		t.Fatal(err)
	}
	s, err := installChunk(true, chunk)
	if err != nil {
		t.Fatal(err)
	}
	healthy := cores["normal/65+"].Observations
	// Seqs 10–20 alternate between the two streams: q's records (the even
	// seqs) all lie at or below its anchor, r's extend r.
	var batch []wal.Record
	for seq := uint64(10); seq <= 20; seq++ {
		key := "q/65+"
		if seq%2 == 1 {
			key = "r/65+"
		}
		batch = append(batch, wal.Record{Seq: seq, Key: key, Wait: 1, UnixNanos: 1})
	}
	if err := s.ApplyReplicated(9, batch); err != nil {
		t.Fatalf("batch covering the corrupt stream: %v, want nil", err)
	}
	r, _ := s.StreamStats("r", 128)
	if s.ReplicaAppliedSeq() != 20 || s.LiveStreams() != 1 || r.Observations != healthy+5 {
		t.Fatalf("applied prefix %d, %d live streams, r holds %d observations; want 20, 1, %d",
			s.ReplicaAppliedSeq(), s.LiveStreams(), r.Observations, healthy+5)
	}
	past := []wal.Record{{Seq: 21, Key: "q/65+", Wait: 1, UnixNanos: 1}}
	if err := s.ApplyReplicated(20, past); !errors.Is(err, ErrCorruptState) {
		t.Fatalf("record past the corrupt stream's anchor: %v, want ErrCorruptState", err)
	}
	if s.ReplicaAppliedSeq() != 20 || s.LiveStreams() != 1 {
		t.Fatalf("after the refused record: applied prefix %d, %d live streams; want 20, 1", s.ReplicaAppliedSeq(), s.LiveStreams())
	}
}

func TestReplicaSnapshotRoundTrip(t *testing.T) {
	leader := NewService(false, WithSeed(1))
	w := newReplicaWAL(t, wal.Options{Mode: wal.SyncEachRecord})
	if _, err := leader.RecoverWAL(w); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		if err := leader.Observe(fmt.Sprintf("q%d", i%4), 0, float64(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	covered, blob, err := leader.ReplicaSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if covered != 120 {
		t.Fatalf("covered = %d, want 120", covered)
	}

	fol := NewService(false, WithSeed(1))
	fol.SetFollower(true)
	if err := fol.InstallReplicaSnapshot(covered, blob); err != nil {
		t.Fatal(err)
	}
	if got := fol.ReplicaAppliedSeq(); got != covered {
		t.Fatalf("ReplicaAppliedSeq = %d, want %d", got, covered)
	}
	if fol.NumStreams() != leader.NumStreams() {
		t.Fatalf("follower has %d streams, leader %d", fol.NumStreams(), leader.NumStreams())
	}
	for i := 0; i < 4; i++ {
		q := fmt.Sprintf("q%d", i)
		want, wantOK := leader.Forecast(q, 0)
		got, gotOK := fol.Forecast(q, 0)
		if want != got || wantOK != gotOK {
			t.Fatalf("queue %q: follower forecast (%v,%v) != leader (%v,%v)", q, got, gotOK, want, wantOK)
		}
	}
	// Records at or below the covered sequence dedup away; records above
	// it extend the state.
	pre, _ := fol.StreamStats("q0", 0)
	if err := fol.ApplyReplicated(116, []wal.Record{{Seq: 117, Key: "q0", Wait: 1, UnixNanos: 1}}); err != nil {
		t.Fatal(err)
	}
	mid, _ := fol.StreamStats("q0", 0)
	if mid.Observations != pre.Observations {
		t.Fatalf("covered record re-applied: %d -> %d observations", pre.Observations, mid.Observations)
	}
	if err := fol.ApplyReplicated(120, []wal.Record{{Seq: 121, Key: "q0", Wait: 1, UnixNanos: 1}}); err != nil {
		t.Fatal(err)
	}
	post, _ := fol.StreamStats("q0", 0)
	if post.Observations != pre.Observations+1 {
		t.Fatalf("new record not applied: %d -> %d observations", pre.Observations, post.Observations)
	}
	if fol.ReplicaAppliedSeq() != 121 {
		t.Fatalf("ReplicaAppliedSeq = %d, want 121", fol.ReplicaAppliedSeq())
	}

	// A corrupt snapshot must be refused, not half-installed.
	if err := fol.InstallReplicaSnapshot(1, []byte("not json")); !errors.Is(err, ErrCorruptState) {
		t.Fatalf("corrupt snapshot: got %v, want ErrCorruptState", err)
	}
}

// TestPromoteAdvancesSequenceSpace proves a promoted follower's new
// appends land above the replicated prefix, so recovery cannot dedup
// them against the old leader's records.
func TestPromoteAdvancesSequenceSpace(t *testing.T) {
	s := NewService(false, WithSeed(1))
	s.SetFollower(true)
	recs := make([]wal.Record, 40)
	for i := range recs {
		recs[i] = wal.Record{Seq: uint64(i + 1), Key: "normal", Wait: float64(i + 1), UnixNanos: 1}
	}
	if err := s.ApplyReplicated(0, recs); err != nil {
		t.Fatal(err)
	}

	w := newReplicaWAL(t, wal.Options{Mode: wal.SyncEachRecord})
	if _, err := s.Promote(w); err != nil {
		t.Fatal(err)
	}
	if s.IsFollower() {
		t.Fatal("still a follower after Promote")
	}
	if err := s.Observe("normal", 0, 5); err != nil {
		t.Fatalf("Observe after Promote: %v", err)
	}
	// The first post-promotion append must be sequence 41, and it must
	// actually have been folded in (not deduped away by the anchor).
	if got := w.SyncedSeq(); got != 41 {
		t.Fatalf("post-promotion synced seq = %d, want 41", got)
	}
	st, _ := s.StreamStats("normal", 0)
	if st.Observations != 41 {
		t.Fatalf("observations after promote+observe = %d, want 41", st.Observations)
	}

	// Promote on a non-follower is a bug, not a no-op.
	if _, err := s.Promote(w); err == nil {
		t.Fatal("second Promote should fail")
	}
}

func TestCommitHookGatesObserve(t *testing.T) {
	s := NewService(false, WithSeed(1))
	w := newReplicaWAL(t, wal.Options{Mode: wal.SyncEachRecord})
	if _, err := s.RecoverWAL(w); err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	var fail error
	s.SetCommitHook(func(lastSeq uint64) error {
		seqs = append(seqs, lastSeq)
		return fail
	})
	if err := s.Observe("normal", 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ObserveBatch([]ObserveRecord{
		{Queue: "normal", WaitSeconds: 2},
		{Queue: "high", WaitSeconds: 3},
	}); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 3 {
		t.Fatalf("hook saw seqs %v, want [1 3]", seqs)
	}

	// A failing hook refuses the observe as ErrReadOnly. The record is
	// durable and applied locally — apply-then-wait, the primary-backup
	// ordering — so the refusal means "not replicated", never "lost".
	fail = errors.New("no follower ack")
	pre, _ := s.StreamStats("normal", 0)
	err := s.Observe("normal", 0, 4)
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("failing hook: got %v, want ErrReadOnly", err)
	}
	post, _ := s.StreamStats("normal", 0)
	if post.Observations != pre.Observations+1 {
		t.Fatalf("refused observe should still be applied locally: %d -> %d", pre.Observations, post.Observations)
	}
	n, berr := s.ObserveBatch([]ObserveRecord{{Queue: "normal", WaitSeconds: 5}})
	if n != 1 || !errors.Is(berr, ErrReadOnly) {
		t.Fatalf("failing hook on batch: got (%d, %v), want (1, ErrReadOnly)", n, berr)
	}
	var be *BatchError
	if !errors.As(berr, &be) || be.Index != 1 {
		t.Fatalf("batch refusal should carry Index == applied count, got %#v", berr)
	}
}

// TestReplicatedServingEndToEnd wires two real Services through the repl
// plane over the in-memory transport: writes on the leader become
// identical forecasts on the follower, and synchronous commit waits
// observe the follower's acks.
func TestReplicatedServingEndToEnd(t *testing.T) {
	leaderSvc := NewService(false, WithSeed(1))
	w := newReplicaWAL(t, wal.Options{Mode: wal.SyncEachRecord})
	if _, err := leaderSvc.RecoverWAL(w); err != nil {
		t.Fatal(err)
	}
	tr := repl.NewMemTransport()
	ln, err := tr.Listen("leader")
	if err != nil {
		t.Fatal(err)
	}
	ldr := repl.NewLeader(w, leaderSvc, repl.LeaderOptions{Epoch: 1, HeartbeatEvery: 20 * time.Millisecond})
	defer ldr.Close()
	go ldr.Serve(ln)
	leaderSvc.SetCommitHook(ldr.CommitWait)

	folSvc := NewService(false, WithSeed(1))
	folSvc.SetFollower(true)
	fol, err := repl.NewFollower(folSvc, repl.FollowerOptions{
		Addr:       "leader",
		Transport:  tr,
		Epochs:     &repl.MemEpochStore{},
		BackoffMin: time.Millisecond,
		BackoffMax: 20 * time.Millisecond,
		Rand:       rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	go fol.Run()

	for i := 0; i < 150; i++ {
		if err := leaderSvc.Observe("normal", 0, float64(1+i%60)); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
	}
	waitForReplica(t, "follower to apply the leader's records", func() bool {
		return folSvc.ReplicaAppliedSeq() >= 150
	})
	want, wantOK := leaderSvc.Forecast("normal", 0)
	got, gotOK := folSvc.Forecast("normal", 0)
	if want != got || wantOK != gotOK {
		t.Fatalf("follower forecast (%v,%v) != leader (%v,%v)", got, gotOK, want, wantOK)
	}
	// The commit hook means every returned Observe was follower-acked.
	if ack := ldr.AckSeq(); ack < 150 {
		t.Fatalf("ack watermark %d, want >= 150", ack)
	}
}
