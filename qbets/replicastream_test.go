package qbets

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/repl"
	"repro/internal/wal"
)

// feedChunkedSnapshot drives a captured stream through the follower-side
// chunked install interface, the way a repl session would.
func feedChunkedSnapshot(t *testing.T, src repl.SnapshotStream, dst *Service) {
	t.Helper()
	if err := dst.BeginReplicaSnapshot(src.CoveredSeq(), src.Header()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < src.Chunks(); i++ {
		chunk, err := src.AppendChunk(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.ApplyReplicaSnapshotChunk(i, chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := dst.CommitReplicaSnapshot(src.CoveredSeq()); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaSnapshotStreamRoundTrip: a chunked capture, fed chunk by
// chunk into a follower, reproduces the leader's state exactly — and
// matches what the monolithic snapshot would have installed.
func TestReplicaSnapshotStreamRoundTrip(t *testing.T) {
	leader := NewService(false, WithSeed(1))
	w := newReplicaWAL(t, wal.Options{Mode: wal.SyncEachRecord})
	if _, err := leader.RecoverWAL(w); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		if err := leader.Observe(fmt.Sprintf("q%d", i%7), 0, float64(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	leader.SetSnapshotChunkStreams(2) // 7 streams -> 4 chunks
	ss, err := leader.OpenReplicaSnapshotStream()
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if ss.CoveredSeq() != 120 {
		t.Fatalf("covered = %d, want 120", ss.CoveredSeq())
	}
	if ss.Chunks() != 4 {
		t.Fatalf("chunks = %d, want 4", ss.Chunks())
	}

	chunked := NewService(false, WithSeed(1))
	chunked.SetFollower(true)
	feedChunkedSnapshot(t, ss, chunked)
	if got := chunked.ReplicaAppliedSeq(); got != 120 {
		t.Fatalf("ReplicaAppliedSeq = %d, want 120", got)
	}

	covered, blob, err := leader.ReplicaSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	mono := NewService(false, WithSeed(1))
	mono.SetFollower(true)
	if err := mono.InstallReplicaSnapshot(covered, blob); err != nil {
		t.Fatal(err)
	}

	if chunked.NumStreams() != leader.NumStreams() || mono.NumStreams() != leader.NumStreams() {
		t.Fatalf("streams: chunked %d, mono %d, leader %d", chunked.NumStreams(), mono.NumStreams(), leader.NumStreams())
	}
	for i := 0; i < 7; i++ {
		q := fmt.Sprintf("q%d", i)
		want, wantOK := leader.Forecast(q, 0)
		if got, ok := chunked.Forecast(q, 0); got != want || ok != wantOK {
			t.Fatalf("queue %q: chunked forecast (%v,%v) != leader (%v,%v)", q, got, ok, want, wantOK)
		}
		if got, ok := mono.Forecast(q, 0); got != want || ok != wantOK {
			t.Fatalf("queue %q: monolithic forecast (%v,%v) != leader (%v,%v)", q, got, ok, want, wantOK)
		}
		ws, _ := leader.StreamStats(q, 0)
		cs, _ := chunked.StreamStats(q, 0)
		if ws.Observations != cs.Observations {
			t.Fatalf("queue %q: chunked has %d observations, leader %d", q, cs.Observations, ws.Observations)
		}
	}

	// Records at or below the covered sequence dedup away afterwards.
	pre, _ := chunked.StreamStats("q0", 0)
	if err := chunked.ApplyReplicated(119, []wal.Record{{Seq: 120, Key: "q0", Wait: 1, UnixNanos: 1}}); err != nil {
		t.Fatal(err)
	}
	if post, _ := chunked.StreamStats("q0", 0); post.Observations != pre.Observations {
		t.Fatalf("covered record re-applied after chunked install")
	}
}

// TestChunkedInstallGuards: the follower-side install refuses misuse and
// a torn transfer leaves serving state untouched.
func TestChunkedInstallGuards(t *testing.T) {
	s := NewService(false, WithSeed(1))
	if err := s.BeginReplicaSnapshot(1, []byte("{}")); err == nil {
		t.Fatal("BeginReplicaSnapshot accepted on a non-follower")
	}
	s.SetFollower(true)
	if err := s.ApplyReplicaSnapshotChunk(0, []byte("{}")); err == nil {
		t.Fatal("chunk accepted without a pending install")
	}
	if err := s.CommitReplicaSnapshot(1); err == nil {
		t.Fatal("commit accepted without a pending install")
	}
	if err := s.BeginReplicaSnapshot(1, []byte("not json")); !errors.Is(err, ErrCorruptState) {
		t.Fatalf("corrupt header: got %v, want ErrCorruptState", err)
	}

	// A commit before every declared chunk arrived (a reordered end
	// marker) must refuse rather than install truncated state.
	if err := s.BeginReplicaSnapshot(7, []byte(`{"by_procs":false,"next_seed":1,"streams":2,"chunks":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyReplicaSnapshotChunk(0, []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitReplicaSnapshot(7); !errors.Is(err, ErrCorruptState) {
		t.Fatalf("premature commit: got %v, want ErrCorruptState", err)
	}
	if s.ReplicaAppliedSeq() != 0 {
		t.Fatalf("premature commit moved the applied seq to %d", s.ReplicaAppliedSeq())
	}
	// An out-of-order or extra chunk is refused too.
	if err := s.BeginReplicaSnapshot(7, []byte(`{"by_procs":false,"next_seed":1,"streams":2,"chunks":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyReplicaSnapshotChunk(1, []byte("{}")); !errors.Is(err, ErrCorruptState) {
		t.Fatalf("out-of-order chunk: got %v, want ErrCorruptState", err)
	}
	s.AbortReplicaSnapshot()

	// Seed some replicated state, then tear a transfer mid-way: nothing
	// about the serving state may change.
	if err := s.ApplyReplicated(0, []wal.Record{{Seq: 1, Key: "normal", Wait: 5, UnixNanos: 1}}); err != nil {
		t.Fatal(err)
	}
	preF, preOK := s.Forecast("normal", 0)
	if err := s.BeginReplicaSnapshot(9, []byte(`{"by_procs":false,"next_seed":1,"streams":1,"chunks":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyReplicaSnapshotChunk(0, []byte("torn")); !errors.Is(err, ErrCorruptState) {
		t.Fatalf("corrupt chunk: got %v, want ErrCorruptState", err)
	}
	s.AbortReplicaSnapshot()
	if err := s.CommitReplicaSnapshot(9); err == nil {
		t.Fatal("commit accepted after abort")
	}
	if f, ok := s.Forecast("normal", 0); f != preF || ok != preOK {
		t.Fatalf("torn transfer changed serving state: (%v,%v) -> (%v,%v)", preF, preOK, f, ok)
	}
	if s.ReplicaAppliedSeq() != 1 {
		t.Fatalf("torn transfer moved the applied seq to %d", s.ReplicaAppliedSeq())
	}
}

// TestBeginReplicaSnapshotSizesNothingFromTheHeader: the header's stream
// count comes off the wire, so a pending install must grow from the chunks
// that arrive instead of reserving what the header declares. A header
// declaring 4,000,000 streams with no chunk behind it leaves under 1 MB
// live; pre-sizing the pending map from it held 223.6 MB.
func TestBeginReplicaSnapshotSizesNothingFromTheHeader(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations distort heap sizes")
	}
	s := NewService(false, WithSeed(1))
	s.SetFollower(true)
	base := liveHeap()
	if err := s.BeginReplicaSnapshot(1, []byte(`{"by_procs":false,"next_seed":1,"streams":4000000,"chunks":1}`)); err != nil {
		t.Fatal(err)
	}
	grew := int64(liveHeap()) - int64(base)
	runtime.KeepAlive(s)
	if grew >= 1<<20 {
		t.Fatalf("an empty install declaring 4,000,000 streams left %d bytes live, want under 1 MB", grew)
	}
	s.AbortReplicaSnapshot()
}

// TestSnapshotCatchupMemoryIsChunkBounded is the O(chunk) claim as a
// budget test: while two followers catch up over real sessions at once,
// the leader's peak in-flight snapshot bytes stay within the per-session
// window bound — a budget derived from chunk size, far below the O(state)
// bytes the monolithic path would have pinned per follower.
func TestSnapshotCatchupMemoryIsChunkBounded(t *testing.T) {
	leaderSvc := NewService(false, WithSeed(1))
	w := newReplicaWAL(t, wal.Options{Mode: wal.SyncEachRecord})
	if _, err := leaderSvc.RecoverWAL(w); err != nil {
		t.Fatal(err)
	}
	const streams = 256
	for i := 0; i < streams; i++ {
		q := fmt.Sprintf("q%03d", i)
		for j := 0; j < 40; j++ {
			if err := leaderSvc.Observe(q, 0, float64(1+(i+j)%800)); err != nil {
				t.Fatal(err)
			}
		}
	}
	leaderSvc.SetSnapshotChunkStreams(16) // 256 streams -> 16 chunks

	// Measure the transfer's actual shape: the largest framed chunk and
	// the O(state) total a monolithic install would ship per follower.
	ss, err := leaderSvc.OpenReplicaSnapshotStream()
	if err != nil {
		t.Fatal(err)
	}
	maxChunk, total := 0, 0
	for i := 0; i < ss.Chunks(); i++ {
		c, err := ss.AppendChunk(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		framed := len(c) + 4 // CRC prefix rides in the message payload
		total += framed
		if framed > maxChunk {
			maxChunk = framed
		}
	}
	ss.Close()

	const windowBytes = 8 << 10
	// Per session the window admits one chunk past WindowBytes; two
	// concurrent catch-ups at most double it.
	budget := int64(2 * (windowBytes + maxChunk))
	if int64(total) <= budget {
		t.Fatalf("state too small for the bound to mean anything: total %d <= budget %d", total, budget)
	}

	tr := repl.NewMemTransport()
	ln, err := tr.Listen("leader")
	if err != nil {
		t.Fatal(err)
	}
	ldr := repl.NewLeader(w, leaderSvc, repl.LeaderOptions{
		Epoch:          1,
		HeartbeatEvery: 10 * time.Millisecond,
		WindowBytes:    windowBytes,
	})
	defer ldr.Close()
	go ldr.Serve(ln)

	covered := w.SyncedSeq()
	fols := make([]*repl.Follower, 2)
	svcs := make([]*Service, 2)
	for i := range fols {
		svcs[i] = NewService(false, WithSeed(1))
		svcs[i].SetFollower(true)
		f, err := repl.NewFollower(svcs[i], repl.FollowerOptions{
			Addr:       "leader",
			Transport:  tr,
			Epochs:     &repl.MemEpochStore{},
			BackoffMin: time.Millisecond,
			BackoffMax: 20 * time.Millisecond,
			Rand:       rand.New(rand.NewSource(int64(i + 1))),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		go f.Run()
		fols[i] = f
	}
	for i, svc := range svcs {
		svc := svc
		waitForReplica(t, fmt.Sprintf("follower %d to catch up", i), func() bool {
			return svc.ReplicaAppliedSeq() >= covered
		})
	}
	for i, svc := range svcs {
		if got := svc.NumStreams(); got != streams {
			t.Fatalf("follower %d has %d streams, want %d", i, got, streams)
		}
	}
	peak := ldr.SnapInflightPeakBytes()
	if peak == 0 {
		t.Fatal("no chunked transfer happened: peak gauge never moved")
	}
	if peak > budget {
		t.Fatalf("peak in-flight snapshot bytes %d exceed the O(chunk) budget %d (state total %d)", peak, budget, total)
	}
	t.Logf("peak %d bytes, budget %d, O(state) per follower %d", peak, budget, total)
}
