package repl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestProtocolRoundTrip(t *testing.T) {
	msgs := []message{
		{kind: msgHello, epoch: 3, arg: 42},
		{kind: msgSnapshot, epoch: 1, arg: 7, payload: []byte("blob")},
		{kind: msgBatch, epoch: 9, arg: 100, payload: bytes.Repeat([]byte{0xAB}, 1000)},
		{kind: msgHeartbeat, epoch: 2, arg: 55},
		{kind: msgAck, epoch: 2, arg: 54},
		{kind: msgReject, epoch: 8},
	}
	for _, want := range msgs {
		b := encodeMessage(nil, want)
		got, err := decodeMessage(b)
		if err != nil {
			t.Fatalf("decode kind %d: %v", want.kind, err)
		}
		if got.kind != want.kind || got.epoch != want.epoch || got.arg != want.arg || !bytes.Equal(got.payload, want.payload) {
			t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
		}
	}
	if _, err := decodeMessage([]byte{1, 2, 3}); err == nil {
		t.Fatal("short message decoded")
	}
	bad := encodeMessage(nil, message{kind: 99, epoch: 1})
	if _, err := decodeMessage(bad); err == nil {
		t.Fatal("unknown kind decoded")
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	ln, err := TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.(interface{ Addr() string }).Addr()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		for {
			b, err := c.Recv()
			if err != nil {
				return
			}
			if err := c.Send(b); err != nil {
				return
			}
		}
	}()

	c, err := TCP{}.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{[]byte("hi"), bytes.Repeat([]byte{0x5A}, 1<<16), {}}
	for _, p := range payloads {
		if err := c.Send(p); err != nil {
			t.Fatal(err)
		}
		got, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("echo mismatch: %d bytes vs %d", len(got), len(p))
		}
	}
	c.Close()
	wg.Wait()
}

func TestTCPRejectsCorruptFrame(t *testing.T) {
	ln, err := TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.(interface{ Addr() string }).Addr()

	errc := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			errc <- err
			return
		}
		defer c.Close()
		_, err = c.Recv()
		errc <- err
	}()

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	payload := []byte("garbled")
	var frame []byte
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, 0xDEADBEEF) // wrong CRC
	frame = append(frame, payload...)
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err == nil {
		t.Fatal("corrupt frame accepted")
	}
}

func TestFileEpochStore(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileEpochStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if e, err := s.Load(); err != nil || e != 0 {
		t.Fatalf("fresh store: epoch %d err %v", e, err)
	}
	if err := s.Save(7); err != nil {
		t.Fatal(err)
	}
	s2, err := NewFileEpochStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if e, err := s2.Load(); err != nil || e != 7 {
		t.Fatalf("reloaded store: epoch %d err %v", e, err)
	}
	if err := os.WriteFile(filepath.Join(dir, "epoch"), []byte("bogus"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Load(); err == nil {
		t.Fatal("corrupt epoch file loaded")
	}
}

func TestMemTransportPartitionAndSever(t *testing.T) {
	tr := NewMemTransport()
	ln, err := tr.Listen("leader")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := tr.Dial("leader")
	if err != nil {
		t.Fatal(err)
	}
	srv := <-accepted
	if err := c.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if b, err := srv.Recv(); err != nil || string(b) != "ping" {
		t.Fatalf("recv %q err %v", b, err)
	}

	tr.Partition(true)
	if _, err := tr.Dial("leader"); err == nil {
		t.Fatal("dial succeeded across partition")
	}
	tr.Partition(false)

	// Queue a message, then sever: it must be lost, and both ends dead.
	if err := c.Send([]byte("in-flight")); err != nil {
		t.Fatal(err)
	}
	tr.Sever()
	if _, err := srv.Recv(); err == nil {
		t.Fatal("read an in-flight message across a severed link")
	}
	if err := c.Send([]byte("x")); err == nil {
		t.Fatal("send succeeded on a severed conn")
	}
}

func TestMemTransportDelayAndReorder(t *testing.T) {
	tr := NewMemTransport()
	ln, _ := tr.Listen("leader")
	defer ln.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := tr.Dial("leader")
	if err != nil {
		t.Fatal(err)
	}
	srv := <-accepted

	tr.SetDelay(30 * time.Millisecond)
	start := time.Now()
	if err := c.Send([]byte("slow")); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Recv(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("delayed message arrived after only %v", elapsed)
	}
	tr.SetDelay(0)

	tr.SetReorder(1, rand.New(rand.NewSource(1)))
	if err := c.Send([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte("second")); err != nil {
		t.Fatal(err)
	}
	a, _ := srv.Recv()
	b, _ := srv.Recv()
	if string(a) != "second" || string(b) != "first" {
		t.Fatalf("reorder did not swap: got %q then %q", a, b)
	}
}

// --- leader/follower end to end over the fault-injection transport ---

type fakeApp struct {
	mu       sync.Mutex
	applied  uint64
	recs     []wal.Record
	installs int
	snapBlob []byte
	failNext bool
}

func (a *fakeApp) ReplicaAppliedSeq() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.applied
}

func (a *fakeApp) ApplyReplicated(prevSeq uint64, recs []wal.Record) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.failNext {
		a.failNext = false
		return errors.New("injected apply failure")
	}
	if prevSeq > a.applied {
		return errors.New("gap: batch does not extend applied prefix")
	}
	for _, r := range recs {
		if r.Seq > a.applied {
			a.recs = append(a.recs, r)
			a.applied = r.Seq
		}
	}
	return nil
}

func (a *fakeApp) InstallReplicaSnapshot(coveredSeq uint64, blob []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.installs++
	a.snapBlob = append([]byte(nil), blob...)
	if coveredSeq > a.applied {
		a.applied = coveredSeq
		a.recs = a.recs[:0] // snapshot replaces replayed state
	}
	return nil
}

func (a *fakeApp) stats() (applied uint64, installs int, n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.applied, a.installs, len(a.recs)
}

type fakeSnap struct {
	w    *wal.WAL
	blob []byte
}

func (s *fakeSnap) ReplicaSnapshot() (uint64, []byte, error) {
	return s.w.SyncedSeq(), s.blob, nil
}

func newTestWAL(t *testing.T, opt wal.Options) *wal.WAL {
	t.Helper()
	if opt.FS == nil {
		opt.FS = wal.NewMemFS()
	}
	w, err := wal.Open("wal", opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Replay(func(wal.Record) {}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func startFollower(t *testing.T, app ReplicaApp, tr Transport, epoch uint64) *Follower {
	t.Helper()
	store := &MemEpochStore{}
	if epoch > 0 {
		store.Save(epoch)
	}
	f, err := NewFollower(app, FollowerOptions{
		Addr:       "leader",
		Transport:  tr,
		Epochs:     store,
		BackoffMin: time.Millisecond,
		BackoffMax: 50 * time.Millisecond,
		Rand:       rand.New(rand.NewSource(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	go f.Run()
	t.Cleanup(f.Close)
	return f
}

func TestLeaderFollowerShipsBatches(t *testing.T) {
	w := newTestWAL(t, wal.Options{Mode: wal.SyncEachRecord})
	for i := 0; i < 20; i++ {
		if _, err := w.Append("q", float64(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr := NewMemTransport()
	ln, _ := tr.Listen("leader")
	l := NewLeader(w, &fakeSnap{w: w}, LeaderOptions{Epoch: 1, HeartbeatEvery: 20 * time.Millisecond, CommitTimeout: 3 * time.Second})
	go l.Serve(ln)
	defer l.Close()

	app := &fakeApp{}
	f := startFollower(t, app, tr, 1) // same epoch: no snapshot, pure batch shipping
	waitFor(t, "follower to apply the backlog", func() bool { return app.ReplicaAppliedSeq() == 20 })

	applied, installs, n := app.stats()
	if installs != 0 {
		t.Fatalf("same-epoch follower got %d snapshots", installs)
	}
	if applied != 20 || n != 20 {
		t.Fatalf("applied %d with %d records", applied, n)
	}

	// Live tail: new appends ship and CommitWait sees the acks.
	seq, err := w.Append("q", 99, 99)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.CommitWait(seq); err != nil {
		t.Fatalf("CommitWait(%d): %v", seq, err)
	}
	if got := f.LeaderSeq(); got < seq {
		t.Fatalf("follower leaderSeq %d < %d", got, seq)
	}
	app.mu.Lock()
	last := app.recs[len(app.recs)-1]
	app.mu.Unlock()
	if last.Seq != seq || last.Key != "q" || last.Wait != 99 {
		t.Fatalf("last record %+v", last)
	}
}

func TestLeaderSnapshotsCompactedFollower(t *testing.T) {
	w := newTestWAL(t, wal.Options{Mode: wal.SyncEachRecord, SegmentBytes: 64})
	for i := 0; i < 30; i++ {
		if _, err := w.Append("q", float64(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	cut, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RemoveSegmentsBelow(cut); err != nil {
		t.Fatal(err)
	}

	tr := NewMemTransport()
	ln, _ := tr.Listen("leader")
	l := NewLeader(w, &fakeSnap{w: w, blob: []byte("state")}, LeaderOptions{Epoch: 1, HeartbeatEvery: 20 * time.Millisecond})
	go l.Serve(ln)
	defer l.Close()

	app := &fakeApp{}
	startFollower(t, app, tr, 1) // same epoch, but its cursor fell off the log
	waitFor(t, "snapshot catch-up", func() bool {
		applied, installs, _ := app.stats()
		return installs >= 1 && applied >= 30
	})
	app.mu.Lock()
	blob := string(app.snapBlob)
	app.mu.Unlock()
	if blob != "state" {
		t.Fatalf("snapshot blob %q", blob)
	}
	if l.SnapshotsSent() == 0 {
		t.Fatal("leader sent no snapshot")
	}

	// After catch-up the follower tails live appends.
	seq, err := w.Append("q", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "live record after snapshot", func() bool { return app.ReplicaAppliedSeq() >= seq })
}

func TestFreshFollowerGetsSnapshotOnEpochMismatch(t *testing.T) {
	w := newTestWAL(t, wal.Options{Mode: wal.SyncEachRecord})
	for i := 0; i < 5; i++ {
		if _, err := w.Append("q", float64(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr := NewMemTransport()
	ln, _ := tr.Listen("leader")
	l := NewLeader(w, &fakeSnap{w: w}, LeaderOptions{Epoch: 3, HeartbeatEvery: 20 * time.Millisecond})
	go l.Serve(ln)
	defer l.Close()

	app := &fakeApp{}
	f := startFollower(t, app, tr, 0) // epoch 0: first contact forces a reset snapshot
	waitFor(t, "epoch-mismatch snapshot", func() bool {
		applied, installs, _ := app.stats()
		return installs >= 1 && applied >= 5
	})
	waitFor(t, "epoch adoption", func() bool { return f.Epoch() == 3 })
}

// shipRecorder is a fakeApp that also remembers the sequence of every
// record shipped to it, duplicates included.
type shipRecorder struct {
	*fakeApp
	mu      sync.Mutex
	shipped []uint64
}

func (a *shipRecorder) ApplyReplicated(prevSeq uint64, recs []wal.Record) error {
	a.mu.Lock()
	for _, r := range recs {
		a.shipped = append(a.shipped, r.Seq)
	}
	a.mu.Unlock()
	return a.fakeApp.ApplyReplicated(prevSeq, recs)
}

// TestRestartedLeaderSnapshotCoversReplayedLog: a leader restarted on its
// own log hands a fresh follower a catch-up snapshot covering everything
// it replayed, then ships only what it appends afterwards — never the
// replayed prefix a second time.
func TestRestartedLeaderSnapshotCoversReplayedLog(t *testing.T) {
	const replayed = 50
	fs := wal.NewMemFS()
	prev := newTestWAL(t, wal.Options{FS: fs, Mode: wal.SyncEachRecord})
	for i := 1; i <= replayed; i++ {
		if _, err := prev.Append("q", float64(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := prev.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart under an interval policy whose tick never fires during the
	// test: only Replay can have published the watermark.
	w := newTestWAL(t, wal.Options{FS: fs, Mode: wal.SyncInterval, Interval: time.Hour})
	if got := w.SyncedSeq(); got != replayed {
		t.Fatalf("restarted watermark = %d, want %d", got, replayed)
	}
	tr := NewMemTransport()
	ln, _ := tr.Listen("leader")
	l := NewLeader(w, &fakeSnap{w: w, blob: []byte("state")}, LeaderOptions{Epoch: 2, HeartbeatEvery: 20 * time.Millisecond})
	go l.Serve(ln)
	defer l.Close()

	app := &shipRecorder{fakeApp: &fakeApp{}}
	startFollower(t, app, tr, 0) // fresh follower: catch-up by snapshot
	waitFor(t, "catch-up snapshot", func() bool {
		_, installs, _ := app.stats()
		return installs >= 1
	})
	if applied, installs, _ := app.stats(); installs != 1 || applied != replayed {
		t.Fatalf("after catch-up: %d snapshots covering seq %d, want 1 covering %d", installs, applied, replayed)
	}

	seq, err := w.Append("q", 99, 99)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-restart record", func() bool { return app.ReplicaAppliedSeq() >= seq })
	app.mu.Lock()
	shipped := append([]uint64(nil), app.shipped...)
	app.mu.Unlock()
	if len(shipped) != 1 || shipped[0] != seq {
		t.Fatalf("leader shipped seqs %v after the snapshot, want only [%d]", shipped, seq)
	}
	if got := l.RecordsShipped(); got != 1 {
		t.Fatalf("leader counts %d records shipped, want 1", got)
	}
}

func TestHigherEpochFencesLeaderBeforeAckWatermark(t *testing.T) {
	w := newTestWAL(t, wal.Options{Mode: wal.SyncEachRecord})
	seq, err := w.Append("q", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewMemTransport()
	ln, _ := tr.Listen("leader")
	fencedEpoch := make(chan uint64, 1)
	l := NewLeader(w, &fakeSnap{w: w}, LeaderOptions{
		Epoch:          1,
		HeartbeatEvery: 20 * time.Millisecond,
		CommitTimeout:  3 * time.Second,
		OnFence:        func(e uint64) { fencedEpoch <- e },
	})
	go l.Serve(ln)
	defer l.Close()

	app := &fakeApp{}
	startFollower(t, app, tr, 1)
	if err := l.CommitWait(seq); err != nil {
		t.Fatalf("CommitWait before fencing: %v", err)
	}

	// A node from epoch 2 makes contact: the leader is deposed, and even
	// the already-acknowledged sequence must now refuse to commit — the
	// fence is checked before the watermark.
	app2 := &fakeApp{}
	startFollower(t, app2, tr, 2)
	waitFor(t, "leader to fence", l.Fenced)
	if e := <-fencedEpoch; e != 2 {
		t.Fatalf("OnFence epoch %d", e)
	}
	if l.AckSeq() < seq {
		t.Fatalf("ack watermark regressed to %d", l.AckSeq())
	}
	if err := l.CommitWait(seq); !errors.Is(err, ErrFenced) {
		t.Fatalf("CommitWait on fenced leader: %v", err)
	}
	if l.Fences() != 1 {
		t.Fatalf("fences counter %d", l.Fences())
	}
}

func TestFollowerRejectsStaleLeader(t *testing.T) {
	w := newTestWAL(t, wal.Options{Mode: wal.SyncEachRecord})
	tr := NewMemTransport()
	ln, _ := tr.Listen("leader")
	l := NewLeader(w, &fakeSnap{w: w}, LeaderOptions{Epoch: 1, HeartbeatEvery: 20 * time.Millisecond})
	go l.Serve(ln)
	defer l.Close()

	// The follower has witnessed epoch 5: everything this epoch-1 leader
	// says is stale, and first contact fences it.
	app := &fakeApp{}
	f := startFollower(t, app, tr, 5)
	waitFor(t, "stale leader to fence", l.Fenced)
	if f.Epoch() != 5 {
		t.Fatalf("follower epoch moved to %d", f.Epoch())
	}
	if app.ReplicaAppliedSeq() != 0 {
		t.Fatal("follower applied records from a stale leader")
	}
}

func TestFollowerReconnectsAfterApplyFailure(t *testing.T) {
	w := newTestWAL(t, wal.Options{Mode: wal.SyncEachRecord})
	if _, err := w.Append("q", 1, 1); err != nil {
		t.Fatal(err)
	}
	tr := NewMemTransport()
	ln, _ := tr.Listen("leader")
	l := NewLeader(w, &fakeSnap{w: w}, LeaderOptions{Epoch: 1, HeartbeatEvery: 20 * time.Millisecond})
	go l.Serve(ln)
	defer l.Close()

	app := &fakeApp{failNext: true}
	f := startFollower(t, app, tr, 1)
	waitFor(t, "reconnect and converge", func() bool { return app.ReplicaAppliedSeq() >= 1 })
	if f.Reconnects() < 2 {
		t.Fatalf("reconnects %d, want the failed session plus a retry", f.Reconnects())
	}
}

func TestPromoteClaimsNextEpoch(t *testing.T) {
	store := &MemEpochStore{}
	store.Save(3)
	f, err := NewFollower(&fakeApp{}, FollowerOptions{Addr: "nowhere", Transport: NewMemTransport(), Epochs: store})
	if err != nil {
		t.Fatal(err)
	}
	e, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if e != 4 {
		t.Fatalf("promoted epoch %d", e)
	}
	if got, _ := store.Load(); got != 4 {
		t.Fatalf("persisted epoch %d", got)
	}
}

func TestBackoffBounds(t *testing.T) {
	f, err := NewFollower(&fakeApp{}, FollowerOptions{
		Addr:       "nowhere",
		Transport:  NewMemTransport(),
		BackoffMin: 10 * time.Millisecond,
		BackoffMax: 160 * time.Millisecond,
		Rand:       rand.New(rand.NewSource(42)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 12; attempt++ {
		d := f.backoff(attempt)
		if d < 5*time.Millisecond {
			t.Fatalf("attempt %d: backoff %v below half the floor", attempt, d)
		}
		if d > 160*time.Millisecond {
			t.Fatalf("attempt %d: backoff %v above the cap", attempt, d)
		}
	}
}
