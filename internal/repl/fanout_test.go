package repl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
)

// --- fan-out, windowing, quorum, and chunked snapshot coverage ---

// TestNoBatchShipsAfterFence is the fence-propagation regression test:
// once fence() returns, no session may ship another batch — not the
// session that carried the deposing epoch, and not any other connected
// follower, even for records appended afterwards.
func TestNoBatchShipsAfterFence(t *testing.T) {
	w := newTestWAL(t, wal.Options{Mode: wal.SyncEachRecord})
	for i := 0; i < 10; i++ {
		if _, err := appendOne(w, "q", float64(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr := NewMemTransport()
	ln, _ := tr.Listen("leader")
	l := NewLeader(w, &fakeSnap{w: w}, LeaderOptions{Epoch: 1, HeartbeatEvery: 10 * time.Millisecond})
	go l.Serve(ln)
	defer l.Close()

	app := &fakeApp{}
	startFollower(t, app, tr, 1)
	waitFor(t, "follower to apply the backlog", func() bool { return app.ReplicaAppliedSeq() == 10 })

	l.fence(2)
	sent := l.BatchesSent()
	applied := app.ReplicaAppliedSeq()
	for i := 0; i < 5; i++ {
		if _, err := appendOne(w, "q", 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Give a live session ample time to misbehave: several heartbeat
	// periods plus the follower's reconnect backoff.
	time.Sleep(150 * time.Millisecond)
	if got := l.BatchesSent(); got != sent {
		t.Fatalf("fenced leader shipped %d more batches", got-sent)
	}
	if got := app.ReplicaAppliedSeq(); got != applied {
		t.Fatalf("follower applied past the fence: %d -> %d", applied, got)
	}
	if err := l.CommitWait(10); !errors.Is(err, ErrFenced) {
		t.Fatalf("CommitWait after fence: %v", err)
	}
}

// gatedApp blocks every apply until the gate closes, so acks never come
// back and the leader's in-flight window must fill and hold.
type gatedApp struct {
	fakeApp
	gate chan struct{}
}

func (a *gatedApp) ApplyReplicated(prevSeq uint64, recs []wal.Record) error {
	<-a.gate
	return a.fakeApp.ApplyReplicated(prevSeq, recs)
}

func TestWindowBackpressureBoundsInflight(t *testing.T) {
	w := newTestWAL(t, wal.Options{Mode: wal.SyncEachRecord})
	for i := 0; i < 12; i++ {
		if _, err := appendOne(w, "q", float64(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr := NewMemTransport()
	ln, _ := tr.Listen("leader")
	l := NewLeader(w, &fakeSnap{w: w}, LeaderOptions{
		Epoch:          1,
		HeartbeatEvery: 10 * time.Millisecond,
		BatchMax:       1,
		WindowBatches:  2,
	})
	go l.Serve(ln)
	defer l.Close()

	app := &gatedApp{gate: make(chan struct{})}
	startFollower(t, app, tr, 1)

	// With acks withheld, exactly WindowBatches batches may be in flight.
	waitFor(t, "window to fill", func() bool { return l.BatchesSent() == 2 })
	time.Sleep(50 * time.Millisecond)
	if got := l.BatchesSent(); got != 2 {
		t.Fatalf("leader sent %d batches past a full window of 2", got)
	}
	if got := l.InflightMessages(); got != 2 {
		t.Fatalf("inflight gauge %d, want 2", got)
	}

	// Releasing the gate drains the window and ships the rest.
	close(app.gate)
	waitFor(t, "backlog to drain", func() bool { return app.ReplicaAppliedSeq() == 12 })
	waitFor(t, "window to empty", func() bool { return l.InflightMessages() == 0 })
	if l.InflightBytes() != 0 {
		t.Fatalf("inflight bytes gauge %d after drain", l.InflightBytes())
	}
}

func TestQuorumCommitWait(t *testing.T) {
	w := newTestWAL(t, wal.Options{Mode: wal.SyncEachRecord})
	tr := NewMemTransport()
	ln, _ := tr.Listen("leader")
	l := NewLeader(w, &fakeSnap{w: w}, LeaderOptions{
		Epoch:          1,
		HeartbeatEvery: 10 * time.Millisecond,
		Quorum:         2,
		CommitTimeout:  150 * time.Millisecond,
	})
	go l.Serve(ln)
	defer l.Close()
	if l.Quorum() != 2 {
		t.Fatalf("Quorum() = %d", l.Quorum())
	}

	seq, err := appendOne(w, "q", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	app1 := &fakeApp{}
	startFollower(t, app1, tr, 1)
	waitFor(t, "first follower to apply", func() bool { return app1.ReplicaAppliedSeq() >= seq })

	// One ack is below K=2: the commit must time out, not release.
	if err := l.CommitWait(seq); !errors.Is(err, ErrCommitTimeout) {
		t.Fatalf("CommitWait with 1 of 2 acks: %v", err)
	}
	if l.AckSeq() >= seq {
		t.Fatalf("ack watermark %d advanced below quorum", l.AckSeq())
	}

	// The second follower's ack completes the quorum.
	app2 := &fakeApp{}
	startFollower(t, app2, tr, 1)
	waitFor(t, "second follower to apply", func() bool { return app2.ReplicaAppliedSeq() >= seq })
	if err := l.CommitWait(seq); err != nil {
		t.Fatalf("CommitWait with 2 of 2 acks: %v", err)
	}
	if l.AckSeq() < seq {
		t.Fatalf("ack watermark %d below %d after quorum", l.AckSeq(), seq)
	}
}

// TestBatchCacheSharesFramesAcrossFollowers proves frame-once/ship-many:
// three followers walking the same cursor sequence hit the cache for
// everything the first walker framed.
func TestBatchCacheSharesFramesAcrossFollowers(t *testing.T) {
	w := newTestWAL(t, wal.Options{Mode: wal.SyncEachRecord})
	for i := 0; i < 50; i++ {
		if _, err := appendOne(w, "q", float64(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr := NewMemTransport()
	ln, _ := tr.Listen("leader")
	l := NewLeader(w, &fakeSnap{w: w}, LeaderOptions{Epoch: 1, HeartbeatEvery: 10 * time.Millisecond})
	go l.Serve(ln)
	defer l.Close()

	apps := []*fakeApp{{}, {}, {}}
	for _, app := range apps {
		startFollower(t, app, tr, 1)
	}
	for _, app := range apps {
		app := app
		waitFor(t, "fan-out to converge", func() bool { return app.ReplicaAppliedSeq() == 50 })
	}
	if l.BatchCacheMisses() == 0 {
		t.Fatal("no cache misses: nothing was ever framed")
	}
	if l.BatchCacheHits() == 0 {
		t.Fatal("no cache hits: every follower re-framed the same batches")
	}
	if l.ShipBytes() == 0 {
		t.Fatal("ship bytes counter never moved")
	}
	// All three followers saw identical bytes: same records, same order.
	a0, _, n0 := apps[0].stats()
	for _, app := range apps[1:] {
		a, _, n := app.stats()
		if a != a0 || n != n0 {
			t.Fatalf("fan-out diverged: (%d,%d) vs (%d,%d)", a, n, a0, n0)
		}
	}
}

// stubSnapStream is a fixed chunk sequence for exercising the chunked
// transfer protocol without a real qbets state.
type stubSnapStream struct {
	covered uint64
	chunks  [][]byte
}

func (s *stubSnapStream) CoveredSeq() uint64 { return s.covered }
func (s *stubSnapStream) Header() []byte     { return []byte("hdr") }
func (s *stubSnapStream) Chunks() int        { return len(s.chunks) }
func (s *stubSnapStream) Close()             {}
func (s *stubSnapStream) AppendChunk(i int, dst []byte) ([]byte, error) {
	return append(dst, s.chunks[i]...), nil
}

// stubStreamSnap serves stubSnapStream generations; the monolithic
// fallback must never be used when streaming is available.
type stubStreamSnap struct {
	w      *wal.WAL
	chunks [][]byte

	mu    sync.Mutex
	opens int
}

func (s *stubStreamSnap) ReplicaSnapshot() (uint64, []byte, error) {
	return 0, nil, errors.New("monolithic path must not be used")
}

func (s *stubStreamSnap) OpenReplicaSnapshotStream() (SnapshotStream, error) {
	s.mu.Lock()
	s.opens++
	s.mu.Unlock()
	return &stubSnapStream{covered: s.w.SyncedSeq(), chunks: s.chunks}, nil
}

// TestChunkedSnapshotAssemblesOnPlainFollower: a follower without
// ChunkedReplicaApp assembles the chunk stream into one blob and installs
// it through the ordinary InstallReplicaSnapshot path.
func TestChunkedSnapshotAssemblesOnPlainFollower(t *testing.T) {
	w := newTestWAL(t, wal.Options{Mode: wal.SyncEachRecord, SegmentBytes: 64})
	for i := 0; i < 30; i++ {
		if _, err := appendOne(w, "q", float64(i), int64(i)); err != nil {
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
	snap := &stubStreamSnap{w: w, chunks: [][]byte{[]byte("aa"), []byte("bb"), []byte("cc")}}
	l := NewLeader(w, snap, LeaderOptions{Epoch: 1, HeartbeatEvery: 10 * time.Millisecond})
	go l.Serve(ln)
	defer l.Close()

	app := &fakeApp{}
	f := startFollower(t, app, tr, 1) // same epoch, compacted-away cursor
	waitFor(t, "chunked catch-up", func() bool {
		applied, installs, _ := app.stats()
		return installs >= 1 && applied >= 30
	})
	app.mu.Lock()
	blob := string(app.snapBlob)
	app.mu.Unlock()
	if blob != "aabbcc" {
		t.Fatalf("assembled blob %q", blob)
	}
	if l.SnapChunksSent() < 3 {
		t.Fatalf("leader sent %d chunks", l.SnapChunksSent())
	}
	if f.SnapshotChunksApplied() < 3 {
		t.Fatalf("follower applied %d chunks", f.SnapshotChunksApplied())
	}
	if l.SnapshotsSent() == 0 {
		t.Fatal("snapshots-sent counter never moved")
	}
	// The stream tails live after the install.
	seq, err := appendOne(w, "q", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "live record after chunked snapshot", func() bool { return app.ReplicaAppliedSeq() >= seq })
}

// TestConcurrentCatchupsShareSnapshotGeneration: two followers catching
// up at once capture one generation, not two.
func TestConcurrentCatchupsShareSnapshotGeneration(t *testing.T) {
	w := newTestWAL(t, wal.Options{Mode: wal.SyncEachRecord, SegmentBytes: 64})
	for i := 0; i < 30; i++ {
		if _, err := appendOne(w, "q", float64(i), int64(i)); err != nil {
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
	// Many chunks and withheld acks hold the first transfer open long
	// enough for the second catch-up to join its generation.
	chunks := make([][]byte, 64)
	for i := range chunks {
		chunks[i] = bytes.Repeat([]byte{byte(i)}, 128)
	}
	snap := &stubStreamSnap{w: w, chunks: chunks}
	l := NewLeader(w, snap, LeaderOptions{Epoch: 1, HeartbeatEvery: 10 * time.Millisecond, WindowBatches: 2})
	go l.Serve(ln)
	defer l.Close()

	apps := []*fakeApp{{}, {}}
	for _, app := range apps {
		startFollower(t, app, tr, 1)
	}
	for _, app := range apps {
		app := app
		waitFor(t, "both catch-ups to finish", func() bool {
			applied, installs, _ := app.stats()
			return installs >= 1 && applied >= 30
		})
	}
	snap.mu.Lock()
	opens := snap.opens
	snap.mu.Unlock()
	if shared := l.SnapGenerationsShared(); shared >= 1 && opens != 1 {
		t.Fatalf("generation shared %d times but %d opens", shared, opens)
	}
	if opens > 2 {
		t.Fatalf("%d generations captured for 2 followers", opens)
	}
	if l.SnapInflightPeakBytes() == 0 {
		t.Fatal("snapshot in-flight peak never recorded")
	}
}

// TestFollowerAbortsTornChunkStream drives the follower's chunk state
// machine by hand: a corrupt chunk aborts the partial install and drops
// the session; the reconnect re-requests and a clean stream installs.
func TestFollowerAbortsTornChunkStream(t *testing.T) {
	tr := NewMemTransport()
	ln, _ := tr.Listen("leader")
	defer ln.Close()

	app := &fakeApp{}
	f := startFollower(t, app, tr, 1)

	recvMsg := func(c Conn) (message, error) {
		b, err := c.Recv()
		if err != nil {
			return message{}, err
		}
		return decodeMessage(b)
	}
	sendMsg := func(c Conn, m message) {
		t.Helper()
		if err := c.Send(encodeMessage(nil, m)); err != nil {
			t.Fatalf("send kind %d: %v", m.kind, err)
		}
	}
	frameChunk := func(chunk []byte, corrupt bool) []byte {
		p := make([]byte, 4, 4+len(chunk))
		p = append(p, chunk...)
		crc := crc32.Checksum(p[4:], tcpCastagnoli)
		if corrupt {
			crc ^= 0xFFFFFFFF
		}
		binary.LittleEndian.PutUint32(p[:4], crc)
		return p
	}

	// Session 1: a chunk whose CRC does not match its payload.
	c1, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if m, err := recvMsg(c1); err != nil || m.kind != msgHello {
		t.Fatalf("first contact: %+v, %v", m, err)
	}
	sendMsg(c1, message{kind: msgSnapBegin, epoch: 1, arg: 5, payload: []byte("hdr")})
	sendMsg(c1, message{kind: msgSnapChunk, epoch: 1, arg: 0, payload: frameChunk([]byte("xx"), true)})
	waitFor(t, "torn stream abort", func() bool { return f.SnapshotAborts() >= 1 })
	if _, installs, _ := app.stats(); installs != 0 {
		t.Fatalf("%d installs from a torn stream", installs)
	}
	c1.Close()

	// Session 2: the reconnect hello re-requests; a clean stream installs.
	c2, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if m, err := recvMsg(c2); err != nil || m.kind != msgHello {
		t.Fatalf("reconnect contact: %+v, %v", m, err)
	}
	sendMsg(c2, message{kind: msgSnapBegin, epoch: 1, arg: 5, payload: []byte("hdr")})
	sendMsg(c2, message{kind: msgSnapChunk, epoch: 1, arg: 0, payload: frameChunk([]byte("state"), false)})
	sendMsg(c2, message{kind: msgSnapEnd, epoch: 1, arg: 5})
	waitFor(t, "clean install after reconnect", func() bool {
		applied, installs, _ := app.stats()
		return installs == 1 && applied == 5
	})
	app.mu.Lock()
	blob := string(app.snapBlob)
	app.mu.Unlock()
	if blob != "state" {
		t.Fatalf("installed blob %q", blob)
	}
	if f.Reconnects() < 2 {
		t.Fatalf("reconnects %d", f.Reconnects())
	}
	c2.Close()
}

// TestChunkIndexHoleAborts: a skipped chunk index is a torn stream, even
// with a valid checksum.
func TestChunkIndexHoleAborts(t *testing.T) {
	tr := NewMemTransport()
	ln, _ := tr.Listen("leader")
	defer ln.Close()

	app := &fakeApp{}
	f := startFollower(t, app, tr, 1)

	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if b, err := c.Recv(); err != nil {
		t.Fatal(err)
	} else if m, err := decodeMessage(b); err != nil || m.kind != msgHello {
		t.Fatalf("first contact: %+v, %v", m, err)
	}
	send := func(m message) {
		if err := c.Send(encodeMessage(nil, m)); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	chunk := make([]byte, 4, 6)
	chunk = append(chunk, "ok"...)
	binary.LittleEndian.PutUint32(chunk[:4], crc32.Checksum(chunk[4:], tcpCastagnoli))
	send(message{kind: msgSnapBegin, epoch: 1, arg: 3, payload: []byte("hdr")})
	send(message{kind: msgSnapChunk, epoch: 1, arg: 1, payload: chunk}) // hole: chunk 0 skipped
	waitFor(t, "hole abort", func() bool { return f.SnapshotAborts() >= 1 })
	if _, installs, _ := app.stats(); installs != 0 {
		t.Fatalf("%d installs despite the hole", installs)
	}
	c.Close()
}
