package repl

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// Snapshotter produces the catch-up snapshot a leader sends to a
// follower whose cursor fell off the retained log: the full serving
// state plus the log sequence it covers.
type Snapshotter interface {
	ReplicaSnapshot() (coveredSeq uint64, blob []byte, err error)
}

// SnapshotStream is a chunked catch-up snapshot: a fixed chunk count
// captured at open time, rendered on demand. AppendChunk must be safe for
// concurrent use — several follower sessions catching up at once share
// one stream (one snapshot generation) and render chunks independently,
// each into its own buffer, so leader memory stays O(chunk) per follower
// rather than O(state).
type SnapshotStream interface {
	CoveredSeq() uint64
	Header() []byte
	Chunks() int
	AppendChunk(i int, dst []byte) ([]byte, error)
	Close()
}

// StreamSnapshotter is the chunked upgrade of Snapshotter. A leader whose
// app implements it streams catch-ups as msgSnapBegin/msgSnapChunk/
// msgSnapEnd; otherwise it falls back to the monolithic msgSnapshot.
type StreamSnapshotter interface {
	OpenReplicaSnapshotStream() (SnapshotStream, error)
}

// Leader errors. ErrFenced is permanent: a deposed leader never acks
// again. ErrCommitTimeout and ErrClosed are per-call.
var (
	ErrFenced        = errors.New("repl: leader fenced by a higher epoch")
	ErrCommitTimeout = errors.New("repl: commit wait timed out")
	ErrClosed        = errors.New("repl: leader closed")
)

// LeaderOptions configures a Leader. Epoch is mandatory and fixed for
// the leader's lifetime — a node claims a new epoch by constructing a
// new Leader, never by mutating one.
type LeaderOptions struct {
	// Epoch is this leadership term's fencing token.
	Epoch uint64
	// BatchMax caps records per shipped batch. Default 512.
	BatchMax int
	// HeartbeatEvery is how often an idle session pings its follower.
	// Default 500ms.
	HeartbeatEvery time.Duration
	// CommitTimeout bounds CommitWait. Default 5s.
	CommitTimeout time.Duration
	// Quorum is how many distinct follower acknowledgements a sequence
	// needs before CommitWait releases it: commit when the K-th highest
	// per-follower watermark covers the sequence. Default 1 (any
	// follower), the pre-quorum behaviour.
	Quorum int
	// WindowBatches and WindowBytes bound the per-session in-flight
	// window: how many sent-but-unacknowledged messages (batches, or
	// snapshot chunks during catch-up) a session keeps on the wire so
	// shipping overlaps follower apply. When either bound is reached the
	// session waits for acks — backpressure, not buffering. Defaults 32
	// and 1 MiB.
	WindowBatches int
	WindowBytes   int
	// OnFence runs once, when the leader first learns of a higher epoch.
	OnFence func(epoch uint64)
}

// Leader ships committed WAL records to every connected follower. Each
// follower gets its own session goroutine with a bounded in-flight
// window, all sessions at the same cursor share one pre-encoded frame
// buffer through the batch cache, and per-follower ack watermarks feed a
// sorted tracker whose K-th-highest value is the commit watermark
// CommitWait observes.
type Leader struct {
	wal  *wal.WAL
	app  Snapshotter
	sapp StreamSnapshotter // non-nil when app supports chunked streaming
	opt  LeaderOptions

	cache *batchCache

	// ackMu guards the commit state: the fence flag, the per-session
	// watermark tracker, and the published commit watermark. The fence
	// flag is always consulted before the watermark — see CommitWait.
	ackMu      sync.Mutex
	ackCond    *sync.Cond
	ackSeq     uint64 // K-th-highest follower watermark; monotone
	acks       ackTracker
	fenced     bool
	fenceEpoch uint64

	// fencedHint mirrors fenced for lock-free checks on session hot
	// paths; it is set after the authoritative flag.
	fencedHint atomic.Bool

	// wake is the current broadcast channel for "the durability watermark
	// advanced": the pump goroutine swaps in a fresh channel and closes
	// the old one, waking every idle session at once.
	wake atomic.Pointer[chan struct{}]

	mu     sync.Mutex
	ln     Listener
	conns  map[Conn]struct{}
	closed bool
	done   chan struct{}
	wg     sync.WaitGroup

	// snapMu guards the shared snapshot generation: concurrent catch-ups
	// join the live stream instead of each capturing their own.
	snapMu  sync.Mutex
	snapGen *snapGen

	chunkBufs sync.Pool // *[]byte chunk render buffers

	followers  atomic.Int64
	batches    atomic.Uint64
	records    atomic.Uint64
	snapshots  atomic.Uint64
	heartbeats atomic.Uint64
	fences     atomic.Uint64
	shipBytes  atomic.Uint64
	snapChunks atomic.Uint64
	snapShared atomic.Uint64

	inflightMsgs  atomic.Int64
	inflightBytes atomic.Int64

	// snapInflight tracks snapshot chunk bytes on the wire (sent, not yet
	// snap-acked) across all sessions; snapInflightPeak records its high
	// water mark — the observable form of the O(chunk) memory claim.
	snapInflight     atomic.Int64
	snapInflightPeak atomic.Int64
}

// ackTracker keeps every connected session's acknowledged watermark in a
// sorted slice, so updating one follower's ack is a binary search plus a
// memmove — O(N) for N followers — and the K-th-highest watermark is an
// index from the top.
type ackTracker struct{ w []uint64 }

func (t *ackTracker) insert(v uint64) {
	i := sort.Search(len(t.w), func(i int) bool { return t.w[i] >= v })
	t.w = append(t.w, 0)
	copy(t.w[i+1:], t.w[i:])
	t.w[i] = v
}

func (t *ackTracker) remove(v uint64) {
	i := sort.Search(len(t.w), func(i int) bool { return t.w[i] >= v })
	if i < len(t.w) && t.w[i] == v {
		t.w = append(t.w[:i], t.w[i+1:]...)
	}
}

// kth returns the K-th highest watermark, or 0 when fewer than K
// followers are connected — below quorum, nothing commits.
func (t *ackTracker) kth(k int) uint64 {
	if k <= 0 {
		k = 1
	}
	if len(t.w) < k {
		return 0
	}
	return t.w[len(t.w)-k]
}

// NewLeader wires a leader to its WAL and snapshot source. Call Serve
// with a listener to start accepting followers.
func NewLeader(w *wal.WAL, app Snapshotter, opt LeaderOptions) *Leader {
	if opt.BatchMax <= 0 {
		opt.BatchMax = 512
	}
	if opt.HeartbeatEvery <= 0 {
		opt.HeartbeatEvery = 500 * time.Millisecond
	}
	if opt.CommitTimeout <= 0 {
		opt.CommitTimeout = 5 * time.Second
	}
	if opt.Quorum <= 0 {
		opt.Quorum = 1
	}
	if opt.WindowBatches <= 0 {
		opt.WindowBatches = 32
	}
	if opt.WindowBytes <= 0 {
		opt.WindowBytes = 1 << 20
	}
	l := &Leader{
		wal:   w,
		app:   app,
		opt:   opt,
		cache: newBatchCache(w),
		conns: make(map[Conn]struct{}),
		done:  make(chan struct{}),
	}
	l.sapp, _ = app.(StreamSnapshotter)
	l.ackCond = sync.NewCond(&l.ackMu)
	ch := make(chan struct{})
	l.wake.Store(&ch)
	notify := make(chan struct{}, 1)
	w.NotifySync(notify)
	l.wg.Add(1)
	go l.pump(notify)
	return l
}

// pump converts the WAL's sync notifications into close-broadcasts on
// the wake channel, so any number of idle sessions wake per sync without
// the WAL knowing about them.
func (l *Leader) pump(notify <-chan struct{}) {
	defer l.wg.Done()
	for {
		select {
		case <-l.done:
			return
		case <-notify:
			ch := make(chan struct{})
			old := l.wake.Swap(&ch)
			close(*old)
		}
	}
}

// Serve accepts followers until the listener fails (normally: until
// Close). Run it on its own goroutine.
func (l *Leader) Serve(ln Listener) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		ln.Close()
		return
	}
	l.ln = ln
	l.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			c.Close()
			return
		}
		l.conns[c] = struct{}{}
		l.wg.Add(1)
		l.mu.Unlock()
		go func() {
			defer l.wg.Done()
			l.session(c)
		}()
	}
}

// Close stops accepting, severs every session, and waits for them.
func (l *Leader) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	ln := l.ln
	conns := make([]Conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	close(l.done)
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	l.ackCond.Broadcast()
	l.wg.Wait()
	l.cache.close()
}

// CommitWait blocks until the quorum commit watermark — the K-th-highest
// per-follower acknowledged sequence — covers seq, the commit timeout
// elapses, or the leader is fenced or closed. The fence is checked before
// the watermark — the same discipline as the WAL group commit checking
// its segment's failed flag before the synced watermark — so a deposed
// leader returns ErrFenced even for sequences that were acknowledged
// before deposition.
func (l *Leader) CommitWait(seq uint64) error {
	deadline := time.Now().Add(l.opt.CommitTimeout)
	t := time.AfterFunc(l.opt.CommitTimeout, l.ackCond.Broadcast)
	defer t.Stop()
	l.ackMu.Lock()
	defer l.ackMu.Unlock()
	for {
		if l.fenced {
			return ErrFenced
		}
		if l.ackSeq >= seq {
			return nil
		}
		select {
		case <-l.done:
			return ErrClosed
		default:
		}
		if !time.Now().Before(deadline) {
			return ErrCommitTimeout
		}
		l.ackCond.Wait()
	}
}

// fence deposes the leader, once. Beyond refusing acks, the fence is
// propagated to every live session: the connections are closed before
// fence returns, so a deposed leader does not keep shipping batches or
// heartbeats while each follower individually discovers the new epoch.
func (l *Leader) fence(epoch uint64) {
	l.ackMu.Lock()
	already := l.fenced
	if !already {
		l.fenced = true
		l.fenceEpoch = epoch
	}
	l.ackMu.Unlock()
	if already {
		return
	}
	l.fencedHint.Store(true)
	l.fences.Add(1)
	l.ackCond.Broadcast()
	l.mu.Lock()
	conns := make([]Conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	if l.opt.OnFence != nil {
		l.opt.OnFence(epoch)
	}
}

// Epoch reports the leader's fencing token.
func (l *Leader) Epoch() uint64 { return l.opt.Epoch }

// Quorum reports the configured commit quorum K.
func (l *Leader) Quorum() int { return l.opt.Quorum }

// Fenced reports whether a higher epoch has deposed this leader.
func (l *Leader) Fenced() bool {
	l.ackMu.Lock()
	defer l.ackMu.Unlock()
	return l.fenced
}

// AckSeq reports the quorum commit watermark: the highest sequence
// acknowledged by at least K followers.
func (l *Leader) AckSeq() uint64 {
	l.ackMu.Lock()
	defer l.ackMu.Unlock()
	return l.ackSeq
}

// Followers reports currently connected follower sessions.
func (l *Leader) Followers() int64 { return l.followers.Load() }

// Cumulative counters and gauges for the metrics plane.
func (l *Leader) BatchesSent() uint64           { return l.batches.Load() }
func (l *Leader) RecordsShipped() uint64        { return l.records.Load() }
func (l *Leader) SnapshotsSent() uint64         { return l.snapshots.Load() }
func (l *Leader) HeartbeatsSent() uint64        { return l.heartbeats.Load() }
func (l *Leader) Fences() uint64                { return l.fences.Load() }
func (l *Leader) ShipBytes() uint64             { return l.shipBytes.Load() }
func (l *Leader) BatchCacheHits() uint64        { return l.cache.Hits() }
func (l *Leader) BatchCacheMisses() uint64      { return l.cache.Misses() }
func (l *Leader) SnapChunksSent() uint64        { return l.snapChunks.Load() }
func (l *Leader) SnapGenerationsShared() uint64 { return l.snapShared.Load() }

// InflightMessages and InflightBytes report the summed in-flight window
// depth across sessions: messages sent but not yet acknowledged.
func (l *Leader) InflightMessages() int64 { return l.inflightMsgs.Load() }
func (l *Leader) InflightBytes() int64    { return l.inflightBytes.Load() }

// SnapInflightPeakBytes reports the high-water mark of snapshot chunk
// bytes on the wire across all concurrent catch-ups — bounded by
// sessions × window, never by state size.
func (l *Leader) SnapInflightPeakBytes() int64 { return l.snapInflightPeak.Load() }

// session is the per-follower shipping state: the connection, the
// in-flight window, and the acknowledged watermark the quorum tracker
// holds for this follower.
type session struct {
	l *Leader
	c Conn

	sbuf []byte // message encode buffer; ship goroutine only

	ackCh chan struct{} // poked (cap 1) on any ack progress
	dead  chan struct{} // closed when the receive loop exits

	// acked is this follower's acknowledged watermark as tracked by the
	// quorum structure. Guarded by Leader.ackMu.
	acked  uint64
	joined bool

	// mu guards the in-flight window.
	mu           sync.Mutex
	pending      []pendingSend
	pendingBytes int
	ackHigh      uint64 // highest msgAck seen
	snapAckHigh  int    // highest snapAck chunk index + 1 in this transfer
}

// pendingSend is one unacknowledged message in the window: a batch
// (seq > 0, drained by msgAck) or a snapshot chunk (chunk = index+1,
// drained by msgSnapAck).
type pendingSend struct {
	seq   uint64
	chunk int
	bytes int
}

func (s *session) sendMsg(m message) error {
	s.sbuf = encodeMessage(s.sbuf[:0], m)
	return s.c.Send(s.sbuf)
}

func (s *session) poke() {
	select {
	case s.ackCh <- struct{}{}:
	default:
	}
}

func (s *session) noteSent(p pendingSend) {
	s.mu.Lock()
	s.pending = append(s.pending, p)
	s.pendingBytes += p.bytes
	s.mu.Unlock()
	s.l.inflightMsgs.Add(1)
	s.l.inflightBytes.Add(int64(p.bytes))
}

// drainLocked pops window entries whose acknowledgement has arrived.
// Entries drain in send order, each against its own ack stream, so a
// reordered ack simply waits for the next one to cover it.
func (s *session) drainLocked() {
	for len(s.pending) > 0 {
		p := s.pending[0]
		if p.chunk != 0 {
			if p.chunk > s.snapAckHigh {
				return
			}
			s.l.snapInflight.Add(int64(-p.bytes))
		} else if p.seq > s.ackHigh {
			return
		}
		s.pending = s.pending[1:]
		s.pendingBytes -= p.bytes
		s.l.inflightMsgs.Add(-1)
		s.l.inflightBytes.Add(int64(-p.bytes))
	}
}

func (s *session) windowFull() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 {
		return false
	}
	return len(s.pending) >= s.l.opt.WindowBatches || s.pendingBytes >= s.l.opt.WindowBytes
}

func (s *session) windowEmpty() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending) == 0
}

// waitAck blocks until ack progress, session death, or leader close.
func (s *session) waitAck() bool {
	select {
	case <-s.l.done:
		return false
	case <-s.dead:
		return false
	case <-s.ackCh:
		return true
	}
}

func (s *session) onAck(seq uint64) {
	l := s.l
	s.mu.Lock()
	if seq > s.ackHigh {
		s.ackHigh = seq
	}
	s.drainLocked()
	s.mu.Unlock()
	l.ackMu.Lock()
	if seq > s.acked && s.joined {
		l.acks.remove(s.acked)
		l.acks.insert(seq)
		s.acked = seq
		if k := l.acks.kth(l.opt.Quorum); k > l.ackSeq {
			l.ackSeq = k
		}
	}
	l.ackMu.Unlock()
	l.ackCond.Broadcast()
	s.poke()
}

func (s *session) onSnapAck(idx uint64) {
	s.mu.Lock()
	if n := int(idx) + 1; n > s.snapAckHigh {
		s.snapAckHigh = n
	}
	s.drainLocked()
	s.mu.Unlock()
	s.poke()
}

// recvLoop folds follower messages into session and leader state until
// the connection dies. Any message carrying a higher epoch fences the
// leader and kills the session.
func (s *session) recvLoop() {
	l := s.l
	defer close(s.dead)
	defer s.c.Close()
	for {
		b, err := s.c.Recv()
		if err != nil {
			return
		}
		m, err := decodeMessage(b)
		if err != nil {
			return
		}
		if m.epoch > l.opt.Epoch {
			l.fence(m.epoch)
			return
		}
		switch m.kind {
		case msgAck:
			s.onAck(m.arg)
		case msgSnapAck:
			s.onSnapAck(m.arg)
		case msgReject:
			return
		}
	}
}

func (l *Leader) joinQuorum(s *session) {
	l.ackMu.Lock()
	s.joined = true
	l.acks.insert(s.acked)
	l.ackMu.Unlock()
}

func (l *Leader) leaveQuorum(s *session) {
	l.ackMu.Lock()
	if s.joined {
		l.acks.remove(s.acked)
		s.joined = false
	}
	l.ackMu.Unlock()
	// No recompute: removing a watermark can only shrink the quorum, and
	// the published commit watermark is monotone by design.
}

// session drives one follower: handshake, then ship cached batches
// through the in-flight window (or a chunked snapshot when the follower's
// cursor fell off the log), heartbeating when idle, while the receive
// loop folds acks into the window and the quorum tracker.
func (l *Leader) session(c Conn) {
	defer func() {
		c.Close()
		l.mu.Lock()
		delete(l.conns, c)
		l.mu.Unlock()
	}()

	b, err := c.Recv()
	if err != nil {
		return
	}
	m, err := decodeMessage(b)
	if err != nil || m.kind != msgHello {
		return
	}
	s := &session{l: l, c: c, ackCh: make(chan struct{}, 1), dead: make(chan struct{})}
	if m.epoch > l.opt.Epoch {
		l.fence(m.epoch)
		s.sendMsg(message{kind: msgReject, epoch: l.opt.Epoch})
		return
	}
	if l.fencedHint.Load() {
		// Already deposed: refuse rather than ship a deposed term's log.
		s.sendMsg(message{kind: msgReject, epoch: l.opt.Epoch})
		return
	}
	// A follower whose last contact was an older epoch may hold records
	// the old leader appended but never replicated — past the acked
	// prefix, so consistency allows them, but its anchors could then
	// dedup away this term's records. Reset it with a snapshot.
	needSnap := m.epoch != l.opt.Epoch
	cursor := m.arg

	l.followers.Add(1)
	defer l.followers.Add(-1)

	l.joinQuorum(s)
	defer l.leaveQuorum(s)

	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		s.recvLoop()
	}()
	defer func() {
		// Unwind the window gauges for whatever never got acknowledged.
		s.mu.Lock()
		for _, p := range s.pending {
			if p.chunk != 0 {
				l.snapInflight.Add(int64(-p.bytes))
			}
			l.inflightMsgs.Add(-1)
			l.inflightBytes.Add(int64(-p.bytes))
		}
		s.pending = nil
		s.pendingBytes = 0
		s.mu.Unlock()
	}()

	if needSnap {
		if !l.shipSnapshot(s, &cursor) {
			return
		}
	}
	hb := l.opt.HeartbeatEvery
	timer := time.NewTimer(hb)
	defer timer.Stop()
	for {
		if l.fencedHint.Load() {
			return
		}
		select {
		case <-l.done:
			return
		case <-s.dead:
			return
		default:
		}
		if s.windowFull() {
			if !s.waitAck() {
				return
			}
			continue
		}
		// Load the wake channel before reading: a sync that lands between
		// the read and the wait still wakes us.
		wake := *l.wake.Load()
		if upto := l.wal.SyncedSeq(); upto > cursor {
			e, gap, err := l.cache.get(cursor, upto, l.opt.BatchMax)
			if err != nil {
				return
			}
			if gap {
				if !l.shipSnapshot(s, &cursor) {
					return
				}
				continue
			}
			if e != nil {
				sendErr := s.sendMsg(message{kind: msgBatch, epoch: l.opt.Epoch, arg: e.prevSeq, payload: e.frames})
				last, count, nbytes := e.lastSeq, e.count, len(e.frames)
				l.cache.release(e)
				if sendErr != nil {
					return
				}
				s.noteSent(pendingSend{seq: last, bytes: nbytes})
				l.batches.Add(1)
				l.records.Add(uint64(count))
				l.shipBytes.Add(uint64(nbytes))
				cursor = last
				continue
			}
			// Nothing readable despite the watermark: raced a sync; wait.
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(hb)
		select {
		case <-l.done:
			return
		case <-s.dead:
			return
		case <-wake:
		case <-s.ackCh:
		case <-timer.C:
			if s.sendMsg(message{kind: msgHeartbeat, epoch: l.opt.Epoch, arg: l.wal.SyncedSeq()}) != nil {
				return
			}
			l.heartbeats.Add(1)
		}
	}
}

// shipSnapshot sends a catch-up snapshot — chunked when the app supports
// streaming, monolithic otherwise — and repositions the cursor at its
// covered sequence. It reports false when the session is over.
func (l *Leader) shipSnapshot(s *session, cursor *uint64) bool {
	// Drain the window first: chunk indices restart per transfer, so the
	// window must not mix a previous transfer's entries with this one's.
	for !s.windowEmpty() {
		if !s.waitAck() {
			return false
		}
	}
	if l.fencedHint.Load() {
		return false
	}
	if l.sapp != nil {
		return l.shipChunkedSnapshot(s, cursor)
	}
	covered, blob, err := l.app.ReplicaSnapshot()
	if err != nil {
		return false
	}
	if s.sendMsg(message{kind: msgSnapshot, epoch: l.opt.Epoch, arg: covered, payload: blob}) != nil {
		return false
	}
	l.snapshots.Add(1)
	l.shipBytes.Add(uint64(len(blob)))
	*cursor = covered
	return true
}

// shipChunkedSnapshot streams one snapshot generation to the follower:
// begin, CRC-guarded chunks through the in-flight window, end. Each chunk
// is rendered into a pooled buffer on demand, so this session's snapshot
// memory is O(chunk); the generation itself is shared with any other
// session catching up concurrently.
func (l *Leader) shipChunkedSnapshot(s *session, cursor *uint64) bool {
	ss, release, err := l.acquireSnapGen()
	if err != nil {
		return false
	}
	defer release()
	covered := ss.CoveredSeq()
	if s.sendMsg(message{kind: msgSnapBegin, epoch: l.opt.Epoch, arg: covered, payload: ss.Header()}) != nil {
		return false
	}
	s.mu.Lock()
	s.snapAckHigh = 0
	s.mu.Unlock()
	var buf []byte
	if p, ok := l.chunkBufs.Get().(*[]byte); ok {
		buf = *p
	}
	defer func() {
		buf = buf[:0]
		l.chunkBufs.Put(&buf)
	}()
	n := ss.Chunks()
	for i := 0; i < n; i++ {
		for s.windowFull() {
			if !s.waitAck() {
				return false
			}
		}
		if l.fencedHint.Load() {
			return false
		}
		buf = append(buf[:0], 0, 0, 0, 0)
		if buf, err = ss.AppendChunk(i, buf); err != nil {
			return false
		}
		binary.LittleEndian.PutUint32(buf[:4], crc32.Checksum(buf[4:], tcpCastagnoli))
		if s.sendMsg(message{kind: msgSnapChunk, epoch: l.opt.Epoch, arg: uint64(i), payload: buf}) != nil {
			return false
		}
		s.noteSent(pendingSend{chunk: i + 1, bytes: len(buf)})
		if cur := l.snapInflight.Add(int64(len(buf))); cur > l.snapInflightPeak.Load() {
			for {
				peak := l.snapInflightPeak.Load()
				if cur <= peak || l.snapInflightPeak.CompareAndSwap(peak, cur) {
					break
				}
			}
		}
		l.snapChunks.Add(1)
		l.shipBytes.Add(uint64(len(buf)))
	}
	if s.sendMsg(message{kind: msgSnapEnd, epoch: l.opt.Epoch, arg: covered}) != nil {
		return false
	}
	l.snapshots.Add(1)
	*cursor = covered
	return true
}

// snapGen is one shared snapshot generation: the stream plus a refcount.
// It lives while at least one catch-up is mid-transfer; late joiners
// reuse it instead of capturing their own.
type snapGen struct {
	ss   SnapshotStream
	refs int
}

func (l *Leader) acquireSnapGen() (SnapshotStream, func(), error) {
	l.snapMu.Lock()
	defer l.snapMu.Unlock()
	if g := l.snapGen; g != nil {
		g.refs++
		l.snapShared.Add(1)
		return g.ss, func() { l.releaseSnapGen(g) }, nil
	}
	ss, err := l.sapp.OpenReplicaSnapshotStream()
	if err != nil {
		return nil, nil, err
	}
	g := &snapGen{ss: ss, refs: 1}
	l.snapGen = g
	return ss, func() { l.releaseSnapGen(g) }, nil
}

func (l *Leader) releaseSnapGen(g *snapGen) {
	l.snapMu.Lock()
	g.refs--
	last := g.refs == 0
	if last && l.snapGen == g {
		l.snapGen = nil
	}
	l.snapMu.Unlock()
	if last {
		g.ss.Close()
	}
}
