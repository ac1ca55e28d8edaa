package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/repl"
	"repro/internal/wal"
)

// Span names. A span is one timed call at a layer boundary; spans of one
// request share the client's request id through their parent links.
const (
	spClient = iota
	spObserve
	spForecast
	spForecastBatch
	spWhatif
	spServerOther
	spWALWrite
	spWALFsync
	spWALSyncDir
	spHook
	spReplSend
	spReplApply
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"client", "server.observe", "server.forecast", "server.forecast_batch", "server.whatif", "server.other",
	"wal.write", "wal.fsync", "wal.syncdir", "repl.hook", "repl.send", "repl.apply",
}

// reqHeader carries the client's request id to the server-side probe.
const reqHeader = "X-Loadbench-Req"

type span struct {
	id, parent uint64
	kind       int
	start, end int64 // nanoseconds since the tracer's epoch
	n          int64 // bytes or records the call carried
}

// tracer holds the spans of a traced run in memory. Probes always count
// (the lifetime counters back the probe-vs-program checks); they time
// and keep spans only while recording is on.
type tracer struct {
	on     atomic.Bool
	epoch  time.Time
	nextID atomic.Uint64

	mu     sync.Mutex
	spans  []span
	active map[uint64]uint64 // goroutine id -> server span id

	// commits and applies pair a commit-hook call with the follower apply
	// that made its records visible.
	commits []seqTime
	applies []seqTime

	// Lifetime counters, recording or not.
	appliedRecords atomic.Uint64
	snapChunks     atomic.Uint64
	snapBegin      atomic.Int64
	snapEnd        atomic.Int64
}

type seqTime struct {
	seq uint64
	t   int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), active: make(map[uint64]uint64)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// parentOfCaller returns the server span running on the calling
// goroutine, or 0 when the call did not come from a request handler.
func (t *tracer) parentOfCaller() uint64 {
	g := goid()
	t.mu.Lock()
	p := t.active[g]
	t.mu.Unlock()
	return p
}

// goid parses the calling goroutine's id from its stack header
// ("goroutine 123 [running]:"). It costs about a microsecond, paid only
// while recording.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	const prefix = "goroutine "
	var id uint64
	for _, c := range b[len(prefix):] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// writeSpans writes every span as one tab-separated line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns\tn")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\n", s.id, s.parent, spanNames[s.kind], s.start, s.end, s.n)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probedHandler is the qbets.Server seam: an http.Handler wrapper that
// records one span per request, registered as the parent of the WAL and
// commit-hook calls the handler's goroutine makes.
type probedHandler struct {
	h http.Handler
	t *tracer
}

func serverKind(r *http.Request) int {
	switch r.URL.Path {
	case "/v1/observe":
		return spObserve
	case "/v1/forecast":
		if r.Method == http.MethodPost {
			return spForecastBatch
		}
		return spForecast
	case "/v1/whatif":
		return spWhatif
	}
	return spServerOther
}

func (p probedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := p.t
	if !t.on.Load() {
		p.h.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
	id := t.nextID.Add(1)
	g := goid()
	t.mu.Lock()
	t.active[g] = id
	t.mu.Unlock()
	start := t.now()
	p.h.ServeHTTP(w, r)
	end := t.now()
	t.mu.Lock()
	delete(t.active, g)
	t.spans = append(t.spans, span{id: id, parent: parent, kind: serverKind(r), start: start, end: end})
	t.mu.Unlock()
}

// walFS is the internal/wal seam: a wal.FS wrapper timing File.Write,
// File.Sync and SyncDir.
type walFS struct {
	wal.FS
	t *tracer
}

func (f walFS) OpenAppend(name string) (wal.File, error) {
	file, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return walFile{File: file, t: f.t}, nil
}

func (f walFS) SyncDir(dir string) error {
	if !f.t.on.Load() {
		return f.FS.SyncDir(dir)
	}
	start := f.t.now()
	err := f.FS.SyncDir(dir)
	f.t.add(span{id: f.t.nextID.Add(1), kind: spWALSyncDir, start: start, end: f.t.now()})
	return err
}

type walFile struct {
	wal.File
	t *tracer
}

func (f walFile) Write(b []byte) (int, error) {
	if !f.t.on.Load() {
		return f.File.Write(b)
	}
	parent := f.t.parentOfCaller()
	start := f.t.now()
	n, err := f.File.Write(b)
	f.t.add(span{id: f.t.nextID.Add(1), parent: parent, kind: spWALWrite, start: start, end: f.t.now(), n: int64(n)})
	return n, err
}

func (f walFile) Sync() error {
	if !f.t.on.Load() {
		return f.File.Sync()
	}
	parent := f.t.parentOfCaller()
	start := f.t.now()
	err := f.File.Sync()
	f.t.add(span{id: f.t.nextID.Add(1), parent: parent, kind: spWALFsync, start: start, end: f.t.now()})
	return err
}

// commitHook is installed with Service.SetCommitHook on the leader: it
// records when each write's records were committed and returns nil, so
// the write path behaves as with no hook (asynchronous replication).
func (t *tracer) commitHook(lastSeq uint64) error {
	if !t.on.Load() {
		return nil
	}
	parent := t.parentOfCaller()
	now := t.now()
	t.mu.Lock()
	t.commits = append(t.commits, seqTime{lastSeq, now})
	t.spans = append(t.spans, span{id: t.nextID.Add(1), parent: parent, kind: spHook, start: now, end: t.now()})
	t.mu.Unlock()
	return nil
}

// probedTransport is the internal/repl wire seam: it times Conn.Send on
// both ends of every replication connection.
type probedTransport struct {
	repl.Transport
	t *tracer
}

func (p probedTransport) Dial(addr string) (repl.Conn, error) {
	c, err := p.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return probedConn{Conn: c, t: p.t}, nil
}

func (p probedTransport) Listen(addr string) (repl.Listener, error) {
	ln, err := p.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return probedListener{Listener: ln, t: p.t}, nil
}

type probedListener struct {
	repl.Listener
	t *tracer
}

func (l probedListener) Accept() (repl.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return probedConn{Conn: c, t: l.t}, nil
}

// Addr exposes the bound address of a listener that reports one.
func (l probedListener) Addr() string { return listenAddr(l.Listener) }

func listenAddr(ln repl.Listener) string {
	if a, ok := ln.(interface{ Addr() string }); ok {
		return a.Addr()
	}
	return ""
}

type probedConn struct {
	repl.Conn
	t *tracer
}

func (c probedConn) Send(msg []byte) error {
	if !c.t.on.Load() {
		return c.Conn.Send(msg)
	}
	start := c.t.now()
	err := c.Conn.Send(msg)
	c.t.add(span{id: c.t.nextID.Add(1), kind: spReplSend, start: start, end: c.t.now(), n: int64(len(msg))})
	return err
}

// probedReplica is the follower-side internal/repl seam. It implements
// repl.ChunkedReplicaApp, so the follower keeps its chunked snapshot
// install path instead of falling back to a monolithic one.
type probedReplica struct {
	app repl.ChunkedReplicaApp
	t   *tracer
}

var _ repl.ChunkedReplicaApp = probedReplica{}

func (p probedReplica) ReplicaAppliedSeq() uint64 { return p.app.ReplicaAppliedSeq() }

// ApplyReplicated records every apply's last sequence and end time, so
// commits made while recording pair with applies that land after it
// stopped; it keeps a span only while recording.
func (p probedReplica) ApplyReplicated(prevSeq uint64, recs []wal.Record) error {
	t := p.t
	start := t.now()
	err := p.app.ApplyReplicated(prevSeq, recs)
	end := t.now()
	if err != nil || len(recs) == 0 {
		return err
	}
	t.appliedRecords.Add(uint64(len(recs)))
	t.mu.Lock()
	t.applies = append(t.applies, seqTime{recs[len(recs)-1].Seq, end})
	if t.on.Load() {
		t.spans = append(t.spans, span{id: t.nextID.Add(1), kind: spReplApply, start: start, end: end, n: int64(len(recs))})
	}
	t.mu.Unlock()
	return nil
}

func (p probedReplica) InstallReplicaSnapshot(coveredSeq uint64, blob []byte) error {
	return p.app.InstallReplicaSnapshot(coveredSeq, blob)
}

func (p probedReplica) BeginReplicaSnapshot(coveredSeq uint64, header []byte) error {
	p.t.snapBegin.Store(p.t.now())
	return p.app.BeginReplicaSnapshot(coveredSeq, header)
}

func (p probedReplica) ApplyReplicaSnapshotChunk(index int, chunk []byte) error {
	p.t.snapChunks.Add(1)
	return p.app.ApplyReplicaSnapshotChunk(index, chunk)
}

func (p probedReplica) CommitReplicaSnapshot(coveredSeq uint64) error {
	err := p.app.CommitReplicaSnapshot(coveredSeq)
	p.t.snapEnd.Store(p.t.now())
	return err
}

func (p probedReplica) AbortReplicaSnapshot() { p.app.AbortReplicaSnapshot() }
