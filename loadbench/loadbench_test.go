package main

import (
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/repl"
	"repro/internal/wal"
	"repro/qbets"
)

func genRecords(t *testing.T, seed int64) []qbets.ObserveRecord {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	streams := makeStreams(bases(seed), 300, rng)
	var out []qbets.ObserveRecord
	err := preload(streams, 5, 64, rng, func(recs []qbets.ObserveRecord) error {
		out = append(out, recs...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	a, b := genRecords(t, 7), genRecords(t, 7)
	if len(a) != 300*5 {
		t.Fatalf("generated %d records, want %d", len(a), 300*5)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed generated different records")
	}
	if reflect.DeepEqual(a, genRecords(t, 8)) {
		t.Fatal("different seeds generated the same records")
	}
}

func TestStreamsCycleTheirBaseTrace(t *testing.T) {
	bs := bases(3)
	if len(bs) == 0 {
		t.Fatal("no base streams")
	}
	streams := makeStreams(bs, 2*len(bs)+1, rand.New(rand.NewSource(3)))
	s := streams[len(bs)] // site 1, base 0
	if !strings.HasPrefix(s.queue, "site0001.") || s.b != bs[0] {
		t.Fatalf("stream %d is %q on base %q", len(bs), s.queue, s.b.name)
	}
	n := len(s.b.waits)
	for _, k := range []int{0, 1, n - 1, n, 3 * n} {
		if s.wait(k) != s.wait(k+n) || s.record(k).WaitSeconds != s.wait(k) {
			t.Fatalf("record %d does not cycle the base trace", k)
		}
		if got := qbets.CategoryOf(s.record(k).Procs); got != qbets.CategoryOf(s.procs) {
			t.Fatalf("record %d has procs %d outside the stream's category", k, s.record(k).Procs)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{0, 0.5, 0, false},
		{19, 0.5, 10, false}, // 9 samples above the median
		{20, 0.5, 10, true},
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{100, 0.9, 90, true},
		{99, 0.9, 90, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if ok != c.ok || (c.n > 0 && got != c.want) {
			t.Errorf("percentile(n=%d, p=%g) = %g, %v; want %g, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestCoverageScoresEachQuoteOnce(t *testing.T) {
	c := newCoverage()
	// stream 0: bound 10 at position 0, next wait 5 -> hit; a second
	// read of the same quote with another bound is ignored.
	c.score(quote{0, 0, 0}, 10, 5)
	c.score(quote{0, 0, 0}, 1, 5)
	// stream 0 after one more record: bound 10, next wait 12 -> miss.
	c.score(quote{0, 0, 1}, 10, 12)
	// the follower serving the same position is its own quote.
	c.score(quote{1, 0, 1}, 20, 12)
	// a wait equal to the bound holds.
	c.score(quote{0, 1, 0}, 7, 7)
	n, cov := c.result()
	if n != 4 || cov != 0.75 {
		t.Fatalf("coverage = %d quotes at %g, want 4 at 0.75", n, cov)
	}
}

func TestCoverageFloor(t *testing.T) {
	if f := coverageFloor(0.95, 0); f != 0.95 {
		t.Fatalf("floor with no trials = %g", f)
	}
	f := coverageFloor(0.95, 10000)
	// z(0.999) ≈ 3.09, sd = sqrt(.95*.05/1e4) ≈ 0.00218.
	if math.Abs(f-(0.95-3.0902*0.0021794)) > 1e-4 {
		t.Fatalf("floor for 10000 trials = %g", f)
	}
	if coverageFloor(0.95, 100) >= f {
		t.Fatal("floor must widen with fewer trials")
	}
}

func TestWALProbePassesThrough(t *testing.T) {
	for _, on := range []bool{false, true} {
		mem := wal.NewMemFS()
		tr := newTracer()
		tr.on.Store(on)
		w, err := wal.Open("d", wal.Options{Mode: wal.SyncEachRecord, FS: walFS{FS: mem, t: tr}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Replay(nil); err != nil {
			t.Fatal(err)
		}
		entries := []wal.Entry{{Key: "a/1-4", Wait: 1.5, UnixNanos: 1}, {Key: "b/5-16", Wait: 2.5, UnixNanos: 2}}
		if _, err := w.AppendBatch(entries); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		// Read back through the bare FS: the probe must not have changed
		// a byte.
		r, err := wal.Open("d", wal.Options{Mode: wal.SyncOff, FS: mem})
		if err != nil {
			t.Fatal(err)
		}
		var got []wal.Record
		if _, err := r.Replay(func(rec wal.Record) { got = append(got, rec) }); err != nil {
			t.Fatal(err)
		}
		r.Close()
		if len(got) != 2 || got[0].Key != "a/1-4" || got[1].Wait != 2.5 {
			t.Fatalf("recording=%v: replayed %+v", on, got)
		}
		writes := 0
		for _, s := range tr.spans {
			if s.kind == spWALWrite {
				writes++
			}
		}
		if on != (writes > 0) {
			t.Fatalf("recording=%v: %d write spans", on, writes)
		}
	}
}

func TestTransportProbePassesThrough(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	mt := probedTransport{Transport: repl.NewMemTransport(), t: tr}
	ln, err := mt.Listen("leader")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan repl.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
		close(accepted)
	}()
	c, err := mt.Dial("leader")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	defer s.Close()
	msg := []byte("batch payload")
	if err := c.Send(msg); err != nil {
		t.Fatal(err)
	}
	got, err := s.Recv()
	if err != nil || string(got) != string(msg) {
		t.Fatalf("received %q, %v", got, err)
	}
	if len(tr.spans) != 1 || tr.spans[0].kind != spReplSend || tr.spans[0].n != int64(len(msg)) {
		t.Fatalf("spans %+v", tr.spans)
	}
}

// fakeReplica records the calls it receives and returns canned errors.
type fakeReplica struct {
	calls []string
	err   error
}

func (f *fakeReplica) ReplicaAppliedSeq() uint64 { f.calls = append(f.calls, "seq"); return 42 }
func (f *fakeReplica) ApplyReplicated(prev uint64, recs []wal.Record) error {
	f.calls = append(f.calls, "apply")
	if prev != 7 || len(recs) != 2 {
		return errors.New("arguments changed")
	}
	return f.err
}
func (f *fakeReplica) InstallReplicaSnapshot(uint64, []byte) error {
	f.calls = append(f.calls, "install")
	return f.err
}
func (f *fakeReplica) BeginReplicaSnapshot(seq uint64, h []byte) error {
	f.calls = append(f.calls, "begin:"+string(h))
	return f.err
}
func (f *fakeReplica) ApplyReplicaSnapshotChunk(i int, c []byte) error {
	f.calls = append(f.calls, "chunk:"+string(c))
	return f.err
}
func (f *fakeReplica) CommitReplicaSnapshot(uint64) error {
	f.calls = append(f.calls, "commit")
	return f.err
}
func (f *fakeReplica) AbortReplicaSnapshot() { f.calls = append(f.calls, "abort") }

func TestReplicaProbePassesThrough(t *testing.T) {
	boom := errors.New("boom")
	for _, want := range []error{nil, boom} {
		app := &fakeReplica{err: want}
		tr := newTracer()
		tr.on.Store(true)
		var p repl.ReplicaApp = probedReplica{app: app, t: tr}
		if _, ok := p.(repl.ChunkedReplicaApp); !ok {
			t.Fatal("probe hides the chunked install path")
		}
		cp := p.(repl.ChunkedReplicaApp)
		if cp.ReplicaAppliedSeq() != 42 {
			t.Fatal("applied seq changed")
		}
		recs := []wal.Record{{Seq: 8}, {Seq: 9}}
		for _, err := range []error{
			cp.ApplyReplicated(7, recs),
			cp.InstallReplicaSnapshot(3, nil),
			cp.BeginReplicaSnapshot(3, []byte("h")),
			cp.ApplyReplicaSnapshotChunk(0, []byte("c")),
			cp.CommitReplicaSnapshot(3),
		} {
			if !errors.Is(err, want) {
				t.Fatalf("error %v, want %v", err, want)
			}
		}
		cp.AbortReplicaSnapshot()
		wantCalls := []string{"seq", "apply", "install", "begin:h", "chunk:c", "commit", "abort"}
		if !reflect.DeepEqual(app.calls, wantCalls) {
			t.Fatalf("calls %v, want %v", app.calls, wantCalls)
		}
		if applied := tr.appliedRecords.Load(); (want == nil) != (applied == 2) {
			t.Fatalf("err %v: counted %d applied records", want, applied)
		}
	}
}

func TestHandlerProbePassesThrough(t *testing.T) {
	srv := qbets.NewServer(true)
	if err := srv.Service().Observe("q", 2, 10); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	probed := probedHandler{h: srv, t: tr}
	for _, on := range []bool{false, true} {
		tr.on.Store(on)
		for _, target := range []string{"/v1/forecast?queue=q&procs=2", "/v1/forecast?queue=none", "/nope"} {
			want := httptest.NewRecorder()
			srv.ServeHTTP(want, httptest.NewRequest(http.MethodGet, target, nil))
			got := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodGet, target, nil)
			req.Header.Set(reqHeader, "5")
			probed.ServeHTTP(got, req)
			if got.Code != want.Code || got.Body.String() != want.Body.String() {
				t.Fatalf("%s: probe answered %d %q, server %d %q", target, got.Code, got.Body, want.Code, want.Body)
			}
		}
	}
	if len(tr.spans) != 3 || tr.spans[0].parent != 5 || tr.spans[0].kind != spForecast || tr.spans[2].kind != spServerOther {
		t.Fatalf("spans %+v", tr.spans)
	}
	if len(tr.active) != 0 {
		t.Fatal("handler left its goroutine registered")
	}
}
