package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/repl"
	"repro/internal/wal"
	"repro/qbets"
)

// The defaults cmd/qbets-serve runs with: BMBP at the 0.95 quantile and
// 0.95 confidence split by processor category, WAL fsync on a 1 s
// interval, asynchronous replication, and a follower lag bound of 10000
// records.
const (
	quantile   = 0.95
	confidence = 0.95
	walSyncDur = time.Second
	maxLag     = 10000
)

// node is one in-process qbets-serve: a Server behind a net/http server
// with qbets-serve's timeouts, listening on loopback.
type node struct {
	srv  *qbets.Server
	http *http.Server
	url  string
	done chan struct{}
}

// newNode serves srv, behind the handler probe when tracing.
func newNode(srv *qbets.Server, tr *tracer) (*node, error) {
	var h http.Handler = srv
	if tr != nil {
		h = probedHandler{h: srv, t: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{
		srv: srv,
		http: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      30 * time.Second,
			IdleTimeout:       2 * time.Minute,
		},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(n.done)
		_ = n.http.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return n, nil
}

func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n.http.Shutdown(ctx); err != nil {
		n.http.Close()
	}
	<-n.done
}

// stack is the serving topology a workload drives: a leader, and for
// the replicated workloads its WAL and one follower.
type stack struct {
	leader   *node
	follower *node // nil without replication

	wal    *wal.WAL
	lead   *repl.Leader
	follow *repl.Follower
	leadWG chan struct{}

	tr        *tracer // nil unless probes are installed
	replay    wal.ReplayStats
	replayDur time.Duration
}

func newServer() *qbets.Server {
	return qbets.NewServer(true, qbets.WithQuantile(quantile), qbets.WithConfidence(confidence))
}

// writePreload writes the preload straight into a WAL directory, in the
// log's own record format, keyed the way the service keys its streams
// (queue + "/" + processor category). Set-up then replays it as
// qbets-serve -wal does on restart. It returns the number of records.
func writePreload(dir string, streams []*stream, perStream int, rng *rand.Rand) (int, error) {
	w, err := wal.Open(dir, wal.Options{Mode: wal.SyncOff})
	if err != nil {
		return 0, err
	}
	if _, err := w.Replay(nil); err != nil {
		w.Close()
		return 0, err
	}
	now := time.Now().UnixNano()
	entries := make([]wal.Entry, 0, 4096)
	total := 0
	err = preload(streams, perStream, cap(entries), rng, func(recs []qbets.ObserveRecord) error {
		entries = entries[:0]
		for _, r := range recs {
			entries = append(entries, wal.Entry{Key: r.Queue + "/" + qbets.CategoryOf(r.Procs).Label(), Wait: r.WaitSeconds, UnixNanos: now})
		}
		if _, err := w.AppendBatch(entries); err != nil {
			return err
		}
		total += len(entries)
		return nil
	})
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return total, err
}

// startReplicated restarts a leader on the preloaded WAL in walDir and
// catches a fresh follower up from it, as qbets-serve -wal
// -replicate-to and qbets-serve -follow would. It returns once the
// follower has installed the catch-up snapshot. epochDir must be fresh
// per call.
func startReplicated(walDir, epochDir string, nStreams int, preloaded uint64, tr *tracer) (*stack, error) {
	st := &stack{tr: tr}
	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()
	opt := wal.Options{Mode: wal.SyncInterval, Interval: walSyncDur}
	var transport repl.Transport = repl.TCP{}
	if tr != nil {
		opt.FS = walFS{FS: wal.OSFS{}, t: tr}
		transport = probedTransport{Transport: transport, t: tr}
	}
	var err error
	if st.wal, err = wal.Open(walDir, opt); err != nil {
		return nil, err
	}
	lsrv := newServer()
	start := time.Now()
	if st.replay, err = lsrv.Service().RecoverWAL(st.wal); err != nil {
		return nil, fmt.Errorf("replaying %s: %w", walDir, err)
	}
	st.replayDur = time.Since(start)
	if uint64(st.replay.Records) != preloaded || lsrv.Service().NumStreams() != nStreams {
		return nil, fmt.Errorf("replay rebuilt %d streams from %d records; preloaded %d streams, %d records",
			lsrv.Service().NumStreams(), st.replay.Records, nStreams, preloaded)
	}

	lEpochs, err := repl.NewFileEpochStore(filepath.Join(epochDir, "leader"))
	if err != nil {
		return nil, err
	}
	stored, err := lEpochs.Load()
	if err != nil {
		return nil, err
	}
	if err := lEpochs.Save(stored + 1); err != nil {
		return nil, err
	}
	st.lead = repl.NewLeader(st.wal, lsrv.Service(), repl.LeaderOptions{Epoch: stored + 1})
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.leadWG = make(chan struct{})
	go func() {
		defer close(st.leadWG)
		st.lead.Serve(ln)
	}()
	if tr != nil {
		lsrv.Service().SetCommitHook(tr.commitHook)
	}
	lsrv.SetLeaderReplication(st.lead)
	if st.leader, err = newNode(lsrv, tr); err != nil {
		return nil, err
	}

	fEpochs, err := repl.NewFileEpochStore(filepath.Join(epochDir, "follower"))
	if err != nil {
		return nil, err
	}
	fsrv := newServer()
	fsrv.Service().SetFollower(true)
	var app repl.ReplicaApp = fsrv.Service()
	if tr != nil {
		app = probedReplica{app: fsrv.Service(), t: tr}
	}
	st.follow, err = repl.NewFollower(app, repl.FollowerOptions{
		Addr:      listenAddr(ln),
		Transport: transport,
		Epochs:    fEpochs,
		MaxLag:    maxLag,
	})
	if err != nil {
		return nil, err
	}
	go st.follow.Run()
	fsrv.SetFollowerReplication(st.follow)
	if st.follower, err = newNode(fsrv, tr); err != nil {
		return nil, err
	}
	// The follower serves once its catch-up snapshot is installed. The
	// snapshot holds every preloaded record, but it covers sequence 0: a
	// restarted WAL's durability watermark stays at 0 until its first
	// post-restart sync, so the leader later ships the whole log again
	// and the follower drops what it already holds (see catchUp).
	deadline := time.Now().Add(60 * time.Second)
	for st.follow.SnapshotsInstalled() == 0 {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("follower installed no snapshot within 60s")
		}
		time.Sleep(time.Millisecond)
	}
	ok = true
	return st, nil
}

// catchUp waits until the leader has synced at least minSeq and the
// follower has applied everything synced.
func (st *stack) catchUp(minSeq uint64, limit time.Duration) error {
	fsvc := st.follower.srv.Service()
	deadline := time.Now().Add(limit)
	for {
		synced := st.wal.SyncedSeq()
		if synced >= minSeq && fsvc.ReplicaAppliedSeq() >= synced && st.follow.Lag() == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replication did not catch up within %s: synced %d (want %d), applied %d, lag %d",
				limit, synced, minSeq, fsvc.ReplicaAppliedSeq(), st.follow.Lag())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startStandalone builds qbets-serve with its default flags (no WAL,
// no replication) and feeds it the history over the Service API.
func startStandalone(streams []*stream, perStream int, rng *rand.Rand, tr *tracer) (*stack, error) {
	srv := newServer()
	err := preload(streams, perStream, 256, rng, func(recs []qbets.ObserveRecord) error {
		_, err := srv.Service().ObserveBatch(recs)
		return err
	})
	if err != nil {
		return nil, err
	}
	n, err := newNode(srv, tr)
	if err != nil {
		return nil, err
	}
	return &stack{leader: n, tr: tr}, nil
}

// close stops everything in the reverse order of qbets-serve's
// shutdown: listeners first, then replication, then the WAL.
func (st *stack) close() {
	if st.leader != nil {
		st.leader.close()
	}
	if st.follower != nil {
		st.follower.close()
	}
	if st.follow != nil {
		st.follow.Close()
	}
	if st.lead != nil {
		st.lead.Close()
	}
	if st.leadWG != nil {
		<-st.leadWG
	}
	if st.wal != nil {
		if err := st.wal.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "loadbench: wal close: %v\n", err)
		}
	}
}
