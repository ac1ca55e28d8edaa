// Command qbets-serve runs the prediction service over HTTP: a live
// installation feeds it periodic scheduler-log dumps and users (or a
// metascheduler) query worst-case bounds before submitting — the
// deployment the paper describes as the method's purpose.
//
//	qbets-serve -addr :8080 -by-procs
//
//	curl -XPOST localhost:8080/v1/observe \
//	     -d '{"queue":"normal","procs":8,"wait_seconds":123}'
//	curl 'localhost:8080/v1/forecast?queue=normal&procs=8'
//	curl 'localhost:8080/v1/profile?queue=normal&procs=8'
//	curl 'localhost:8080/v1/status'
//	curl 'localhost:8080/metrics'
//
// The service instruments itself (request counts, prediction latency, and
// the per-stream rolling hit rate of its bounds against the target
// confidence) and exposes everything at /metrics in Prometheus text
// format, optionally on a dedicated listener via -metrics-addr. See
// docs/OPERATIONS.md for the scrape model and the full metric list.
//
// A node can lead or follow a replicated serving plane: -replicate-to
// ships the WAL to followers, -follow replays a leader's log and serves
// consistent-prefix reads, and -epoch-dir persists the fencing token
// that keeps a deposed leader from ever acking again. See the
// Replication section of docs/OPERATIONS.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/repl"
	"repro/internal/wal"
	"repro/qbets"
)

// parseSyncMode maps the -wal-sync flag to a WAL sync policy: "always"
// (fsync per record), "off" (fsync at rotation/shutdown only), or a
// duration like "1s" (background fsync on that interval).
func parseSyncMode(s string) (wal.SyncMode, time.Duration, error) {
	switch s {
	case "always":
		return wal.SyncEachRecord, 0, nil
	case "off":
		return wal.SyncOff, 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return 0, 0, fmt.Errorf("-wal-sync must be \"always\", \"off\", or a positive duration, got %q", s)
	}
	return wal.SyncInterval, d, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("qbets-serve: ")
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		metricsAddr = flag.String("metrics-addr", "", "optional dedicated listen address for /metrics (also served on -addr)")
		byProcs     = flag.Bool("by-procs", true, "one predictor per queue × processor category")
		quantile    = flag.Float64("quantile", 0.95, "quantile of queue delay to bound")
		confidence  = flag.Float64("confidence", 0.95, "confidence level of the bound")
		statePath   = flag.String("state", "", "state directory: loaded at startup if present (a legacy single state file there is migrated once), saved periodically and on shutdown")
		saveEvery   = flag.Duration("save-interval", 5*time.Minute, "state save period (with -state)")
		walDir      = flag.String("wal", "", "write-ahead log directory: observations are logged before being applied and replayed on startup")
		walSync     = flag.String("wal-sync", "1s", `WAL fsync policy: "always", "off", or a flush interval like "1s" (with -wal)`)
		walGroup    = flag.Bool("wal-group-commit", false, "coalesce concurrent WAL commits into shared fsyncs (with -wal-sync always)")
		strictState = flag.Bool("strict-state", false, "refuse to start on corrupt state instead of quarantining it and starting fresh")
		streamTTL   = flag.Duration("stream-ttl", 0, "evict streams idle longer than this to compact cold state (0 disables; reads keep serving, the next write rehydrates)")
		maxStreams  = flag.Int("max-streams", 0, "cap on hydrated streams: the longest-idle are evicted past it (0 disables)")
		logRequests = flag.Bool("log-requests", false, "log every request (method, path, status, duration)")
		pprofOn     = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the metrics listener (requires -metrics-addr)")
		replicateTo = flag.String("replicate-to", "", "leader mode: listen address for streaming WAL replication to followers (requires -wal and -epoch-dir)")
		follow      = flag.String("follow", "", "follower mode: leader replication address; this node replays the leader's log and serves reads only")
		epochDir    = flag.String("epoch-dir", "", "directory persisting the replication epoch (the fencing token); required with -replicate-to or -follow")
		maxLag      = flag.Uint64("max-follower-lag", 10000, "follower lag bound in records: past it /healthz degrades to 503 until the follower catches up (0 never degrades)")
		syncRepl    = flag.Bool("sync-replication", false, "leader acks a write only after a follower acknowledged it durable (requires -replicate-to)")
		syncQuorum  = flag.Int("sync-replication-quorum", 1, "acks required before a synchronous write commits: K of N connected followers (requires -sync-replication)")
		replWinMsgs = flag.Int("repl-window-batches", 0, "per-follower in-flight window in messages: batches or snapshot chunks on the wire before backpressure (0 = default 32)")
		replWinB    = flag.Int("repl-window-bytes", 0, "per-follower in-flight window in payload bytes (0 = default 1 MiB)")
	)
	flag.Parse()
	if *pprofOn && *metricsAddr == "" {
		log.Fatal("-pprof requires -metrics-addr: profiling endpoints are never exposed on the public listener")
	}
	if *replicateTo != "" && *follow != "" {
		log.Fatal("-replicate-to and -follow are mutually exclusive: a node is a leader or a follower, never both")
	}
	if *replicateTo != "" && *walDir == "" {
		log.Fatal("-replicate-to requires -wal: replication ships the write-ahead log")
	}
	if (*replicateTo != "" || *follow != "") && *epochDir == "" {
		log.Fatal("replication requires -epoch-dir: the persisted epoch is the fencing token that prevents split-brain")
	}
	if *follow != "" && *walDir != "" {
		log.Fatal("-follow and -wal are mutually exclusive: a follower's log of record is the leader's (promote attaches a fresh WAL)")
	}
	if *syncRepl && *replicateTo == "" {
		log.Fatal("-sync-replication requires -replicate-to")
	}
	if *syncQuorum < 1 {
		log.Fatal("-sync-replication-quorum must be at least 1")
	}
	if *syncQuorum > 1 && !*syncRepl {
		log.Fatal("-sync-replication-quorum above 1 requires -sync-replication")
	}

	server := qbets.NewServer(*byProcs,
		qbets.WithQuantile(*quantile),
		qbets.WithConfidence(*confidence),
	)
	if *statePath != "" {
		fi, statErr := os.Stat(*statePath)
		legacy := statErr == nil && fi.Mode().IsRegular()
		switch err := server.Service().LoadShards(*statePath); {
		case err == nil && legacy:
			log.Printf("migrated legacy state file %s to a state directory (%d streams; the file is kept as %s.legacy-*)",
				*statePath, server.Service().NumStreams(), *statePath)
		case err == nil:
			log.Printf("restored state from %s (%d streams)", *statePath, server.Service().NumStreams())
		case os.IsNotExist(err):
			log.Printf("no state at %s yet; starting fresh", *statePath)
		case !errors.Is(err, qbets.ErrCorruptState):
			// An I/O or permission failure, not corruption: the state may be
			// perfectly intact, so quarantining it would throw away good
			// state. Fail fast and let the operator (or supervisor restart)
			// resolve it.
			log.Fatalf("loading %s: %v", *statePath, err)
		case *strictState:
			log.Fatalf("loading %s: %v (-strict-state)", *statePath, err)
		default:
			// A corrupt snapshot should not keep the predictor down: move
			// it aside (preserving the evidence) and rebuild from the WAL
			// tail plus fresh traffic.
			quarantined, qerr := qbets.QuarantineStateFile(*statePath)
			if qerr != nil {
				log.Fatalf("loading %s: %v; quarantine also failed: %v", *statePath, err, qerr)
			}
			log.Printf("state at %s is corrupt (%v); moved to %s, starting fresh", *statePath, err, quarantined)
		}
	}

	var obsLog *wal.WAL
	if *walDir != "" {
		mode, interval, err := parseSyncMode(*walSync)
		if err != nil {
			log.Fatal(err)
		}
		obsLog, err = wal.Open(*walDir, wal.Options{Mode: mode, Interval: interval, GroupCommit: *walGroup})
		if err != nil {
			log.Fatal(err)
		}
		stats, err := server.Service().RecoverWAL(obsLog)
		if err != nil {
			log.Fatalf("replaying %s: %v", *walDir, err)
		}
		log.Printf("wal: replayed %d records from %d segments (sync %s)", stats.Records, stats.Segments, *walSync)
		if stats.Truncations > 0 {
			log.Printf("wal: dropped %d torn/corrupt tails (%d bytes) during replay", stats.Truncations, stats.DroppedBytes)
		}
		if *statePath == "" {
			log.Printf("wal: no -state configured; the log is never compacted and will grow unboundedly")
		}
	}

	// Replication wiring. A leader claims a fresh epoch on every startup
	// (stored+1, persisted before serving) so a restarted ex-leader can
	// never ack under a stale term; a follower loads the same store so the
	// highest epoch it has witnessed survives its own restarts.
	var (
		replLeader   *repl.Leader
		replFollower *repl.Follower
	)
	if *replicateTo != "" {
		epochs, err := repl.NewFileEpochStore(*epochDir)
		if err != nil {
			log.Fatal(err)
		}
		stored, err := epochs.Load()
		if err != nil {
			log.Fatal(err)
		}
		epoch := stored + 1
		if err := epochs.Save(epoch); err != nil {
			log.Fatal(err)
		}
		replLeader = repl.NewLeader(obsLog, server.Service(), repl.LeaderOptions{
			Epoch:         epoch,
			Quorum:        *syncQuorum,
			WindowBatches: *replWinMsgs,
			WindowBytes:   *replWinB,
			OnFence: func(e uint64) {
				log.Printf("repl: fenced by epoch %d; this node will never ack again (restart to rejoin)", e)
			},
		})
		ln, err := repl.TCP{}.Listen(*replicateTo)
		if err != nil {
			log.Fatal(err)
		}
		go replLeader.Serve(ln)
		if *syncRepl {
			server.Service().SetCommitHook(replLeader.CommitWait)
		}
		server.SetLeaderReplication(replLeader)
		log.Printf("repl: leading epoch %d on %s (sync-replication %v, quorum %d)", epoch, *replicateTo, *syncRepl, *syncQuorum)
	}
	if *follow != "" {
		epochs, err := repl.NewFileEpochStore(*epochDir)
		if err != nil {
			log.Fatal(err)
		}
		server.Service().SetFollower(true)
		replFollower, err = repl.NewFollower(server.Service(), repl.FollowerOptions{
			Addr:   *follow,
			Epochs: epochs,
			MaxLag: *maxLag,
		})
		if err != nil {
			log.Fatal(err)
		}
		go replFollower.Run()
		server.SetFollowerReplication(replFollower)
		log.Printf("repl: following %s (max lag %d records); writes answer 503 + Retry-After", *follow, *maxLag)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *statePath != "" {
		go func() {
			tick := time.NewTicker(*saveEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					if err := server.Service().SaveShards(*statePath); err != nil {
						log.Printf("state save failed: %v", err)
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	// Stream lifecycle: a background pass evicts idle streams to compact
	// cold state and enforces the hydrated-stream cap. The pass cadence
	// also sets the activity clock's resolution, so it runs a few times
	// per TTL (floored at 1s, capped at 30s between passes).
	if *streamTTL > 0 || *maxStreams > 0 {
		interval := 30 * time.Second
		if *streamTTL > 0 && *streamTTL/4 < interval {
			interval = *streamTTL / 4
		}
		if interval < time.Second {
			interval = time.Second
		}
		go func() {
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					svc := server.Service()
					if *streamTTL > 0 {
						svc.EvictIdle(*streamTTL)
					}
					if *maxStreams > 0 {
						svc.EvictToCap(*maxStreams)
					}
				case <-ctx.Done():
					return
				}
			}
		}()
		log.Printf("stream lifecycle: ttl %s, max hydrated %d, pass every %s", *streamTTL, *maxStreams, interval)
	}

	var handler http.Handler = server
	if *logRequests {
		handler = withRequestLog(handler)
	}
	// Full read/write deadlines, not just the header timeout: a client that
	// trickles a request body or never drains a response must not pin a
	// connection (and its goroutine) forever.
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 2)
	go func() { errc <- httpServer.ListenAndServe() }()

	var metricsServer *http.Server
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", server.Metrics().Handler())
		writeTimeout := 30 * time.Second
		if *pprofOn {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			// CPU profiles and traces stream for ?seconds=N; leave headroom
			// beyond pprof's 30s default so captures aren't cut off mid-write.
			writeTimeout = 90 * time.Second
		}
		metricsServer = &http.Server{
			Addr:              *metricsAddr,
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      writeTimeout,
			IdleTimeout:       2 * time.Minute,
		}
		go func() { errc <- metricsServer.ListenAndServe() }()
		log.Printf("metrics on %s/metrics", *metricsAddr)
		if *pprofOn {
			log.Printf("pprof on %s/debug/pprof/", *metricsAddr)
		}
	}

	log.Printf("listening on %s (quantile %.2f, confidence %.2f, by-procs %v)",
		*addr, *quantile, *confidence, *byProcs)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case <-ctx.Done():
		log.Printf("shutting down")
	}

	// Graceful drain: stop accepting, finish in-flight requests, then
	// persist the final state.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpServer.Shutdown(shutdownCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if metricsServer != nil {
		if err := metricsServer.Shutdown(shutdownCtx); err != nil {
			log.Printf("metrics shutdown: %v", err)
		}
	}
	// Stop replication before the final save: the leader's sessions hold a
	// WAL tail reader and the follower's loop applies into the service;
	// both must quiesce before state is persisted and the WAL closed.
	if replFollower != nil {
		replFollower.Close()
	}
	if replLeader != nil {
		replLeader.Close()
	}
	if *statePath != "" {
		if err := server.Service().SaveShards(*statePath); err != nil {
			log.Printf("final state save failed: %v", err)
		} else {
			log.Printf("state saved to %s", *statePath)
		}
	}
	// Close the WAL after the final save: the save compacts the log, and
	// closing flushes whatever an interval/off sync policy still buffers.
	if obsLog != nil {
		if err := obsLog.Close(); err != nil {
			log.Printf("wal close: %v", err)
		}
	}
}

// withRequestLog logs one line per request: method, path, status, duration.
func withRequestLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		lw := &loggingWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(lw, r)
		log.Printf("%s %s -> %d (%s)", r.Method, r.URL.Path, lw.code, time.Since(start).Round(time.Microsecond))
	})
}

type loggingWriter struct {
	http.ResponseWriter
	code int
}

func (w *loggingWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}
