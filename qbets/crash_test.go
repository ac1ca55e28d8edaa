package qbets_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/crashprop"
	"repro/internal/wal"
	"repro/qbets"
)

// TestServiceCrashRecoveryMatchesOracle is the service-level crash-safety
// property: a service whose observations go through a write-ahead log,
// killed by a power cut at an arbitrary byte offset, recovers into exactly
// the state of an oracle service that was fed the surviving record prefix
// directly. The trial — workload, crash, recovery, oracle comparison —
// lives in internal/crashprop, shared verbatim with the H-Durability
// hypothesis grid (internal/hypo), so this tier and that one can never
// disagree about what the property means. Here it runs the historical
// 100 random trials, alternating sync policies.
func TestServiceCrashRecoveryMatchesOracle(t *testing.T) {
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%03d", trial), func(t *testing.T) {
			cfg := crashprop.TrialConfig{Seed: int64(trial), Mode: wal.SyncOff}
			if trial%2 == 0 {
				cfg.Mode = wal.SyncEachRecord
			}
			if _, err := crashprop.RunTrial(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCrashRecoverySnapshotPlusLogTail exercises the full durability story
// on real files: snapshot mid-stream (which compacts the log), keep
// observing, "crash" (drop the service), then recover snapshot + log tail
// and compare against a continuous oracle. The per-stream sequence anchors
// must make the merge exact — nothing double-applied across the snapshot
// boundary, nothing lost after it.
func TestCrashRecoverySnapshotPlusLogTail(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		dir := t.TempDir()
		statePath := filepath.Join(dir, "state")
		walDir := filepath.Join(dir, "wal")

		w, err := wal.Open(walDir, wal.Options{Mode: wal.SyncEachRecord, SegmentBytes: 512})
		if err != nil {
			t.Fatal(err)
		}
		svc := qbets.NewService(false, qbets.WithSeed(1))
		if _, err := svc.RecoverWAL(w); err != nil {
			t.Fatal(err)
		}
		oracle := qbets.NewService(false, qbets.WithSeed(1))

		queues := []string{"normal", "high"}
		observe := func(k int) {
			for i := 0; i < k; i++ {
				q := queues[rng.Intn(len(queues))]
				wait := rng.ExpFloat64() * 300
				if err := svc.Observe(q, 1, wait); err != nil {
					t.Fatal(err)
				}
				if err := oracle.Observe(q, 1, wait); err != nil {
					t.Fatal(err)
				}
			}
		}

		observe(60 + rng.Intn(100))
		if err := svc.SaveShards(statePath); err != nil {
			t.Fatal(err)
		}
		observe(rng.Intn(120)) // the log tail the snapshot does not cover

		// Crash: the process dies. SyncEachRecord means every observe above
		// is on disk; a second snapshot never happens.
		restored, err := qbets.LoadServiceShards(statePath, false, qbets.WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		w2, err := wal.Open(walDir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := restored.RecoverWAL(w2); err != nil {
			t.Fatal(err)
		}

		for _, q := range queues {
			if got, want := restored.Observations(q, 1), oracle.Observations(q, 1); got != want {
				t.Fatalf("trial %d queue %s: restored %d observations, oracle %d", trial, q, got, want)
			}
			gotB, gotOK := restored.Forecast(q, 1)
			wantB, wantOK := oracle.Forecast(q, 1)
			if gotOK != wantOK || gotB != wantB {
				t.Fatalf("trial %d queue %s: restored bound (%g,%v), oracle (%g,%v)", trial, q, gotB, gotOK, wantB, wantOK)
			}
		}
	}
}

// TestSaveShardsCompactsWAL verifies the snapshot path actually deletes
// the log segments the snapshot covers, so the log's disk footprint is
// bounded by the save interval rather than process lifetime.
func TestSaveShardsCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	w, err := wal.Open(walDir, wal.Options{Mode: wal.SyncEachRecord, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	svc := qbets.NewService(false, qbets.WithSeed(1))
	if _, err := svc.RecoverWAL(w); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := svc.Observe("q", 1, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) < 2 {
		t.Fatalf("expected multiple segments before compaction, got %d", len(before))
	}
	if err := svc.SaveShards(filepath.Join(dir, "state")); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	// Everything below the rotation cut is gone; only the fresh active
	// segment (created by the next append) or nothing remains.
	if len(after) > 1 {
		t.Fatalf("compaction left %d segments, want <= 1", len(after))
	}
	for _, e := range after {
		for _, b := range before {
			if e.Name() == b.Name() {
				t.Fatalf("segment %s survived compaction", e.Name())
			}
		}
	}
	if d := svc.Durability(); d.CompactionErrors != 0 {
		t.Fatalf("compaction errors: %d", d.CompactionErrors)
	}
}

// TestRestartAfterFullCompaction: a save that compacts every segment
// leaves an empty log, and a log reopened empty numbers from 1 again. The
// restarted service must still log new records above the snapshot's
// anchors — otherwise the next recovery skips them as already covered and
// loses acked observations.
func TestRestartAfterFullCompaction(t *testing.T) {
	dir := t.TempDir()
	statePath, walDir := filepath.Join(dir, "state"), filepath.Join(dir, "wal")
	oracle := qbets.NewService(false, qbets.WithSeed(1))
	restart := func() (*qbets.Service, *wal.WAL) {
		svc := qbets.NewService(false, qbets.WithSeed(1))
		if err := svc.LoadShards(statePath); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		w, err := wal.Open(walDir, wal.Options{Mode: wal.SyncEachRecord})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.RecoverWAL(w); err != nil {
			t.Fatal(err)
		}
		return svc, w
	}
	observe := func(svc *qbets.Service, n int) {
		for i := 0; i < n; i++ {
			wait := float64(10 + (i*37)%500)
			if err := svc.Observe("normal", 1, wait); err != nil {
				t.Fatal(err)
			}
			if err := oracle.Observe("normal", 1, wait); err != nil {
				t.Fatal(err)
			}
		}
	}

	svc, w := restart()
	observe(svc, 100)
	if err := svc.SaveShards(statePath); err != nil { // compacts every segment
		t.Fatal(err)
	}
	w.Close()

	svc, _ = restart()
	observe(svc, 50) // acked durable; then the process dies without a save

	svc, _ = restart()
	if err := crashprop.Equivalent(svc, oracle); err != nil {
		t.Fatal(err)
	}
}

// TestQuarantineStateFile covers the corrupt-snapshot startup path: the
// bad state is moved aside (evidence preserved), not deleted, and the
// original path is free for a fresh snapshot. A corrupt legacy state file
// takes the same path as a corrupt state directory.
func TestQuarantineStateFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	if err := os.WriteFile(path, []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := qbets.LoadServiceShards(path, false); !errors.Is(err, qbets.ErrCorruptState) {
		t.Fatalf("corrupt legacy state file: err = %v, want ErrCorruptState (it gates quarantine)", err)
	}
	// An I/O failure is not corruption: the startup path must fail fast on
	// it instead of quarantining possibly intact state. Here CURRENT is
	// unreadable (a directory).
	unreadable := filepath.Join(dir, "unreadable")
	if err := os.MkdirAll(filepath.Join(unreadable, "CURRENT"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := qbets.LoadServiceShards(unreadable, false); err == nil || errors.Is(err, qbets.ErrCorruptState) || os.IsNotExist(err) {
		t.Fatalf("read error misclassified as corruption or absence: %v", err)
	}
	qpath, err := qbets.QuarantineStateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(qpath, ".corrupt-") {
		t.Fatalf("quarantine path %q missing .corrupt- marker", qpath)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("original path still occupied after quarantine: %v", err)
	}
	moved, err := os.ReadFile(qpath)
	if err != nil || string(moved) != "not json at all" {
		t.Fatalf("quarantined contents lost: %q, %v", moved, err)
	}
}

// TestMigratedLegacyStatePlusLogTail is TestCrashRecoverySnapshotPlusLogTail
// across the format migration: a snapshot in the retired single-file
// format, then a log tail, then a crash. Startup migrates the file into a
// state directory and replays the tail on top; the result must match a
// never-restarted oracle exactly.
func TestMigratedLegacyStatePlusLogTail(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(700 + trial)))
		dir := t.TempDir()
		statePath := filepath.Join(dir, "state.json")
		walDir := filepath.Join(dir, "wal")

		w, err := wal.Open(walDir, wal.Options{Mode: wal.SyncEachRecord, SegmentBytes: 512})
		if err != nil {
			t.Fatal(err)
		}
		svc := qbets.NewService(false, qbets.WithSeed(1))
		if _, err := svc.RecoverWAL(w); err != nil {
			t.Fatal(err)
		}
		oracle := qbets.NewService(false, qbets.WithSeed(1))
		observe := func(k int) {
			for i := 0; i < k; i++ {
				q := crashprop.TrialQueues[rng.Intn(len(crashprop.TrialQueues))]
				wait := rng.ExpFloat64() * 300
				if err := svc.Observe(q, 1, wait); err != nil {
					t.Fatal(err)
				}
				if err := oracle.Observe(q, 1, wait); err != nil {
					t.Fatal(err)
				}
			}
		}

		observe(100 + rng.Intn(200))
		blob, err := qbets.EncodeLegacyState(svc)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(statePath, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		observe(rng.Intn(150)) // the log tail the legacy snapshot does not cover

		restored, err := qbets.LoadServiceShards(statePath, false, qbets.WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		w2, err := wal.Open(walDir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := restored.RecoverWAL(w2); err != nil {
			t.Fatal(err)
		}
		if err := crashprop.Equivalent(restored, oracle); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		w2.Close()
	}
}

// TestServiceReadOnlyDegradation: when log appends fail, observes are
// refused with ErrReadOnly (never silently unlogged), forecasts keep
// serving, and the mode heals itself when the disk comes back.
func TestServiceReadOnlyDegradation(t *testing.T) {
	fs := wal.NewFaultFS(wal.NewMemFS())
	w, err := wal.Open("wal", wal.Options{FS: fs, Mode: wal.SyncEachRecord})
	if err != nil {
		t.Fatal(err)
	}
	svc := qbets.NewService(false, qbets.WithSeed(1))
	if _, err := svc.RecoverWAL(w); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := svc.Observe("q", 1, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	preBound, preOK := svc.Forecast("q", 1)

	fs.FailWritesAfter(0, errors.New("disk full"), false)
	if err := svc.Observe("q", 1, 1); !errors.Is(err, qbets.ErrReadOnly) {
		t.Fatalf("observe during write failure: err = %v, want ErrReadOnly", err)
	}
	if !svc.ReadOnly() {
		t.Fatal("service not read-only after append failure")
	}
	// Forecasts still serve, unchanged: the refused observation was not
	// folded in.
	if b, ok := svc.Forecast("q", 1); ok != preOK || b != preBound {
		t.Fatalf("forecast changed during read-only: (%g,%v) vs (%g,%v)", b, ok, preBound, preOK)
	}
	if svc.Observations("q", 1) != 50 {
		t.Fatalf("refused observation was applied: %d", svc.Observations("q", 1))
	}

	fs.Clear()
	if err := svc.Observe("q", 1, 2); err != nil {
		t.Fatalf("observe after heal: %v", err)
	}
	if svc.ReadOnly() {
		t.Fatal("read-only did not self-heal on successful append")
	}
	if d := svc.Durability(); d.AppendErrors == 0 || d.Appends == 0 {
		t.Fatalf("durability counters not tracking: %+v", d)
	}
}
