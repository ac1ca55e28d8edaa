package qbets

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/wal"
)

// TestEvictRehydrateExact checks the lifecycle's core contract: eviction
// is invisible to readers (same bound, same profile, same counters) and a
// write to a cold stream rehydrates to exactly the state an never-evicted
// oracle has.
func TestEvictRehydrateExact(t *testing.T) {
	svc := NewService(false, WithSeed(5))
	oracle := NewService(false, WithSeed(5))
	wait := func(i int) float64 { return math.Exp(math.Sin(float64(i))) * 60 }
	for i := 0; i < 150; i++ {
		svc.Observe("q", 1, wait(i))
		oracle.Observe("q", 1, wait(i))
	}
	wantBound, wantOK := oracle.Forecast("q", 1)
	wantProfile := oracle.Profile("q", 1)

	if n := svc.EvictIdle(0); n != 1 {
		t.Fatalf("EvictIdle evicted %d streams, want 1", n)
	}
	if svc.LiveStreams() != 0 || svc.NumStreams() != 1 {
		t.Fatalf("live=%d total=%d after eviction, want 0/1", svc.LiveStreams(), svc.NumStreams())
	}

	// Cold reads: every read API answers exactly, with no rehydration.
	if b, ok := svc.Forecast("q", 1); ok != wantOK || b != wantBound {
		t.Fatalf("cold Forecast = (%g,%v), want (%g,%v)", b, ok, wantBound, wantOK)
	}
	p := svc.Profile("q", 1)
	if len(p) != len(wantProfile) {
		t.Fatalf("cold Profile has %d entries, want %d", len(p), len(wantProfile))
	}
	for i := range p {
		if p[i] != wantProfile[i] {
			t.Fatalf("cold Profile[%d] = %+v, want %+v", i, p[i], wantProfile[i])
		}
	}
	if n := svc.Observations("q", 1); n != oracle.Observations("q", 1) {
		t.Fatalf("cold Observations = %d, want %d", n, oracle.Observations("q", 1))
	}
	if svc.LiveStreams() != 0 {
		t.Fatal("reads rehydrated a cold stream")
	}

	// A write rehydrates and the merged history matches the oracle.
	for i := 150; i < 200; i++ {
		if err := svc.Observe("q", 1, wait(i)); err != nil {
			t.Fatalf("observe after eviction: %v", err)
		}
		oracle.Observe("q", 1, wait(i))
	}
	if svc.LiveStreams() != 1 {
		t.Fatalf("LiveStreams = %d after write, want 1", svc.LiveStreams())
	}
	gotB, gotOK := svc.Forecast("q", 1)
	wantB, wantOK2 := oracle.Forecast("q", 1)
	if gotOK != wantOK2 || gotB != wantB {
		t.Fatalf("post-rehydrate Forecast = (%g,%v), oracle (%g,%v)", gotB, gotOK, wantB, wantOK2)
	}
	if got, want := svc.Observations("q", 1), oracle.Observations("q", 1); got != want {
		t.Fatalf("post-rehydrate Observations = %d, oracle %d", got, want)
	}
}

// TestEvictToCap checks the hydrated-stream cap: the longest-idle streams
// go cold first and the registry itself never shrinks.
func TestEvictToCap(t *testing.T) {
	svc := NewService(false, WithSeed(9))
	const n = 40
	for i := 0; i < n; i++ {
		svc.Observe(fmt.Sprintf("q%02d", i), 1, float64(i))
	}
	// Age the first half: advance the clock (as an eviction pass would),
	// then touch the second half so only the first half stays stale.
	svc.EvictIdle(24 * time.Hour) // evicts nothing, but advances the clock
	for i := n / 2; i < n; i++ {
		svc.Observe(fmt.Sprintf("q%02d", i), 1, 1)
	}
	if got := svc.EvictToCap(25); got != n-25 {
		t.Fatalf("EvictToCap(25) evicted %d, want %d", got, n-25)
	}
	if live := svc.LiveStreams(); live != 25 {
		t.Fatalf("LiveStreams = %d, want 25", live)
	}
	if svc.NumStreams() != n {
		t.Fatalf("NumStreams = %d, want %d (eviction must not drop streams)", svc.NumStreams(), n)
	}
	// The stale half must be the evicted one.
	for i := n / 2; i < n; i++ {
		st := svc.lookup(fmt.Sprintf("q%02d", i))
		if st.evicted.Load() {
			t.Fatalf("recently touched stream q%02d was evicted before idle ones", i)
		}
	}
	// Under the cap: another pass is a no-op.
	if got := svc.EvictToCap(25); got != 0 {
		t.Fatalf("second EvictToCap evicted %d, want 0", got)
	}
}

// TestEvictWALReplayOracle is the eviction↔recovery property test: a
// service takes WAL-logged traffic with eviction passes and snapshot saves
// interleaved, crashes, and recovers — and the recovered state must be
// byte-equivalent per stream to an oracle that saw the same observations
// with no WAL, no snapshots, no evictions, and no crash. This pins the
// three-way interaction: evicted streams serialize their cold blob into
// snapshots, replay rehydrates cold streams before folding in the log
// tail, and per-stream sequence anchors stay exact across all of it.
func TestEvictWALReplayOracle(t *testing.T) {
	dir := t.TempDir()
	stateDir := filepath.Join(dir, "state")
	walDir := filepath.Join(dir, "wal")

	w, err := wal.Open(walDir, wal.Options{Mode: wal.SyncEachRecord, SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(false, WithSeed(21))
	if _, err := svc.RecoverWAL(w); err != nil {
		t.Fatal(err)
	}

	const queues = 6
	const rounds = 8
	const perRound = 40
	wait := func(q, i int) float64 { return math.Exp(math.Sin(float64(q*1000+i))) * 30 }
	obsCount := make([]int, queues)
	observeRound := func(s *Service, r int) {
		for q := 0; q < queues; q++ {
			if r%2 == 0 || q%2 == 0 { // uneven traffic: some streams idle some rounds
				for i := 0; i < perRound; i++ {
					if err := s.Observe(fmt.Sprintf("q%d", q), 1, wait(q, obsCount[q]+i)); err != nil {
						t.Fatalf("observe: %v", err)
					}
				}
				obsCount[q] += perRound
			}
		}
	}
	for r := 0; r < rounds; r++ {
		observeRound(svc, r)
		switch r % 3 {
		case 0:
			// Evict everything idle; mid-run cold streams must keep
			// accepting replayed-on-top writes next round.
			svc.EvictIdle(0)
		case 1:
			// Sharded snapshot mid-traffic with a mix of hot and cold
			// streams; compacts the WAL under the recovery anchor.
			if err := svc.saveShards(stateDir, 4); err != nil {
				t.Fatalf("SaveShards: %v", err)
			}
		}
	}
	// Crash: drop svc without a final save. Recover from the last sharded
	// snapshot plus the surviving log tail.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadServiceShards(stateDir, false, WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	if restored.LiveStreams() != 0 {
		t.Fatalf("sharded restore hydrated %d streams, want 0 (cold adoption)", restored.LiveStreams())
	}
	w2, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.RecoverWAL(w2); err != nil {
		t.Fatal(err)
	}

	oracle := NewService(false, WithSeed(21))
	obsCount = make([]int, queues) // reset: replay the same schedule into the oracle
	for r := 0; r < rounds; r++ {
		observeRound(oracle, r)
	}
	if restored.NumStreams() != oracle.NumStreams() {
		t.Fatalf("restored %d streams, oracle %d", restored.NumStreams(), oracle.NumStreams())
	}
	for q := 0; q < queues; q++ {
		name := fmt.Sprintf("q%d", q)
		if got, want := restored.Observations(name, 1), oracle.Observations(name, 1); got != want {
			t.Fatalf("queue %s: restored %d observations, oracle %d", name, got, want)
		}
		gotB, gotOK := restored.Forecast(name, 1)
		wantB, wantOK := oracle.Forecast(name, 1)
		if gotOK != wantOK || gotB != wantB {
			t.Fatalf("queue %s: restored bound (%g,%v), oracle (%g,%v)", name, gotB, gotOK, wantB, wantOK)
		}
	}
}

// TestEvictIdleRespectsTTL checks that a TTL longer than every stream's
// idle time evicts nothing.
func TestEvictIdleRespectsTTL(t *testing.T) {
	svc := NewService(false, WithSeed(2))
	svc.Observe("fresh", 1, 1)
	if n := svc.EvictIdle(24 * time.Hour); n != 0 {
		t.Fatalf("EvictIdle(24h) evicted %d fresh streams", n)
	}
	if svc.LiveStreams() != 1 {
		t.Fatal("fresh stream went cold under a generous TTL")
	}
}
