package qbets

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The read plane serves RCU-published snapshots: these tests pin down the
// coherence contract — readers see whole ObserveBatch chunks or nothing,
// generations are monotone, restores leave no stale snapshot behind, and
// the whole read path holds no locks and allocates nothing.

// TestSnapshotChunkCoherence is the prefix-of-chunks oracle. With trimming
// off and every batch a single chunk of B records, a stream's published
// snapshot must always satisfy observations == B*(generation-1): gen 1 is
// the empty stream at creation, and each applied chunk adds exactly B
// observations and exactly one publication. Any reader who catches a
// partially applied chunk, or a snapshot whose fields mix two
// publications, breaks the equation.
func TestSnapshotChunkCoherence(t *testing.T) {
	const (
		B       = 64 // one chunk per ObserveBatch call (B <= observeBatchChunk)
		batches = 200
		readers = 4
	)
	if B > observeBatchChunk {
		t.Fatalf("B = %d must fit one chunk (%d)", B, observeBatchChunk)
	}
	svc := NewService(false, WithSeed(7), WithoutTrimming())

	batch := make([]ObserveRecord, B)
	for i := range batch {
		batch[i] = ObserveRecord{Queue: "q", Procs: 1, WaitSeconds: float64(10 + i)}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastGen uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				st, ok := svc.StreamStats("q", 1)
				if !ok {
					continue
				}
				if st.Generation < lastGen {
					t.Errorf("generation went backwards: %d after %d", st.Generation, lastGen)
					return
				}
				lastGen = st.Generation
				if got, want := st.Observations, B*int(st.Generation-1); got != want {
					t.Errorf("snapshot gen %d has %d observations, want %d (torn chunk visible)",
						st.Generation, got, want)
					return
				}
			}
		}()
	}

	for i := 0; i < batches; i++ {
		if applied, err := svc.ObserveBatch(batch); err != nil || applied != B {
			t.Fatalf("batch %d: applied %d, err %v", i, applied, err)
		}
	}
	close(done)
	wg.Wait()

	st, ok := svc.StreamStats("q", 1)
	if !ok || st.Generation != batches+1 || st.Observations != batches*B {
		t.Fatalf("final state = %+v, ok %v; want gen %d, observations %d",
			st, ok, batches+1, batches*B)
	}
}

// TestSnapshotGenerationMonotoneUnderTrims exercises the same oracle's
// weaker form when change-point trims are live: observations may shrink,
// but the generation — and the trim counter riding in the same snapshot —
// must stay monotone, and a forecast must never pair with a generation
// that predates it.
func TestSnapshotGenerationMonotoneUnderTrims(t *testing.T) {
	svc := NewService(false, WithSeed(11), WithFixedChangeThreshold(20))
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastGen uint64
			var lastTrims int
			for {
				select {
				case <-done:
					return
				default:
				}
				st, ok := svc.StreamStats("q", 1)
				if !ok {
					continue
				}
				if st.Generation < lastGen {
					t.Errorf("generation went backwards: %d after %d", st.Generation, lastGen)
					return
				}
				if st.Generation == lastGen && st.Trims < lastTrims {
					t.Errorf("same generation %d reported %d trims after %d", st.Generation, st.Trims, lastTrims)
					return
				}
				lastGen, lastTrims = st.Generation, st.Trims
			}
		}()
	}

	// Alternate regimes hard enough to force trims through the fixed
	// threshold: long stretches of small waits, then large.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4000; i++ {
		w := 10 + rng.Float64()
		if (i/500)%2 == 1 {
			w = 5000 + rng.Float64()
		}
		if err := svc.Observe("q", 1, w); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	if st, ok := svc.StreamStats("q", 1); !ok || st.Trims == 0 {
		t.Fatalf("regime flips produced no trims (status %+v, ok %v); the monotonicity check never fired", st, ok)
	}
}

// TestSnapshotCoherenceUnderRestoreChurn races lock-free readers against
// wholesale restores and stream creation. The assertions are the race
// detector itself plus two invariants: Queues() is always sorted, and a
// reader-visible stream always carries a published snapshot (StreamStats
// never tears).
func TestSnapshotCoherenceUnderRestoreChurn(t *testing.T) {
	seed := NewService(false, WithSeed(3), WithoutTrimming())
	for i := 0; i < 100; i++ {
		seed.Observe("restored", 1, float64(i))
	}
	seedDir := t.TempDir()
	if err := seed.SaveShards(seedDir); err != nil {
		t.Fatal(err)
	}

	svc := NewService(false, WithSeed(3), WithoutTrimming())
	done := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // restorer
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if err := svc.LoadShards(seedDir); err != nil {
				t.Errorf("restore %d: %v", i, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // creator: churns new streams between restores
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			svc.Observe(fmt.Sprintf("fresh%d", i%17), 1, float64(i))
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() { // readers
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				qs := svc.Queues()
				if !slices.IsSorted(qs) {
					t.Errorf("Queues() not sorted: %v", qs)
					return
				}
				for _, s := range svc.Stats() {
					if s.Generation == 0 {
						t.Errorf("stream %q visible without a published snapshot", s.Stream)
						return
					}
				}
				svc.Forecast("restored", 1)
				svc.Profile("restored", 1)
			}
		}()
	}
	time.Sleep(200 * time.Millisecond)
	close(done)
	wg.Wait()
}

// TestRestoreWhileServing proves no stale snapshot survives a restore: the
// instant LoadShards returns, every read resolves against the
// restored stream set — pre-restore streams are gone and the restored
// stream's depth is served, even while readers hammer the whole time.
func TestRestoreWhileServing(t *testing.T) {
	archived := NewService(false, WithSeed(9), WithoutTrimming())
	for i := 0; i < 150; i++ {
		archived.Observe("shared", 1, 100+float64(i))
	}
	wantObs := archived.Observations("shared", 1)
	wantBound, wantOK := archived.Forecast("shared", 1)
	archiveDir := t.TempDir()
	if err := archived.SaveShards(archiveDir); err != nil {
		t.Fatal(err)
	}

	svc := NewService(false, WithSeed(9), WithoutTrimming())
	for i := 0; i < 30; i++ {
		svc.Observe("shared", 1, 1) // same key, different history
		svc.Observe("doomed", 1, 1) // must vanish on restore
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				svc.Forecast("shared", 1)
				svc.StreamStats("doomed", 1)
				svc.Stats()
			}
		}()
	}

	if err := svc.LoadShards(archiveDir); err != nil {
		t.Fatal(err)
	}
	// Immediately after return — readers still running — the restored
	// state must be the only state visible.
	if got := svc.Observations("shared", 1); got != wantObs {
		t.Errorf("post-restore observations = %d, want %d", got, wantObs)
	}
	if b, ok := svc.Forecast("shared", 1); ok != wantOK || b != wantBound {
		t.Errorf("post-restore forecast = (%v, %v), want (%v, %v)", b, ok, wantBound, wantOK)
	}
	if _, ok := svc.StreamStats("doomed", 1); ok {
		t.Error("pre-restore stream still resolvable after restore")
	}
	if qs := svc.Queues(); len(qs) != 1 || qs[0] != "shared" {
		t.Errorf("post-restore Queues() = %v, want [shared]", qs)
	}
	close(done)
	wg.Wait()
}

// TestReadPathLockFree holds a stream's write lock hostage and proves
// every read-plane entry point still answers: the reads run against the
// published snapshot and never touch st.mu.
func TestReadPathLockFree(t *testing.T) {
	svc := NewService(false, WithSeed(1), WithoutTrimming())
	for i := 0; i < 100; i++ {
		svc.Observe("q", 1, float64(i))
	}
	st := svc.lookup("q")
	if st == nil {
		t.Fatal("stream not in index")
	}
	// Surface the latest applied state before the lock is taken hostage:
	// publication is on-demand, so a read must run while the lock is free
	// for the final observations to be published. Once the writer holds
	// the lock, readers serve this (current) snapshot.
	svc.Observations("q", 1)
	svc.Profile("q", 1)
	st.mu.Lock()
	defer st.mu.Unlock()

	doneCh := make(chan struct{})
	go func() {
		defer close(doneCh)
		if _, ok := svc.Forecast("q", 1); !ok {
			t.Error("Forecast not ok")
		}
		if p := svc.Profile("q", 1); p == nil {
			t.Error("Profile nil")
		}
		if n := svc.Observations("q", 1); n != 100 {
			t.Errorf("Observations = %d", n)
		}
		if _, ok := svc.StreamStats("q", 1); !ok {
			t.Error("StreamStats not ok")
		}
		if n := len(svc.Stats()); n != 1 {
			t.Errorf("Stats len = %d", n)
		}
		if qs := svc.Queues(); len(qs) != 1 {
			t.Errorf("Queues = %v", qs)
		}
	}()
	select {
	case <-doneCh:
	case <-time.After(5 * time.Second):
		t.Fatal("read path blocked behind a held stream write lock")
	}
}

// TestReadPathZeroAllocs pins the tentpole's allocation contract: the four
// per-shape read entry points allocate nothing in steady state.
func TestReadPathZeroAllocs(t *testing.T) {
	svc := NewService(true, WithSeed(1))
	for i := 0; i < 100; i++ {
		svc.Observe("q", 8, float64(i))
	}
	var sink float64
	var sinkB []Bound
	checks := []struct {
		name string
		fn   func()
	}{
		{"Forecast", func() { s, _ := svc.Forecast("q", 8); sink = s }},
		{"Profile", func() { sinkB = svc.Profile("q", 8) }},
		{"Observations", func() { sink = float64(svc.Observations("q", 8)) }},
		{"StreamStats", func() { st, _ := svc.StreamStats("q", 8); sink = st.BoundSeconds }},
		{"Forecast-unknown", func() { s, _ := svc.Forecast("ghost", 8); sink = s }},
	}
	for _, c := range checks {
		if n := testing.AllocsPerRun(200, c.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, n)
		}
	}
	_, _ = sink, sinkB
}

// TestProfileServesPublishedSnapshot verifies the documented sharing
// contract: two Profile calls with no intervening observation return the
// identical backing array (same snapshot), and an observation republishes
// — the old slice is never mutated in place.
func TestProfileServesPublishedSnapshot(t *testing.T) {
	svc := NewService(false, WithSeed(2))
	for i := 0; i < 100; i++ {
		svc.Observe("q", 1, float64(i))
	}
	p1 := svc.Profile("q", 1)
	p2 := svc.Profile("q", 1)
	if len(p1) == 0 || &p1[0] != &p2[0] {
		t.Fatalf("quiescent Profile calls returned different backing arrays")
	}
	old := slices.Clone(p1)
	svc.Observe("q", 1, 1e6) // forces a republish with a shifted profile
	if !slices.Equal(old, p1) {
		t.Error("published profile slice mutated in place after a new observation")
	}
	if p3 := svc.Profile("q", 1); len(p3) > 0 && &p3[0] == &p1[0] {
		t.Error("observation did not publish a fresh profile slice")
	}
}

// TestQueuesAndStatsSorted: insertion order must not leak into Queues() or
// Stats() — both are sorted by stream key, keeping /v1/status stable.
func TestQueuesAndStatsSorted(t *testing.T) {
	svc := NewService(false, WithSeed(1))
	for _, q := range []string{"zeta", "alpha", "mid", "beta", "omega"} {
		svc.Observe(q, 1, 1)
	}
	want := []string{"alpha", "beta", "mid", "omega", "zeta"}
	if got := svc.Queues(); !slices.Equal(got, want) {
		t.Errorf("Queues() = %v, want %v", got, want)
	}
	stats := svc.Stats()
	keys := make([]string, len(stats))
	for i, st := range stats {
		keys[i] = st.Stream
	}
	if !slices.Equal(keys, want) {
		t.Errorf("Stats() order = %v, want %v", keys, want)
	}
}

// TestGenerationCountsPerChunkNotPerRecord: a 1000-record batch crosses
// chunk boundaries; the generation must advance once per chunk (ceil(N/B)
// publications), not once per record — that is what bounds how often
// readers are invalidated under bulk ingest.
func TestGenerationCountsPerChunkNotPerRecord(t *testing.T) {
	svc := NewService(false, WithSeed(1), WithoutTrimming())
	const n = 1000
	batch := make([]ObserveRecord, n)
	for i := range batch {
		batch[i] = ObserveRecord{Queue: "q", Procs: 1, WaitSeconds: float64(i)}
	}
	if applied, err := svc.ObserveBatch(batch); err != nil || applied != n {
		t.Fatalf("applied %d, %v", applied, err)
	}
	st, ok := svc.StreamStats("q", 1)
	wantGen := uint64(1 + (n+observeBatchChunk-1)/observeBatchChunk)
	if !ok || st.Generation != wantGen {
		t.Fatalf("generation = %d (ok %v), want %d", st.Generation, ok, wantGen)
	}
}

// TestLookupIndexVisibility: a stream created through the write path is
// immediately visible to the lock-free index readers, per getOrCreate's
// rebuild-after-insert contract.
func TestLookupIndexVisibility(t *testing.T) {
	svc := NewService(true, WithSeed(1))
	var wg sync.WaitGroup
	var missing atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := fmt.Sprintf("w%d-%d", g, i)
				svc.Observe(q, 8, 1)
				if _, ok := svc.StreamStats(q, 8); !ok {
					missing.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := missing.Load(); n != 0 {
		t.Errorf("%d streams invisible to the index immediately after their own creation", n)
	}
}
