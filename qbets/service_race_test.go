package qbets

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wal"
)

// The tests in this file exist to be run under the race detector
// (go test -race ./qbets/...): they mix observes, forecasts, profiles, and
// status reads across overlapping streams and assert only coarse
// invariants — the detector does the real checking.

func TestServiceConcurrentStress(t *testing.T) {
	svc := NewService(true, WithSeed(11))
	queues := []string{"normal", "high", "low"}
	procs := []int{1, 8, 32, 128}

	// Pre-warm a couple of streams past MinObservations so forecasts and
	// hit-rate accounting are active during the storm.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		svc.Observe("normal", 1, math.Exp(rng.NormFloat64())*60)
		svc.Observe("high", 8, math.Exp(rng.NormFloat64())*600)
	}

	const goroutines = 16
	const iters = 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < iters; i++ {
				q := queues[(g+i)%len(queues)]
				p := procs[i%len(procs)]
				switch i % 5 {
				case 0, 1:
					svc.Observe(q, p, math.Exp(rng.NormFloat64())*60)
				case 2:
					svc.Forecast(q, p)
				case 3:
					svc.Profile(q, p)
				case 4:
					if i%20 == 4 {
						svc.Stats()
						svc.Queues()
					} else {
						svc.StreamStats(q, p)
						svc.Observations(q, p)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Every (queue, bucket) combination observed must exist, and totals
	// must be conserved: observes = 2*200 prewarm + the per-goroutine share.
	stats := svc.Stats()
	if len(stats) == 0 || svc.NumStreams() != len(stats) {
		t.Fatalf("stats/NumStreams disagree: %d vs %d", len(stats), svc.NumStreams())
	}
	total, trims := 0, 0
	for _, st := range stats {
		total += st.Observations
		trims += st.Trims
		if st.RollingHitRate < 0 || st.RollingHitRate > 1 {
			t.Errorf("stream %s hit rate %g out of range", st.Stream, st.RollingHitRate)
		}
		if uint64(st.RollingResolved) > st.LifetimeResolved {
			t.Errorf("stream %s rolling resolved %d exceeds lifetime %d", st.Stream, st.RollingResolved, st.LifetimeResolved)
		}
	}
	// i%5 in {0,1} → 2 observes per 5 iterations exactly (iters divisible
	// by 5). Observations reports current history length, which shrinks
	// when a change-point trim fires — and whether one fires depends on
	// each stream's observation order, which the scheduler interleaving
	// decides. Exact conservation therefore only holds on trim-free runs;
	// with trims the count may only have gone down.
	want := 400 + goroutines*iters*2/5
	if trims == 0 && total != want {
		t.Errorf("total observations = %d, want %d", total, want)
	}
	if total > want {
		t.Errorf("total observations = %d exceeds %d ingested", total, want)
	}
}

func TestServiceConcurrentSaveLoad(t *testing.T) {
	svc := NewService(true, WithSeed(13))
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		svc.Observe("normal", 2, math.Exp(rng.NormFloat64())*30)
	}
	seedDir := filepath.Join(t.TempDir(), "seed")
	if err := svc.SaveShards(seedDir); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		// Each saver owns its state directory: saves to one directory are
		// serialized by the caller (qbets-serve has a single saver).
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("save%d", g))
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				svc.Observe("normal", 2, float64(i))
				svc.Forecast("normal", 2)
				if err := svc.SaveShards(dir); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// One goroutine restores state mid-traffic: in-flight requests must
	// finish cleanly against whichever stream set they started with.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := svc.LoadShards(seedDir); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if _, ok := svc.Forecast("normal", 2); !ok {
		t.Error("stream lost after concurrent save/load")
	}
}

// TestServiceConcurrentSaveCompactWAL races WAL-logged observes against
// repeated snapshots (each of which rotates and compacts the log) and then
// checks conservation the hard way: a fresh process recovering from the
// last snapshot plus the surviving log must be byte-equivalent, per
// stream, to an oracle that observed the same data with no snapshots, no
// WAL, and no crash — whatever interleaving the scheduler produced. Each
// goroutine owns its queue so every stream's observation order is
// deterministic and the oracle is exact (history length alone would not
// be: change-point trims shrink it). Run under -race this also exercises
// the Rotate/AppendBatch and save/observe lock interplay.
func TestServiceConcurrentSaveCompactWAL(t *testing.T) {
	dir := t.TempDir()
	statePath := filepath.Join(dir, "state")
	walDir := filepath.Join(dir, "wal")

	w, err := wal.Open(walDir, wal.Options{Mode: wal.SyncEachRecord, SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(false, WithSeed(19))
	if _, err := svc.RecoverWAL(w); err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const perG = 150
	waitFor := func(g, i int) float64 {
		return math.Exp(math.Sin(float64(g*perG+i))) * 60 // deterministic, stationary-ish
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := fmt.Sprintf("q%d", g)
			for i := 0; i < perG; i++ {
				if err := svc.Observe(q, 1, waitFor(g, i)); err != nil {
					t.Errorf("observe: %v", err)
					return
				}
			}
		}(g)
	}
	var saves atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			if err := svc.SaveShards(statePath); err != nil {
				t.Errorf("save: %v", err)
				return
			}
			saves.Add(1)
		}
	}()
	wg.Wait()
	// A final quiescent save so the snapshot on disk plus the log tail is a
	// complete picture regardless of where the racing saves landed.
	if err := svc.SaveShards(statePath); err != nil {
		t.Fatal(err)
	}
	d := svc.Durability()
	if d.CompactionErrors != 0 || d.AppendErrors != 0 {
		t.Fatalf("durability errors under concurrency: %+v", d)
	}
	if want := uint64(goroutines * perG); d.Appends != want {
		t.Fatalf("WAL saw %d appends, want %d", d.Appends, want)
	}

	restored, err := LoadServiceShards(statePath, false, WithSeed(19))
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

	oracle := NewService(false, WithSeed(19))
	for g := 0; g < goroutines; g++ {
		q := fmt.Sprintf("q%d", g)
		for i := 0; i < perG; i++ {
			if err := oracle.Observe(q, 1, waitFor(g, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if restored.NumStreams() != oracle.NumStreams() {
		t.Fatalf("restored %d streams, oracle %d", restored.NumStreams(), oracle.NumStreams())
	}
	for g := 0; g < goroutines; g++ {
		q := fmt.Sprintf("q%d", g)
		gotN, wantN := restored.Observations(q, 1), oracle.Observations(q, 1)
		if gotN != wantN {
			t.Fatalf("queue %s: restored %d observations, oracle %d (saves: %d)", q, gotN, wantN, saves.Load())
		}
		gotB, gotOK := restored.Forecast(q, 1)
		wantB, wantOK := oracle.Forecast(q, 1)
		if gotOK != wantOK || gotB != wantB {
			t.Fatalf("queue %s: restored bound (%g,%v), oracle (%g,%v)", q, gotB, gotOK, wantB, wantOK)
		}
	}
}

func TestServerConcurrentBatchObserve(t *testing.T) {
	s := NewServer(true, WithSeed(17))
	ts := httptest.NewServer(s)
	defer ts.Close()

	const goroutines = 8
	const batches = 20
	const batchSize = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			queue := fmt.Sprintf("q%d", g%3) // overlapping queues across goroutines
			for b := 0; b < batches; b++ {
				var records []ObserveRecord
				for i := 0; i < batchSize; i++ {
					records = append(records, ObserveRecord{
						Queue:       queue,
						Procs:       1 << (i % 8),
						WaitSeconds: float64(1 + i),
					})
				}
				body, _ := json.Marshal(records)
				resp, err := http.Post(ts.URL+"/v1/observe", "application/json", strings.NewReader(string(body)))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusNoContent {
					t.Errorf("batch observe status %d", resp.StatusCode)
					return
				}
				// Interleave reads on the same and other queues.
				for _, path := range []string{
					"/v1/forecast?queue=" + queue + "&procs=4",
					"/v1/profile?queue=" + queue + "&procs=4",
					"/v1/status",
					"/metrics",
				} {
					get, err := http.Get(ts.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					get.Body.Close()
				}
			}
		}(g)
	}
	wg.Wait()

	// Conservation: every posted record was ingested exactly once.
	st, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	var status StatusResponse
	if err := json.NewDecoder(st.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, stream := range status.Streams {
		total += stream.Observations
	}
	if want := goroutines * batches * batchSize; total != want {
		t.Errorf("ingested %d observations, want %d", total, want)
	}
}

// TestObserveBatchOpposingLockOrders races multi-stream batches over
// overlapping stream sets, half of the goroutines listing their streams
// in ascending key order and half in descending, with the WAL on and an
// evictor cycling the streams cold. A chunk holds all of its streams'
// locks at once, so without one global lock order two such batches
// deadlock; every batch must finish within the deadline, and every
// record must be logged exactly once.
func TestObserveBatchOpposingLockOrders(t *testing.T) {
	w, err := wal.Open("wal", wal.Options{FS: wal.NewMemFS(), Mode: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	svc := NewService(true, WithSeed(5))
	if _, err := svc.RecoverWAL(w); err != nil {
		t.Fatal(err)
	}
	round := siteRecords(64, 1, 1) // one record per stream, queue order
	slices.SortFunc(round, func(a, b ObserveRecord) int { return strings.Compare(a.Queue, b.Queue) })

	const goroutines, batches, span = 6, 150, 48
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		batch := make([]ObserveRecord, span)
		for j := range batch {
			batch[j] = round[(8*g+j)%len(round)]
		}
		if g%2 == 1 {
			slices.Reverse(batch)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				if _, err := svc.ObserveBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	evicted := make(chan struct{})
	go func() {
		defer close(evicted)
		for {
			select {
			case <-stop:
				return
			default:
				svc.EvictToCap(0)
			}
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("multi-stream batches over overlapping streams deadlocked")
	}
	close(stop)
	<-evicted
	if got, want := svc.Durability().Appends, uint64(goroutines*batches*span); got != want {
		t.Fatalf("logged %d records, want %d", got, want)
	}
}
