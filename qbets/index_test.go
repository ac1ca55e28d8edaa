package qbets

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// TestIndexChurnCoherence hammers stream creation across partitions while
// readers enumerate, asserting the enumeration invariants the k-way merge
// promises: ascending key order, no duplicates, and — once the dust
// settles — every created key present exactly once. Every key is raced by
// two creators, and the key count crosses the first growth rebuild, so
// the registry must hand both creators one pointer-equal *stream and
// count each key once, across the rebuild too. Run under -race this also
// checks the copy-on-write publication discipline.
func TestIndexChurnCoherence(t *testing.T) {
	svc := NewService(false, WithSeed(7))
	const creators = 8
	distinct := indexMaxLoad*indexInitialPartitions + 512 // just past the first growth
	if testing.Short() {
		distinct = 3200
	}
	key := func(i int) string { return fmt.Sprintf("q%06d", i) }

	var creatorsWG, readersWG sync.WaitGroup
	stopReaders := make(chan struct{})
	for r := 0; r < 4; r++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				qs := svc.Queues()
				for i := 1; i < len(qs); i++ {
					if qs[i-1] >= qs[i] {
						t.Errorf("Queues() unsorted or duplicated at %d: %q >= %q", i, qs[i-1], qs[i])
						return
					}
				}
				stats := svc.Stats()
				for i := 1; i < len(stats); i++ {
					if stats[i-1].Stream >= stats[i].Stream {
						t.Errorf("Stats() unsorted or duplicated at %d: %q >= %q", i, stats[i-1].Stream, stats[i].Stream)
						return
					}
				}
			}
		}()
	}
	// Creator c takes the keys i with i%creators in {c, c+1}, so each key
	// has two creators; they walk in the same direction and race for it.
	got := make([][]*stream, creators)
	for c := 0; c < creators; c++ {
		got[c] = make([]*stream, distinct)
		creatorsWG.Add(1)
		go func(c int) {
			defer creatorsWG.Done()
			for i := 0; i < distinct; i++ {
				if m := i % creators; m != c && m != (c+1)%creators {
					continue
				}
				st := svc.getOrCreate(key(i))
				// A created stream must be immediately resolvable through
				// the published index.
				if svc.lookup(key(i)) != st {
					t.Errorf("stream %s not resolvable to its creator's pointer right after creation", key(i))
					return
				}
				got[c][i] = st
			}
		}(c)
	}
	// Wait for creators, then stop readers: enumeration correctness is
	// checked throughout, membership at the end.
	creatorsWG.Wait()
	close(stopReaders)
	readersWG.Wait()
	if t.Failed() {
		return
	}

	if got := svc.NumStreams(); got != distinct {
		t.Fatalf("NumStreams = %d, want %d distinct keys", got, distinct)
	}
	if !testing.Short() && len(svc.index.Load().keyParts) <= indexInitialPartitions {
		t.Fatalf("index did not grow: %d partitions with %d streams", len(svc.index.Load().keyParts), distinct)
	}
	for i := 0; i < distinct; i++ {
		st := svc.lookup(key(i))
		for _, c := range []int{i % creators, (i%creators + creators - 1) % creators} {
			if got[c][i] != st || st == nil {
				t.Fatalf("key %q: creator %d holds %p, the index %p", key(i), c, got[c][i], st)
			}
		}
	}
	qs := svc.Queues()
	if len(qs) != distinct {
		t.Fatalf("Queues() returned %d keys, want %d", len(qs), distinct)
	}
	if !sort.StringsAreSorted(qs) {
		t.Fatal("final Queues() not sorted")
	}
	for i, q := range qs {
		if q != key(i) {
			t.Fatalf("Queues()[%d] = %q, want %q", i, q, key(i))
		}
	}
}

// TestIndexGrowth pushes the registry past the growth threshold and checks
// that the partition array actually grew and nothing was lost crossing the
// boundary.
func TestIndexGrowth(t *testing.T) {
	if testing.Short() {
		t.Skip("creates tens of thousands of streams")
	}
	svc := NewService(false, WithSeed(3))
	n := indexMaxLoad*indexInitialPartitions + 500 // just past the first growth
	for i := 0; i < n; i++ {
		svc.getOrCreate(fmt.Sprintf("grow-q%06d", i))
	}
	idx := svc.index.Load()
	if len(idx.keyParts) <= indexInitialPartitions {
		t.Fatalf("index did not grow: %d partitions with %d streams", len(idx.keyParts), n)
	}
	if got := idx.count(); got != n {
		t.Fatalf("index count = %d, want %d", got, n)
	}
	// Spot-check lookups across the whole key space post-growth.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("grow-q%06d", rng.Intn(n))
		if svc.lookup(k) == nil {
			t.Fatalf("key %q unresolvable after growth", k)
		}
	}
	if got := len(svc.Queues()); got != n {
		t.Fatalf("Queues() = %d keys after growth, want %d", got, n)
	}
}

// TestSplitKeyRoundTrip pins the key grammar the queue partitions rely on.
func TestSplitKeyRoundTrip(t *testing.T) {
	svc := NewService(true)
	for _, procs := range []int{1, 4, 8, 32, 128, 1024} {
		key := svc.keyForSlot("normal", svc.slotOf(procs))
		queue, slot, ok := splitKey(key, true)
		if !ok || queue != "normal" || slot != svc.slotOf(procs) {
			t.Errorf("splitKey(%q) = (%q, %d, %v), want (normal, %d, true)", key, queue, slot, ok, svc.slotOf(procs))
		}
	}
	if q, slot, ok := splitKey("plain", false); !ok || q != "plain" || slot != cacheSlotWhole {
		t.Errorf("whole-queue splitKey = (%q, %d, %v)", q, slot, ok)
	}
	if _, _, ok := splitKey("nomarker", true); ok {
		t.Error("splitKey accepted a key without a bucket suffix in by-procs mode")
	}
}
