package ostat

import (
	"math/rand"
	"sort"
	"testing"
)

// reference is a trivially correct order-statistic multiset.
type reference struct {
	values []float64
}

func (r *reference) insert(v float64) {
	i := sort.SearchFloat64s(r.values, v)
	r.values = append(r.values, 0)
	copy(r.values[i+1:], r.values[i:])
	r.values[i] = v
}

func (r *reference) delete(v float64) bool {
	i := sort.SearchFloat64s(r.values, v)
	if i < len(r.values) && r.values[i] == v {
		r.values = append(r.values[:i], r.values[i+1:]...)
		return true
	}
	return false
}

func TestMultisetBasics(t *testing.T) {
	m := New(1)
	if m.Len() != 0 {
		t.Fatal("new multiset not empty")
	}
	if _, ok := m.Select(1); ok {
		t.Fatal("Select on empty should fail")
	}
	for _, v := range []float64{5, 3, 8, 3, 1} {
		m.Insert(v)
	}
	if m.Len() != 5 {
		t.Fatalf("Len = %d", m.Len())
	}
	want := []float64{1, 3, 3, 5, 8}
	for k, w := range want {
		got, ok := m.Select(k + 1)
		if !ok || got != w {
			t.Errorf("Select(%d) = %g ok=%v, want %g", k+1, got, ok, w)
		}
	}
	if _, ok := m.Select(0); ok {
		t.Error("Select(0) should fail")
	}
	if _, ok := m.Select(6); ok {
		t.Error("Select(6) should fail")
	}
	if min, _ := m.Min(); min != 1 {
		t.Error("Min")
	}
	if max, _ := m.Max(); max != 8 {
		t.Error("Max")
	}
	if got := m.Rank(3); got != 1 {
		t.Errorf("Rank(3) = %d, want 1 (strictly less)", got)
	}
	if got := m.Rank(4); got != 3 {
		t.Errorf("Rank(4) = %d, want 3", got)
	}
}

func TestMultisetDelete(t *testing.T) {
	m := New(2)
	for _, v := range []float64{2, 2, 7} {
		m.Insert(v)
	}
	if !m.Delete(2) {
		t.Fatal("Delete(2) failed")
	}
	if m.Len() != 2 {
		t.Fatalf("Len after delete = %d", m.Len())
	}
	if v, _ := m.Select(1); v != 2 {
		t.Errorf("duplicate not retained: %g", v)
	}
	if m.Delete(99) {
		t.Error("Delete of absent value should report false")
	}
	if !m.Delete(2) || !m.Delete(7) {
		t.Fatal("remaining deletes failed")
	}
	if m.Len() != 0 {
		t.Fatal("not empty after deleting everything")
	}
}

func TestMultisetInOrder(t *testing.T) {
	m := New(3)
	vals := []float64{4, 1, 4, 9}
	for _, v := range vals {
		m.Insert(v)
	}
	var walked []float64
	m.InOrder(func(v float64) bool {
		walked = append(walked, v)
		return true
	})
	want := []float64{1, 4, 4, 9}
	if len(walked) != len(want) {
		t.Fatalf("walked %v", walked)
	}
	for i := range want {
		if walked[i] != want[i] {
			t.Fatalf("walked %v, want %v", walked, want)
		}
	}
	// Early stop.
	count := 0
	m.InOrder(func(v float64) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestMultisetAgainstReferenceRandomOps(t *testing.T) {
	m := New(4)
	ref := &reference{}
	rng := rand.New(rand.NewSource(99))
	live := []float64{}
	for op := 0; op < 20000; op++ {
		switch {
		case len(live) == 0 || rng.Float64() < 0.6:
			// Coarse values force duplicate handling.
			v := float64(rng.Intn(200))
			m.Insert(v)
			ref.insert(v)
			live = append(live, v)
		default:
			i := rng.Intn(len(live))
			v := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			g1 := m.Delete(v)
			g2 := ref.delete(v)
			if g1 != g2 {
				t.Fatalf("op %d: Delete(%g) = %v, ref %v", op, v, g1, g2)
			}
		}
		if m.Len() != len(ref.values) {
			t.Fatalf("op %d: Len %d vs %d", op, m.Len(), len(ref.values))
		}
		if m.Len() > 0 {
			k := rng.Intn(m.Len()) + 1
			got, ok := m.Select(k)
			if !ok || got != ref.values[k-1] {
				t.Fatalf("op %d: Select(%d) = %g ok=%v, want %g", op, k, got, ok, ref.values[k-1])
			}
			probe := float64(rng.Intn(220) - 10)
			if got, want := m.Rank(probe), sort.SearchFloat64s(ref.values, probe); got != want {
				t.Fatalf("op %d: Rank(%g) = %d, want %d", op, probe, got, want)
			}
		}
	}
}

func TestMultisetClear(t *testing.T) {
	m := New(5)
	for i := 0; i < 100; i++ {
		m.Insert(float64(i))
	}
	m.Clear()
	if m.Len() != 0 {
		t.Fatal("Clear did not empty the multiset")
	}
	m.Insert(1)
	if v, ok := m.Select(1); !ok || v != 1 {
		t.Fatal("multiset unusable after Clear")
	}
}

func TestMultisetDeterministicStructure(t *testing.T) {
	// Same seed and operations yield identical selections (reproducible
	// evaluation runs depend on this).
	build := func() []float64 {
		m := New(42)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 1000; i++ {
			m.Insert(rng.Float64())
		}
		out := make([]float64, 0, 10)
		for k := 100; k <= 1000; k += 100 {
			v, _ := m.Select(k)
			out = append(out, v)
		}
		return out
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("structure not deterministic")
		}
	}
}

func BenchmarkMultisetInsert(b *testing.B) {
	m := New(1)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Insert(rng.Float64())
	}
}

func BenchmarkMultisetSelect(b *testing.B) {
	m := New(1)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		m.Insert(rng.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Select(95000)
	}
}

// TestArenaGrowsExactly pins the per-stream footprint: a new multiset
// holds one leaf, and inserts grow the arenas only as splits need nodes.
func TestArenaGrowsExactly(t *testing.T) {
	m := New(1)
	if cap(m.leaves) != 1 || cap(m.inners) != 0 {
		t.Fatalf("new multiset reserves %d leaves and %d inner nodes, want 1 and 0", cap(m.leaves), cap(m.inners))
	}
	for i := 0; i < 100; i++ {
		m.Insert(float64(i * 37 % 100)) // 100 distinct values, shuffled
	}
	if len(m.leaves) != 2 || cap(m.leaves) != 2 || cap(m.inners) != 1 {
		t.Fatalf("100 inserts: %d/%d leaves, %d inner nodes reserved, want 2/2 and 1", len(m.leaves), cap(m.leaves), cap(m.inners))
	}
}

// TestZeroValue: the zero Multiset is an empty multiset that holds no
// arena. Reads and deletes on it find nothing, its first Insert allocates
// the root leaf, and a bulk build into it allocates only the arenas the
// build fills.
func TestZeroValue(t *testing.T) {
	var m Multiset
	if _, ok := m.Select(1); ok || m.Len() != 0 || m.Rank(3) != 0 || m.Delete(3) {
		t.Fatal("zero multiset is not empty")
	}
	m.InOrder(func(float64) bool { t.Fatal("zero multiset visited a value"); return false })
	m.Clear()
	if cap(m.leaves) != 0 || cap(m.inners) != 0 {
		t.Fatalf("zero multiset holds %d leaves and %d inner nodes", cap(m.leaves), cap(m.inners))
	}
	m.Insert(3)
	if v, ok := m.Select(1); !ok || v != 3 || cap(m.leaves) != 1 {
		t.Fatalf("first insert: Select(1) = %g/%v with %d leaves", v, ok, cap(m.leaves))
	}
	checkStructure(t, &m, 1)

	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i)
	}
	if raceEnabled {
		return // the race detector adds allocations of its own
	}
	b := new(Multiset)
	if allocs := testing.AllocsPerRun(10, func() {
		*b = Multiset{}
		b.BuildFromSorted(sorted)
	}); allocs != 2 {
		t.Errorf("building 100 values into a zero multiset allocated %.0f times, want 2 (two leaves, one inner node)", allocs)
	}
}

// TestBuildFromSorted checks bulk builds at sizes on both sides of a full
// leaf and a full inner level: the tree holds every value in order, each
// level is spread evenly within the build fill, the arenas hold the nodes
// the build uses and a rebuild into them allocates nothing, and the tree
// keeps working under inserts and deletes afterwards.
func TestBuildFromSorted(t *testing.T) {
	for _, distinct := range []int{0, 1, 56, 57, 100, 56 * 28, 56*28 + 1, 20000} {
		var sorted []float64
		for i := 0; i < distinct; i++ {
			for r := 0; r <= i%3; r++ { // multiplicities 1 to 3
				sorted = append(sorted, float64(i))
			}
		}
		m := New(1)
		m.Insert(-1) // leaves state a build must replace
		m.BuildFromSorted(sorted)
		checkStructure(t, m, len(sorted))
		for k := 1; k <= len(sorted); k += 1 + len(sorted)/500 {
			if v, ok := m.Select(k); !ok || v != sorted[k-1] {
				t.Fatalf("%d distinct: Select(%d) = %g/%v, want %g", distinct, k, v, ok, sorted[k-1])
			}
		}
		wantLeaves := max((distinct+buildLeafFill-1)/buildLeafFill, 1)
		if len(m.leaves) != wantLeaves || len(m.freeLeaf) != 0 {
			t.Fatalf("%d distinct: %d leaves (%d free), want %d", distinct, len(m.leaves), len(m.freeLeaf), wantLeaves)
		}
		for i := range m.leaves {
			if n := m.leaves[i].n; n > buildLeafFill || (distinct > 0 && int(n) < distinct/wantLeaves) {
				t.Fatalf("%d distinct: leaf %d holds %d values", distinct, i, n)
			}
		}
		if allocs := testing.AllocsPerRun(5, func() { m.BuildFromSorted(sorted) }); allocs != 0 {
			t.Errorf("%d distinct: rebuilding into sized arenas allocated %.0f times", distinct, allocs)
		}
		m.Insert(0.5)
		m.Insert(float64(distinct))
		m.Delete(0.5)
		checkStructure(t, m, len(sorted)+1)
	}
}

// TestBuildFromSortedReleasesLargeArenas: BMBP's trim rebuilds a long
// history's multiset from its last few values. The rebuilt tree must not
// keep the long history's arenas (a 10,000-value tree's leaves are about
// 140 KB).
func TestBuildFromSortedReleasesLargeArenas(t *testing.T) {
	m := New(1)
	for i := 0; i < 10000; i++ {
		m.Insert(float64(i * 7919 % 10000))
	}
	short := []float64{1, 2, 3, 5, 8, 13, 21, 34, 55}
	m.BuildFromSorted(short)
	checkStructure(t, m, len(short))
	if cap(m.leaves) > 2*len(m.leaves) || cap(m.inners) > 2*len(m.inners) {
		t.Fatalf("rebuilt %d values into arenas of %d leaves and %d inner nodes", len(short), cap(m.leaves), cap(m.inners))
	}
}
