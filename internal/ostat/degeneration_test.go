package ostat

import (
	"math/rand"
	"testing"
	"time"
)

// Regression test: the structure must not degenerate for any seed or input
// pattern. (The original randomized-treap implementation collapsed into a
// linked list when its priority stream correlated with the inserted values;
// the counted B+-tree is deterministic, but this guards its balance
// invariants — uniform leaf depth, bounded height — under both random and
// adversarially sorted input.)
func TestNoDegeneration(t *testing.T) {
	for _, seed := range []int64{0, 1, 42} {
		for _, sortedInput := range []bool{false, true} {
			m := New(seed)
			rng := rand.New(rand.NewSource(seed))
			start := time.Now()
			const n = 50000
			for i := 0; i < n; i++ {
				v := rng.Float64()
				if sortedInput {
					v = float64(i) // ascending worst case for naive BSTs
				}
				m.Insert(v)
			}
			elapsed := time.Since(start)
			if m.Len() != n {
				t.Fatalf("len = %d", m.Len())
			}
			// 50k inserts complete in well under a second even on one slow
			// core; a degenerated structure takes minutes.
			if elapsed > 5*time.Second {
				t.Fatalf("seed %d sorted=%v: %d inserts took %v — degenerated", seed, sortedInput, n, elapsed)
			}
			// Structural check: height stays logarithmic. 50k distinct
			// values at half-full fanout need at most 4 levels; 8 leaves
			// enormous slack.
			if m.height > 8 {
				t.Fatalf("seed %d sorted=%v: height %d — degenerated", seed, sortedInput, m.height)
			}
		}
	}
}

// TestStructuralInvariants checks the B+-tree bookkeeping wholesale after a
// mixed workload: sizes sum correctly at every level, separators bound
// their subtrees, leaf entries stay sorted and positive, and all leaves sit
// at the same depth.
func TestStructuralInvariants(t *testing.T) {
	m := New(11)
	rng := rand.New(rand.NewSource(11))
	live := []float64{}
	for op := 0; op < 30000; op++ {
		if len(live) == 0 || rng.Float64() < 0.55 {
			v := float64(rng.Intn(500))
			m.Insert(v)
			live = append(live, v)
		} else {
			i := rng.Intn(len(live))
			v := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if !m.Delete(v) {
				t.Fatalf("op %d: Delete(%g) failed", op, v)
			}
		}
	}
	checkStructure(t, m, len(live))
	// Separator bounds: every value reachable is <= the root's last sep.
	max, _ := m.Max()
	probe := max + 1
	if got := m.Rank(probe); got != m.Len() {
		t.Fatalf("Rank above max = %d, want %d", got, m.Len())
	}
}

// checkStructure walks the whole tree: sizes sum correctly at every level,
// separators increase, leaf entries stay sorted and positive, all leaves
// sit at the same depth, and the tree holds live values.
func checkStructure(t *testing.T, m *Multiset, live int) {
	t.Helper()
	var walk func(node, lvl int32) (count int32, depth int32)
	walk = func(node, lvl int32) (int32, int32) {
		if lvl > 1 {
			in := &m.inners[node]
			if in.n < 1 || in.n > innerCap {
				t.Fatalf("inner width %d", in.n)
			}
			var total int32
			var depth int32 = -1
			for i := int32(0); i < in.n; i++ {
				c, d := walk(in.kids[i], lvl-1)
				if c != in.size[i] {
					t.Fatalf("size[%d] = %d, subtree has %d", i, in.size[i], c)
				}
				if i > 0 && in.sep[i-1] >= in.sep[i] {
					t.Fatalf("separators not increasing: %g >= %g", in.sep[i-1], in.sep[i])
				}
				if depth != -1 && d != depth {
					t.Fatalf("leaves at mixed depths %d vs %d", d, depth)
				}
				depth = d
				total += c
			}
			return total, depth + 1
		}
		lf := &m.leaves[node]
		if lf.n < 1 || lf.n > leafCap {
			t.Fatalf("leaf width %d", lf.n)
		}
		var total int32
		for j := int32(0); j < lf.n; j++ {
			if j > 0 && lf.vals[j-1] >= lf.vals[j] {
				t.Fatalf("leaf values not increasing")
			}
			if lf.counts[j] < 1 {
				t.Fatalf("nonpositive count %d", lf.counts[j])
			}
			total += lf.counts[j]
		}
		return total, 1
	}
	if m.Len() > 0 {
		count, _ := walk(m.root, m.height)
		if int(count) != m.Len() {
			t.Fatalf("walked %d values, Len() = %d", count, m.Len())
		}
		if int(count) != live {
			t.Fatalf("walked %d values, expected %d live", count, live)
		}
	}
}
