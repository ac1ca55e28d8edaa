// Package ostat provides an order-statistic multiset of float64 values:
// insert, delete, select-k-th-smallest, and rank, all in O(log n).
//
// BMBP needs, at every refit, the k-th order statistic of a sliding history
// that grows by one wait observation at a time and occasionally shrinks when
// a change point is detected. A sorted slice would make each insertion O(n);
// this structure makes insert, delete, and select all O(log n) and keeps
// full evaluation runs over million-job traces fast.
//
// The implementation is a counted B+-tree rather than a binary tree: leaves
// hold up to 64 distinct (value, multiplicity) entries, inner nodes hold up
// to 32 children with per-child subtree counts, and all nodes live in two
// flat arenas referenced by int32 index. A million-value history is four
// levels deep instead of the ~28 of a balanced binary tree, each level is a
// handful of contiguous cache lines, the arenas contain no pointers for the
// garbage collector to scan, and freed nodes are recycled through free
// lists — so a bounded-history predictor that inserts and deletes in
// lockstep allocates nothing in steady state.
//
// Inner nodes route by a per-child separator that is an upper bound on the
// child's values (exact at split time, possibly stale after deletions, but
// stale-high separators never misroute: a child's values stay <= its
// separator, and its right sibling's values stay greater). Equal values are
// collapsed into one leaf entry, so duplicate runs can never straddle a
// node boundary and routing stays unambiguous.
package ostat

const (
	leafCap  = 64 // distinct values per leaf
	innerCap = 32 // children per inner node
)

type leafNode struct {
	n      int32
	vals   [leafCap]float64
	counts [leafCap]int32
}

type innerNode struct {
	n    int32
	kids [innerCap]int32
	size [innerCap]int32   // total multiplicity in each child's subtree
	sep  [innerCap]float64 // upper bound on each child's values
}

// Multiset is an order-statistic multiset of float64 values. The zero value
// is not ready to use; construct with New.
type Multiset struct {
	leaves []leafNode
	inners []innerNode
	root   int32 // leaf index when height == 1, else inner index
	height int32 // levels including the leaf level
	total  int   // values, counting multiplicity

	freeLeaf  []int32
	freeInner []int32

	pathNode []int32 // reusable descent stacks
	pathPos  []int32
}

// New returns an empty Multiset. The structure is fully deterministic —
// identical operation sequences yield identical trees — so runs are
// reproducible; the seed parameter is retained for compatibility with the
// earlier randomized-treap implementation and is unused.
//
// The leaf arena starts at exactly one leaf and both arenas grow by append
// as splits need nodes: a 776-byte leaf holds up to 64 distinct values, so
// a typical serving-plane history of a few hundred waits fills one to a
// handful of leaves, and a registry of millions of streams pays for the
// leaves its histories occupy rather than a fixed reservation per stream.
func New(seed int64) *Multiset {
	return &Multiset{leaves: make([]leafNode, 1), height: 1}
}

// Len returns the number of values in the multiset, counting multiplicity.
func (m *Multiset) Len() int { return m.total }

// Clear empties the multiset, retaining arena capacity.
func (m *Multiset) Clear() {
	m.leaves = m.leaves[:1]
	m.leaves[0] = leafNode{}
	m.inners = m.inners[:0]
	m.freeLeaf = m.freeLeaf[:0]
	m.freeInner = m.freeInner[:0]
	m.root, m.height, m.total = 0, 1, 0
}

func (m *Multiset) allocLeaf() int32 {
	if n := len(m.freeLeaf); n > 0 {
		i := m.freeLeaf[n-1]
		m.freeLeaf = m.freeLeaf[:n-1]
		m.leaves[i] = leafNode{}
		return i
	}
	m.leaves = append(m.leaves, leafNode{})
	return int32(len(m.leaves) - 1)
}

func (m *Multiset) allocInner() int32 {
	if n := len(m.freeInner); n > 0 {
		i := m.freeInner[n-1]
		m.freeInner = m.freeInner[:n-1]
		m.inners[i] = innerNode{}
		return i
	}
	m.inners = append(m.inners, innerNode{})
	return int32(len(m.inners) - 1)
}

// route returns the index of the child an operation on value v descends
// into: the first child whose separator admits v, clamped to the last
// child when v exceeds every separator.
func (in *innerNode) route(v float64) int32 {
	lo, hi := int32(0), in.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if in.sep[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leafSearch returns the first entry index with vals[j] >= v.
func (lf *leafNode) search(v float64) int32 {
	lo, hi := int32(0), lf.n
	for lo < hi {
		mid := (lo + hi) / 2
		if lf.vals[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (lf *leafNode) sum() int32 {
	var s int32
	for j := int32(0); j < lf.n; j++ {
		s += lf.counts[j]
	}
	return s
}

func (in *innerNode) sum() int32 {
	var s int32
	for i := int32(0); i < in.n; i++ {
		s += in.size[i]
	}
	return s
}

// Insert adds value to the multiset. The descent is iterative: per-child
// subtree counts are bumped on the way down, duplicate values collapse into
// an existing leaf entry, and the rare full-leaf case splits upward along a
// reusable path stack.
func (m *Multiset) Insert(value float64) {
	m.total++
	pn, pp := m.pathNode[:0], m.pathPos[:0]
	node := m.root
	for lvl := m.height; lvl > 1; lvl-- {
		in := &m.inners[node]
		i := in.route(value)
		if value > in.sep[i] {
			in.sep[i] = value // only possible at the last child
		}
		in.size[i]++
		pn, pp = append(pn, node), append(pp, i)
		node = in.kids[i]
	}
	lf := &m.leaves[node]
	j := lf.search(value)
	if j < lf.n && lf.vals[j] == value {
		lf.counts[j]++
		m.pathNode, m.pathPos = pn, pp
		return
	}
	if lf.n < leafCap {
		copy(lf.vals[j+1:lf.n+1], lf.vals[j:lf.n])
		copy(lf.counts[j+1:lf.n+1], lf.counts[j:lf.n])
		lf.vals[j], lf.counts[j] = value, 1
		lf.n++
		m.pathNode, m.pathPos = pn, pp
		return
	}

	// Split the full leaf and push the new right sibling up the path.
	rightIdx := m.allocLeaf()
	lf = &m.leaves[node]
	right := &m.leaves[rightIdx]
	const half = leafCap / 2
	copy(right.vals[:leafCap-half], lf.vals[half:])
	copy(right.counts[:leafCap-half], lf.counts[half:])
	lf.n, right.n = half, leafCap-half
	if j <= half {
		copy(lf.vals[j+1:lf.n+1], lf.vals[j:lf.n])
		copy(lf.counts[j+1:lf.n+1], lf.counts[j:lf.n])
		lf.vals[j], lf.counts[j] = value, 1
		lf.n++
	} else {
		j -= half
		copy(right.vals[j+1:right.n+1], right.vals[j:right.n])
		copy(right.counts[j+1:right.n+1], right.counts[j:right.n])
		right.vals[j], right.counts[j] = value, 1
		right.n++
	}
	m.splitUp(pn, pp, node, rightIdx, lf.vals[lf.n-1], lf.sum(), right.vals[right.n-1], right.sum())
	m.pathNode, m.pathPos = pn, pp
}

// splitUp records that the child at the bottom of path (pn, pp) split into
// left (the original index) and carry (its new right sibling), then inserts
// carry into the parent, splitting upward as needed. leftSep/leftSize and
// carrySep/carrySize describe the two halves.
func (m *Multiset) splitUp(pn, pp []int32, left, carry int32, leftSep float64, leftSize int32, carrySep float64, carrySize int32) {
	for d := len(pn) - 1; ; d-- {
		if d < 0 {
			rootIdx := m.allocInner()
			r := &m.inners[rootIdx]
			r.n = 2
			r.kids[0], r.kids[1] = left, carry
			r.size[0], r.size[1] = leftSize, carrySize
			r.sep[0], r.sep[1] = leftSep, carrySep
			m.root = rootIdx
			m.height++
			return
		}
		p, pos := pn[d], pp[d]
		in := &m.inners[p]
		in.sep[pos], in.size[pos] = leftSep, leftSize
		if in.n < innerCap {
			copy(in.kids[pos+2:in.n+1], in.kids[pos+1:in.n])
			copy(in.size[pos+2:in.n+1], in.size[pos+1:in.n])
			copy(in.sep[pos+2:in.n+1], in.sep[pos+1:in.n])
			in.kids[pos+1], in.size[pos+1], in.sep[pos+1] = carry, carrySize, carrySep
			in.n++
			return
		}
		// Parent full: split it and keep carrying.
		qIdx := m.allocInner()
		in = &m.inners[p]
		q := &m.inners[qIdx]
		const ihalf = innerCap / 2
		copy(q.kids[:innerCap-ihalf], in.kids[ihalf:])
		copy(q.size[:innerCap-ihalf], in.size[ihalf:])
		copy(q.sep[:innerCap-ihalf], in.sep[ihalf:])
		in.n, q.n = ihalf, innerCap-ihalf
		dst := in
		at := pos + 1
		if at > ihalf {
			dst, at = q, at-ihalf
		}
		copy(dst.kids[at+1:dst.n+1], dst.kids[at:dst.n])
		copy(dst.size[at+1:dst.n+1], dst.size[at:dst.n])
		copy(dst.sep[at+1:dst.n+1], dst.sep[at:dst.n])
		dst.kids[at], dst.size[at], dst.sep[at] = carry, carrySize, carrySep
		dst.n++
		left, carry = p, qIdx
		leftSep, carrySep = in.sep[in.n-1], q.sep[q.n-1]
		leftSize, carrySize = in.sum(), q.sum()
	}
}

// Delete removes one instance of value from the multiset and reports
// whether the value was present. Emptied nodes are unlinked and recycled;
// partially drained nodes are left as-is (relaxed deletion), which keeps
// deletes cheap without hurting the logarithmic bounds in practice.
func (m *Multiset) Delete(value float64) bool {
	pn, pp := m.pathNode[:0], m.pathPos[:0]
	node := m.root
	for lvl := m.height; lvl > 1; lvl-- {
		in := &m.inners[node]
		i := in.route(value)
		if value > in.sep[i] {
			m.pathNode, m.pathPos = pn, pp
			return false
		}
		pn, pp = append(pn, node), append(pp, i)
		node = in.kids[i]
	}
	lf := &m.leaves[node]
	j := lf.search(value)
	m.pathNode, m.pathPos = pn, pp
	if j >= lf.n || lf.vals[j] != value {
		return false
	}
	m.total--
	for d := range pn {
		m.inners[pn[d]].size[pp[d]]--
	}
	if lf.counts[j] > 1 {
		lf.counts[j]--
		return true
	}
	copy(lf.vals[j:lf.n-1], lf.vals[j+1:lf.n])
	copy(lf.counts[j:lf.n-1], lf.counts[j+1:lf.n])
	lf.n--
	if lf.n > 0 {
		return true
	}

	// Unlink the emptied leaf, cascading through emptied ancestors.
	m.freeLeaf = append(m.freeLeaf, node)
	d := len(pn) - 1
	for d >= 0 {
		in := &m.inners[pn[d]]
		pos := pp[d]
		copy(in.kids[pos:in.n-1], in.kids[pos+1:in.n])
		copy(in.size[pos:in.n-1], in.size[pos+1:in.n])
		copy(in.sep[pos:in.n-1], in.sep[pos+1:in.n])
		in.n--
		if in.n > 0 {
			break
		}
		m.freeInner = append(m.freeInner, pn[d])
		d--
	}
	if d < 0 {
		// Every node emptied: reset to a single empty leaf root.
		m.leaves = m.leaves[:1]
		m.leaves[0] = leafNode{}
		m.inners = m.inners[:0]
		m.freeLeaf = m.freeLeaf[:0]
		m.freeInner = m.freeInner[:0]
		m.root, m.height = 0, 1
		return true
	}
	// Collapse single-child root levels.
	for m.height > 1 {
		in := &m.inners[m.root]
		if in.n > 1 {
			break
		}
		m.freeInner = append(m.freeInner, m.root)
		m.root = in.kids[0]
		m.height--
	}
	return true
}

// Select returns the k-th smallest value (1-based, counting multiplicity)
// and ok=false when k is out of range [1, Len()].
func (m *Multiset) Select(k int) (float64, bool) {
	if k < 1 || k > m.total {
		return 0, false
	}
	kk := int32(k)
	node := m.root
	for lvl := m.height; lvl > 1; lvl-- {
		in := &m.inners[node]
		i := int32(0)
		for kk > in.size[i] {
			kk -= in.size[i]
			i++
		}
		node = in.kids[i]
	}
	lf := &m.leaves[node]
	j := int32(0)
	for kk > lf.counts[j] {
		kk -= lf.counts[j]
		j++
	}
	return lf.vals[j], true
}

// Rank returns the number of values strictly less than value.
func (m *Multiset) Rank(value float64) int {
	var rank int32
	node := m.root
	for lvl := m.height; lvl > 1; lvl-- {
		in := &m.inners[node]
		i := in.route(value)
		for c := int32(0); c < i; c++ {
			rank += in.size[c]
		}
		if value > in.sep[i] {
			// Greater than this whole subtree: everything under it counts.
			return int(rank + in.size[i])
		}
		node = in.kids[i]
	}
	lf := &m.leaves[node]
	j := lf.search(value)
	for c := int32(0); c < j; c++ {
		rank += lf.counts[c]
	}
	return int(rank)
}

// Min returns the smallest value; ok is false when empty.
func (m *Multiset) Min() (float64, bool) { return m.Select(1) }

// Max returns the largest value; ok is false when empty.
func (m *Multiset) Max() (float64, bool) { return m.Select(m.Len()) }

// BuildFromSorted replaces the multiset's contents with the given
// ascending-sorted values in O(n), versus O(n log n) for n repeated
// Inserts. It is what BMBP's change-point trim and serialized-state restore
// use. Leaves are packed to three quarters full so a freshly built tree has
// headroom before its first splits.
func (m *Multiset) BuildFromSorted(sorted []float64) {
	m.Clear()
	if len(sorted) == 0 {
		return
	}
	m.total = len(sorted)
	const fill = leafCap * 3 / 4

	// Pack distinct values into leaves left to right.
	kids := m.pathNode[:0] // reuse as the per-level child list
	var sums []int32
	var seps []float64
	cur := int32(0) // Clear left leaf 0 as the empty root
	lf := &m.leaves[cur]
	var prev float64
	for i, v := range sorted {
		if i > 0 && v < prev {
			panic("ostat: BuildFromSorted input not ascending")
		}
		if i > 0 && v == prev {
			lf.counts[lf.n-1]++
			continue
		}
		prev = v
		if lf.n == fill {
			kids = append(kids, cur)
			sums = append(sums, lf.sum())
			seps = append(seps, lf.vals[lf.n-1])
			cur = m.allocLeaf()
			lf = &m.leaves[cur]
		}
		lf.vals[lf.n], lf.counts[lf.n] = v, 1
		lf.n++
	}
	kids = append(kids, cur)
	sums = append(sums, lf.sum())
	seps = append(seps, lf.vals[lf.n-1])

	// Build inner levels bottom-up until one root remains.
	const ifill = innerCap * 3 / 4
	for len(kids) > 1 {
		var upKids []int32
		var upSums []int32
		var upSeps []float64
		for at := 0; at < len(kids); {
			w := len(kids) - at
			if w > ifill {
				w = ifill
			}
			idx := m.allocInner()
			in := &m.inners[idx]
			in.n = int32(w)
			var total int32
			for c := 0; c < w; c++ {
				in.kids[c] = kids[at+c]
				in.size[c] = sums[at+c]
				in.sep[c] = seps[at+c]
				total += sums[at+c]
			}
			upKids = append(upKids, idx)
			upSums = append(upSums, total)
			upSeps = append(upSeps, in.sep[in.n-1])
			at += w
		}
		kids, sums, seps = upKids, upSums, upSeps
		m.height++
	}
	m.root = kids[0]
	m.pathNode = m.pathNode[:0]
}

// InOrder calls fn for each value in ascending order (repeated values are
// visited once per multiplicity); fn returning false stops the walk early.
func (m *Multiset) InOrder(fn func(v float64) bool) {
	m.inOrder(m.root, m.height, fn)
}

func (m *Multiset) inOrder(node, lvl int32, fn func(v float64) bool) bool {
	if lvl > 1 {
		in := &m.inners[node]
		for i := int32(0); i < in.n; i++ {
			if !m.inOrder(in.kids[i], lvl-1, fn) {
				return false
			}
		}
		return true
	}
	lf := &m.leaves[node]
	for j := int32(0); j < lf.n; j++ {
		for c := int32(0); c < lf.counts[j]; c++ {
			if !fn(lf.vals[j]) {
				return false
			}
		}
	}
	return true
}
