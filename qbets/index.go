package qbets

import (
	"hash/maphash"
	"maps"
	"slices"
	"sync/atomic"
)

// The stream index is the service's one stream registry: it resolves a
// stream key (or a (queue, slot) shape) to its *stream with one or two
// atomic loads and a map probe, no locks. Through PR 5 it was a single
// immutable map rebuilt wholesale on every stream creation — O(total
// streams) per create, quadratic under stream-creation churn and hopeless
// at the million-stream scale the ROADMAP targets. It is now a two-level
// copy-on-write structure:
//
//   - the root (streamIndex) is an immutable array of partition slots,
//     swapped wholesale only when the partition count changes (growth or
//     wholesale restore);
//   - each slot holds an atomic pointer to an immutable partition — a
//     small map plus, for key partitions, a sorted key list. Creating a
//     stream clones and republishes only the one key partition and one
//     queue partition the new stream hashes into, O(partition load)
//     instead of O(total streams).
//
// Partition count doubles (well, quadruples) once the average load passes
// indexMaxLoad, amortizing growth rebuilds to O(1) per create. Sorted
// enumeration (Queues, Stats, /v1/status) k-way merges the per-partition
// sorted key lists at read time; each key belongs to exactly one partition
// of a given root, so the merge yields every key exactly once, in order.
//
// Readers and writers resolve keys through the same lock-free probe.
// Creation, growth and wholesale restore mutate the index under indexMu;
// saves, catch-up snapshots and eviction passes walk it.
const (
	// indexInitialPartitions is the partition count an empty service
	// starts with; must be a power of two.
	indexInitialPartitions = 256
	// indexMaxLoad is the average streams-per-partition that triggers
	// growth. It bounds the clone cost of a create: one map copy of about
	// this many entries.
	indexMaxLoad = 128
	// indexGrowthLoad is the average load a growth rebuild targets (a
	// quarter of the trigger), so consecutive growths are geometric and
	// their total cost stays linear in streams created.
	indexGrowthLoad = indexMaxLoad / 4
)

// keyPartition is one immutable slice of the key registry: the streams
// whose key hashes into this partition, plus their keys in sorted order.
type keyPartition struct {
	byKey map[string]*stream
	keys  []string
}

// queueEntry is one slot of a queuePartition's open-addressed table.
// arr == nil marks an empty slot (a present queue always has an array).
type queueEntry struct {
	hash  uint32
	queue string
	arr   *[cacheSlotWhole + 1]*stream
}

// queuePartition is one immutable slice of the (queue, slot) registry: a
// small open-addressed table probed with the same hash that selected the
// partition, so the forecast/ingest hot path hashes the queue exactly
// once. (A Go map here would rehash the key internally — profiled at a
// third of end-to-end forecast latency.) The per-queue slot arrays are
// immutable too: an insert clones the array before republishing, so a
// reader holding yesterday's pointer never sees a slot change under it.
type queuePartition struct {
	n    int
	mask uint32 // len(tab) - 1; table is power-of-two sized at load <= 0.5
	tab  []queueEntry
}

// lookup probes for a queue. Slot selection uses the hash's top half —
// every entry in this partition shares the low bits that routed it here,
// so the top bits are what still discriminate.
func (p *queuePartition) lookup(queue string, h uint32) *[cacheSlotWhole + 1]*stream {
	for i := (h >> 16) & p.mask; ; i = (i + 1) & p.mask {
		e := &p.tab[i]
		if e.arr == nil {
			return nil
		}
		if e.hash == h && e.queue == queue {
			return e.arr
		}
	}
}

// buildQueuePartition freezes a queue→slots map into the immutable probe
// table (load factor <= 0.5, linear probing).
func buildQueuePartition(m map[string]*[cacheSlotWhole + 1]*stream) *queuePartition {
	size := 4
	for size < 2*len(m) {
		size *= 2
	}
	p := &queuePartition{n: len(m), mask: uint32(size - 1), tab: make([]queueEntry, size)}
	for q, arr := range m {
		h := keyHash(q)
		i := (h >> 16) & p.mask
		for p.tab[i].arr != nil {
			i = (i + 1) & p.mask
		}
		p.tab[i] = queueEntry{hash: h, queue: q, arr: arr}
	}
	return p
}

// cloneInsert freezes a successor partition with queue's slot array set to
// arr. No scratch map and no rehashing: entries carry their hashes, so the
// clone (or a grow) is one pass of probe-inserts. Safe on a nil receiver
// (an empty slot).
func (p *queuePartition) cloneInsert(queue string, h uint32, arr *[cacheSlotWhole + 1]*stream) *queuePartition {
	n := 1
	if p != nil {
		n = p.n + 1
		if p.lookup(queue, h) != nil {
			n = p.n
		}
	}
	size := 4
	for size < 2*n {
		size *= 2
	}
	nq := &queuePartition{n: n, mask: uint32(size - 1), tab: make([]queueEntry, size)}
	ins := func(e queueEntry) {
		i := (e.hash >> 16) & nq.mask
		for nq.tab[i].arr != nil {
			i = (i + 1) & nq.mask
		}
		nq.tab[i] = e
	}
	if p != nil {
		for i := range p.tab {
			if e := p.tab[i]; e.arr != nil && (e.hash != h || e.queue != queue) {
				ins(e)
			}
		}
	}
	ins(queueEntry{hash: h, queue: queue, arr: arr})
	return nq
}

// streamIndex is one immutable root of the partitioned registry, published
// via Service.index. The partition slots themselves are atomic pointers:
// an insert republishes a single partition in place of its predecessor
// without touching the root. Once a new root is published (growth,
// restore), the old root's slots are never written again.
type streamIndex struct {
	mask       uint32
	keyParts   []atomic.Pointer[keyPartition]
	queueParts []atomic.Pointer[queuePartition]
}

func newStreamIndex(parts int) *streamIndex {
	return &streamIndex{
		mask:       uint32(parts - 1),
		keyParts:   make([]atomic.Pointer[keyPartition], parts),
		queueParts: make([]atomic.Pointer[queuePartition], parts),
	}
}

// hashSeed makes key hashes process-local; nothing on disk or on the wire
// depends on placement (the sharded state loader reads every shard file),
// so a fresh seed per process is free hash-flooding resistance.
var hashSeed = maphash.MakeSeed()

// keyHash is the hash shared by index partitions, state-shard placement
// and RecoverWAL's worker choice. It is the runtime's string hash
// (hardware-accelerated, O(1)-ish for short keys) — a byte-serial FNV
// here costs more than the map probe it routes.
func keyHash(s string) uint32 {
	return uint32(maphash.String(hashSeed, s))
}

// lookupKey resolves a full stream key; nil partition means empty.
func (idx *streamIndex) lookupKey(key string) *stream {
	p := idx.keyParts[keyHash(key)&idx.mask].Load()
	if p == nil {
		return nil
	}
	return p.byKey[key]
}

// lookupQueue resolves a queue to its slot array (the ingest and forecast
// hot path: one hash, one atomic root load, one atomic partition load, one
// open-addressed probe).
func (idx *streamIndex) lookupQueue(queue string) *[cacheSlotWhole + 1]*stream {
	h := keyHash(queue)
	p := idx.queueParts[h&idx.mask].Load()
	if p == nil {
		return nil
	}
	return p.lookup(queue, h)
}

// count sums the partition sizes (the root is immutable but its partitions
// advance, so this is a point-in-time reading, like everything else here).
func (idx *streamIndex) count() int {
	n := 0
	for i := range idx.keyParts {
		if p := idx.keyParts[i].Load(); p != nil {
			n += len(p.keys)
		}
	}
	return n
}

// indexCursor is one partition's position in the enumeration merge.
type indexCursor struct {
	p *keyPartition
	i int
}

// forEachOrdered calls fn for every (key, stream) in ascending key order,
// k-way merging the per-partition sorted key lists through a binary heap.
// fn returning false stops the walk early (the limit path of /v1/status).
// Partition pointers are loaded once up front, so the walk sees a
// consistent snapshot of each partition; a concurrent insert is either
// wholly visible or wholly invisible, exactly like the pre-partitioned
// index's rebuild race.
func (idx *streamIndex) forEachOrdered(fn func(key string, st *stream) bool) {
	h := make([]indexCursor, 0, len(idx.keyParts))
	for i := range idx.keyParts {
		if p := idx.keyParts[i].Load(); p != nil && len(p.keys) > 0 {
			h = append(h, indexCursor{p: p})
		}
	}
	cursorLess := func(a, b indexCursor) bool {
		return a.p.keys[a.i] < b.p.keys[b.i]
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < len(h) && cursorLess(h[l], h[min]) {
				min = l
			}
			if r < len(h) && cursorLess(h[r], h[min]) {
				min = r
			}
			if min == i {
				return
			}
			h[i], h[min] = h[min], h[i]
			i = min
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for len(h) > 0 {
		c := &h[0]
		k := c.p.keys[c.i]
		if !fn(k, c.p.byKey[k]) {
			return
		}
		c.i++
		if c.i == len(c.p.keys) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(0)
	}
}

// forEach calls fn for every (key, stream) in no particular order: the
// walk for passes that visit every stream once (eviction scans, growth
// rebuilds) and need no order.
func (idx *streamIndex) forEach(fn func(key string, st *stream)) {
	for i := range idx.keyParts {
		if p := idx.keyParts[i].Load(); p != nil {
			for k, st := range p.byKey {
				fn(k, st)
			}
		}
	}
}

// indexInsertLocked makes one newly created stream visible to lock-free
// readers by cloning and republishing the two partitions it hashes into.
// The caller holds indexMu, which serializes all index mutation, so
// clone-and-swap never loses a concurrent insert. When the average load
// then crosses indexMaxLoad the whole index is rebuilt at a larger
// partition count from the index just published.
func (s *Service) indexInsertLocked(key string, st *stream) {
	idx := s.index.Load()
	slot := keyHash(key) & idx.mask
	old := idx.keyParts[slot].Load()
	kp := &keyPartition{}
	if old != nil {
		kp.byKey = maps.Clone(old.byKey)
		kp.keys = make([]string, len(old.keys), len(old.keys)+1)
		copy(kp.keys, old.keys)
	} else {
		kp.byKey = make(map[string]*stream, 1)
	}
	kp.byKey[key] = st
	at, _ := slices.BinarySearch(kp.keys, key)
	kp.keys = slices.Insert(kp.keys, at, key)
	idx.keyParts[slot].Store(kp)
	s.indexRebuilds.Inc()

	if queue, qslot, ok := splitKey(key, s.byProcs.Load()); ok {
		h := keyHash(queue)
		qslotIdx := h & idx.mask
		oldq := idx.queueParts[qslotIdx].Load()
		var arr [cacheSlotWhole + 1]*stream
		if oldq != nil {
			if prev := oldq.lookup(queue, h); prev != nil {
				arr = *prev
			}
		}
		arr[qslot] = st
		idx.queueParts[qslotIdx].Store(oldq.cloneInsert(queue, h, &arr))
		s.indexRebuilds.Inc()
	}
	if int(s.nStreams.Load()) > indexMaxLoad*len(idx.keyParts) {
		s.rebuildIndexLocked(idx.forEach)
	}
}

// rebuildIndexLocked builds and publishes a fresh root sized for the
// current stream count, holding the streams each yields: the current
// index's on growth, a restored set in replaceStreams. Caller holds
// indexMu. O(n) — paid once per restore and amortized O(1) per create
// across growths.
func (s *Service) rebuildIndexLocked(each func(fn func(key string, st *stream))) {
	n := int(s.nStreams.Load())
	parts := indexInitialPartitions
	for parts*indexGrowthLoad < n {
		parts *= 2
	}
	idx := newStreamIndex(parts)
	byProcs := s.byProcs.Load()
	// Queue tables are accumulated in mutable scratch maps and frozen into
	// probe tables at the end; key partitions are built in place (the root
	// is unpublished, so direct mutation is safe) and sorted once.
	tmpQ := make([]map[string]*[cacheSlotWhole + 1]*stream, parts)
	each(func(k string, st *stream) {
		slot := keyHash(k) & idx.mask
		kp := idx.keyParts[slot].Load()
		if kp == nil {
			kp = &keyPartition{byKey: make(map[string]*stream)}
			idx.keyParts[slot].Store(kp)
		}
		kp.byKey[k] = st
		kp.keys = append(kp.keys, k)
		queue, qslot, ok := splitKey(k, byProcs)
		if !ok {
			// A key that does not parse under the current routing mode
			// (e.g. restored from a blob written in the other mode) is
			// unreachable through the (queue, procs) APIs but stays
			// listed in Queues/Stats via the key partitions.
			return
		}
		qslotIdx := keyHash(queue) & idx.mask
		m := tmpQ[qslotIdx]
		if m == nil {
			m = make(map[string]*[cacheSlotWhole + 1]*stream)
			tmpQ[qslotIdx] = m
		}
		arr := m[queue]
		if arr == nil {
			arr = new([cacheSlotWhole + 1]*stream)
			m[queue] = arr
		}
		arr[qslot] = st
	})
	for i := range idx.keyParts {
		if p := idx.keyParts[i].Load(); p != nil {
			slices.Sort(p.keys)
		}
	}
	for i, m := range tmpQ {
		if m != nil {
			idx.queueParts[i].Store(buildQueuePartition(m))
		}
	}
	s.indexRebuilds.Add(uint64(parts))
	s.index.Store(idx)
}
