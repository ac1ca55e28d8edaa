package repl

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/wal"
)

// batchCache is the frame-once/ship-many core of the leader: every
// follower session at the same log cursor shares one immutable frame
// buffer, so the WAL tail read and its per-frame CRC checks run once per
// batch regardless of follower count. The buffer holds the log's own
// frames, copied as the tail reader validated them: no key is decoded
// and no frame re-encoded on the leader.
//
// An entry's identity is the (afterSeq, uptoSeq) pair it was produced
// for: afterSeq is the cursor it extends and uptoSeq the durability
// watermark it was read against. Entries are indexed by afterSeq alone,
// and a later request at the same cursor reuses the entry even if it
// sampled a different watermark — safe in both directions, because the
// watermark is monotone: every framed record was at or below a real
// watermark when the entry was built, so it is durable for any requester,
// and a requester whose newer watermark covers more records simply picks
// them up at the next cursor position.
//
// The cache also owns the TailReaders. After building the entry for
// cursor A ending at sequence L, the reader that produced it is re-keyed
// at L, so a group of followers advancing together drives one reader
// forward instead of re-opening and re-scanning segment files per batch.
//
// Entries are refcounted: a session holds a reference across its Send so
// eviction can never recycle a buffer on the wire. Buffers are recycled
// through a sync.Pool once an evicted entry's last reference drops.
type batchCache struct {
	w *wal.WAL

	// mu serializes lookups and production. Holding it across the WAL
	// tail read is what gives same-cursor requests single-flight: the
	// second session at a cursor blocks briefly and then hits.
	mu      sync.Mutex
	entries map[uint64]*cachedBatch
	order   []*cachedBatch // insertion order, for FIFO eviction
	starts  []uint64       // sorted entry start cursors, for re-alignment
	bytes   int

	readers map[uint64]*wal.TailReader // pooled readers keyed by cursor

	maxEntries int
	maxBytes   int
	maxReaders int

	bufs sync.Pool // *[]byte frame buffers

	hits   atomic.Uint64
	misses atomic.Uint64
}

type cachedBatch struct {
	prevSeq uint64 // cursor this batch extends
	lastSeq uint64 // highest sequence framed
	uptoSeq uint64 // durability watermark at build time
	frames  []byte // the log's frames for (prevSeq, lastSeq]; immutable once published
	count   int

	// refs and evicted are guarded by batchCache.mu. The buffer is
	// recycled when an evicted entry's refcount reaches zero.
	refs    int
	evicted bool
}

// The capacity bounds trade leader memory for lag tolerance: a follower
// whose cursor trails the leading session by more than the cached window
// stops hitting and re-frames its own batch chain — and once its batch
// boundaries diverge, it cannot rejoin the shared chain until it catches
// back up to cached entries. The defaults cover roughly half a million
// records of lag (~1024 batches of 512) within a bounded frame budget.
const (
	defaultCacheEntries = 1024
	defaultCacheBytes   = 32 << 20
	defaultCacheReaders = 16
)

func newBatchCache(w *wal.WAL) *batchCache {
	return &batchCache{
		w:          w,
		entries:    make(map[uint64]*cachedBatch),
		readers:    make(map[uint64]*wal.TailReader),
		maxEntries: defaultCacheEntries,
		maxBytes:   defaultCacheBytes,
		maxReaders: defaultCacheReaders,
	}
}

// get returns the batch extending afterSeq, building it on miss. A nil
// entry with gap=false means nothing new is durable past the cursor yet.
// gap=true means the log was compacted past the cursor — the caller must
// fall back to a snapshot. The caller owns one reference on a returned
// entry and must release it after the send.
func (c *batchCache) get(afterSeq, uptoSeq uint64, max int) (e *cachedBatch, gap bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[afterSeq]; e != nil {
		c.hits.Add(1)
		e.refs++
		return e, false, nil
	}
	c.misses.Add(1)
	// Re-alignment: a cursor that fell off the shared batch chain (its
	// last batch ended where no entry starts) reads only up to the next
	// cached boundary, so this one unshared partial batch lands it exactly
	// on the chain and everything after is a hit. Without this, a session
	// that diverges once builds private, never-shared batches until it
	// overtakes the whole cached window.
	limit := uptoSeq
	if i := sort.Search(len(c.starts), func(i int) bool { return c.starts[i] > afterSeq }); i < len(c.starts) && c.starts[i] < limit {
		limit = c.starts[i]
	}
	r := c.readers[afterSeq]
	if r != nil {
		delete(c.readers, afterSeq)
	} else {
		r = c.w.OpenTail(afterSeq)
	}
	var buf []byte
	if p, ok := c.bufs.Get().(*[]byte); ok {
		buf = (*p)[:0]
	}
	frames, n, gap, rerr := r.ReadFrames(buf, limit, max)
	if rerr == nil && !gap && n == 0 && r.AfterSeq() < limit {
		// Durable records the cursor needs are not readable from the log —
		// compacted away before this cursor got them (the tail reader
		// itself only notices once a later frame appears).
		gap = true
	}
	if rerr != nil || gap || n == 0 {
		c.putBuf(frames)
		if rerr != nil || gap {
			r.Close()
			return nil, gap, rerr
		}
		c.stashReader(afterSeq, r)
		return nil, false, nil
	}
	e = &cachedBatch{
		prevSeq: afterSeq,
		lastSeq: r.AfterSeq(),
		uptoSeq: limit,
		frames:  frames,
		count:   n,
		refs:    1,
	}
	c.entries[afterSeq] = e
	c.order = append(c.order, e)
	c.insertStart(afterSeq)
	c.bytes += len(e.frames)
	c.stashReader(e.lastSeq, r)
	c.evictLocked()
	return e, false, nil
}

// release drops the caller's reference; the last release of an evicted
// entry recycles its buffer.
func (c *batchCache) release(e *cachedBatch) {
	if e == nil {
		return
	}
	c.mu.Lock()
	e.refs--
	recycle := e.evicted && e.refs == 0
	c.mu.Unlock()
	if recycle {
		c.recycle(e)
	}
}

func (c *batchCache) recycle(e *cachedBatch) {
	c.putBuf(e.frames)
	e.frames = nil
}

func (c *batchCache) putBuf(b []byte) {
	if cap(b) > 0 {
		b = b[:0]
		c.bufs.Put(&b)
	}
}

func (c *batchCache) evictLocked() {
	for len(c.order) > 0 && (len(c.order) > c.maxEntries || c.bytes > c.maxBytes) {
		e := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, e.prevSeq)
		c.removeStart(e.prevSeq)
		c.bytes -= len(e.frames)
		e.evicted = true
		if e.refs == 0 {
			c.recycle(e)
		}
	}
}

func (c *batchCache) insertStart(pos uint64) {
	i := sort.Search(len(c.starts), func(i int) bool { return c.starts[i] >= pos })
	c.starts = append(c.starts, 0)
	copy(c.starts[i+1:], c.starts[i:])
	c.starts[i] = pos
}

func (c *batchCache) removeStart(pos uint64) {
	i := sort.Search(len(c.starts), func(i int) bool { return c.starts[i] >= pos })
	if i < len(c.starts) && c.starts[i] == pos {
		c.starts = append(c.starts[:i], c.starts[i+1:]...)
	}
}

// stashReader parks a reader at its cursor position for the next miss at
// that position. The pool is small: beyond it, closing and re-opening is
// cheaper than holding handles for cursors no follower is near.
func (c *batchCache) stashReader(pos uint64, r *wal.TailReader) {
	if _, ok := c.readers[pos]; ok || len(c.readers) >= c.maxReaders {
		r.Close()
		return
	}
	c.readers[pos] = r
}

func (c *batchCache) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for pos, r := range c.readers {
		r.Close()
		delete(c.readers, pos)
	}
	c.entries = make(map[uint64]*cachedBatch)
	c.order = nil
	c.starts = nil
	c.bytes = 0
}

// Hits and Misses are cumulative counters for the metrics plane.
func (c *batchCache) Hits() uint64   { return c.hits.Load() }
func (c *batchCache) Misses() uint64 { return c.misses.Load() }
