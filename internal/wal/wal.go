// Package wal implements a crash-safe write-ahead log of observation
// records for the prediction service. The correctness guarantee of the
// paper's method rides on the integrity of each stream's accumulated
// history, so observations are made durable *before* they mutate predictor
// state: qbets.Service appends here first, and on restart replays the log
// tail on top of the latest snapshot.
//
// Layout: the log is a directory of segment files named
// 00000000000000000001.wal, 00000000000000000002.wal, … Each segment
// starts with an 8-byte magic header followed by CRC32C-framed records
// (see record.go). Appends go to the newest segment; when it exceeds the
// configured size the WAL rotates to a fresh one. A snapshot save rotates
// and then deletes the segments the snapshot fully covers, bounding log
// growth.
//
// Durability is governed by a sync policy: fsync after every record
// (appends are acknowledged durable), on an interval (the loss window is
// the interval), or only at rotation/close. Replay tolerates torn writes
// and corrupt tails: each segment is consumed up to its first invalid
// frame, the remainder is counted and dropped, and recovery proceeds —
// a damaged log never prevents startup.
package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// countRemaining drains r, returning how many bytes were left.
func countRemaining(r io.Reader) int64 {
	n, _ := io.Copy(io.Discard, r)
	return n
}

// SyncMode selects when appended records are flushed and fsynced.
type SyncMode int

const (
	// SyncEachRecord flushes and fsyncs after every append: a nil error
	// from Append means the record is on stable storage.
	SyncEachRecord SyncMode = iota
	// SyncInterval flushes and fsyncs on a background ticker every
	// Options.Interval; a crash can lose at most that window. The ticker
	// (rather than a clock check on the append path) keeps Append free of
	// time syscalls and bounds the loss window even when appends are
	// sparse — a lone record never sits unsynced waiting for the next one.
	SyncInterval
	// SyncOff flushes and fsyncs only at rotation and Close.
	SyncOff
)

// Options configures a WAL. The zero value means: 8 MiB segments, sync
// every record, the real filesystem.
type Options struct {
	// SegmentBytes is the size at which the active segment rotates
	// (default 8 MiB).
	SegmentBytes int64
	// Mode is the sync policy (default SyncEachRecord).
	Mode SyncMode
	// Interval is the SyncInterval period (default 1s).
	Interval time.Duration
	// GroupCommit enables the concurrent-committer group commit path for
	// SyncEachRecord: an appender arriving while another appender's fsync
	// is in flight buffers its frames and waits, and the next fsync (led by
	// whoever arrives first once the disk is free) covers every waiter at
	// once — N concurrent committers share ~1 fsync instead of paying N.
	// Unlike SyncInterval this does not widen the loss window: no append is
	// acknowledged until its own records are on stable storage. Ignored
	// under other sync modes, which already amortize or defer syncs.
	GroupCommit bool
	// FS is the filesystem to write through (default OSFS).
	FS FS
}

// ReplayStats reports what Replay found.
type ReplayStats struct {
	// Segments is how many segment files were scanned.
	Segments int
	// Records is how many valid records were decoded and applied.
	Records int
	// MaxSeq is the highest sequence number seen (0 if none).
	MaxSeq uint64
	// Truncations counts segments whose tail was cut at an invalid frame
	// (torn write or corruption).
	Truncations int
	// DroppedBytes is the total size of the discarded tails.
	DroppedBytes int64
}

const segMagic = "QBWAL\x00v1"

// WAL is an append-only observation log. It is safe for concurrent use.
// The lifecycle is Open → Replay (exactly once) → Append/Rotate/… → Close.
type WAL struct {
	dir string
	opt Options

	mu        sync.Mutex
	replayed  bool
	closed    bool
	nextIndex uint64 // index the next opened segment receives
	nextSeq   uint64
	active    *segment
	encBuf    []byte
	// syncErr is the sticky record of a failed background sync
	// (SyncInterval mode only): records acknowledged since the previous
	// successful sync may be lost even though the process never crashed,
	// so Append refuses with this error — pushing the service into
	// read-only — until syncLoop's recovery probe proves the disk takes
	// durable writes again.
	syncErr error

	// coarseNow is a cached wall clock (unix nanos), refreshed on every
	// sync and by the interval ticker, so hot-path callers can timestamp
	// records without a time syscall per append (see CoarseUnixNanos).
	coarseNow atomic.Int64
	stopTick  chan struct{}
	tickDone  chan struct{}

	// syncedSeq is the durability watermark: every sequence number at or
	// below it was flushed and fsynced by a successful sync. Written under
	// mu (syncLocked), read locklessly by group-commit waiters — a waiter
	// acks once the watermark passes its batch *and* its segment has not
	// failed (the watermark alone can lie after a failed segment is
	// abandoned and a fresh one syncs past the lost sequence numbers).
	syncedSeq atomic.Uint64

	// notify holds channels registered via NotifySync; each gets a
	// non-blocking signal when the durability watermark advances.
	notify []chan<- struct{}

	// gc coordinates group commit (SyncEachRecord + Options.GroupCommit):
	// at most one leader fsyncs at a time; followers wait on cond and
	// re-check the watermark and their segment's failed flag on each wake.
	// gc.mu is never held together with w.mu.
	gc struct {
		mu      sync.Mutex
		cond    *sync.Cond
		syncing bool
		// err remembers the most recent commit failure, for error text
		// only — the authoritative per-waiter failure signal is the failed
		// flag on the waiter's own segment.
		err error
	}
}

type segment struct {
	index uint64
	f     File
	w     *bufio.Writer
	size  int64
	// failed marks a segment whose tail may be torn by a failed write or
	// sync; the next append abandons it and opens a fresh segment so one
	// bad write cannot shadow later good records at replay. Atomic because
	// group-commit waiters read it without holding the WAL mutex: once set
	// it never clears, so a waiter that observes it can safely report its
	// records lost.
	failed atomic.Bool
}

var (
	errNotReplayed = errors.New("wal: Replay must run before Append")
	errClosed      = errors.New("wal: closed")
	errReplayTwice = errors.New("wal: Replay already ran")
)

// Open prepares a WAL over dir, creating it if needed. No segment is
// opened for writing until the first Append; call Replay first.
func Open(dir string, opt Options) (*WAL, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = 8 << 20
	}
	if opt.Interval <= 0 {
		opt.Interval = time.Second
	}
	if opt.FS == nil {
		opt.FS = OSFS{}
	}
	if err := opt.FS.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	indices, err := listSegments(opt.FS, dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	next := uint64(1)
	if n := len(indices); n > 0 {
		next = indices[n-1] + 1
	}
	w := &WAL{dir: dir, opt: opt, nextIndex: next, nextSeq: 1}
	w.gc.cond = sync.NewCond(&w.gc.mu)
	w.coarseNow.Store(time.Now().UnixNano())
	if opt.Mode == SyncInterval {
		w.stopTick = make(chan struct{})
		w.tickDone = make(chan struct{})
		go w.syncLoop()
	}
	return w, nil
}

// syncLoop is the SyncInterval background: every Interval it refreshes the
// coarse clock and pushes buffered records to stable storage. A failed sync
// is recorded stickily on the WAL (see syncErr): the poisoned segment is
// abandoned — after an fsync error the kernel may have dropped its dirty
// pages, and a retried fsync on the same file can falsely succeed — and
// every Append returns the error until a once-per-interval probe proves a
// fresh segment accepts a durable write.
func (w *WAL) syncLoop() {
	defer close(w.tickDone)
	t := time.NewTicker(w.opt.Interval)
	defer t.Stop()
	for {
		select {
		case <-w.stopTick:
			return
		case <-t.C:
			w.coarseNow.Store(time.Now().UnixNano())
			w.mu.Lock()
			switch {
			case w.closed:
			case w.syncErr != nil:
				// Recovery probe: open a fresh segment and sync it. Only
				// success clears the sticky error and lets appends resume;
				// compaction reclaims any probe segments this leaves behind.
				w.abandonLocked()
				if err := w.openSegmentLocked(); err == nil {
					if err := w.syncLocked(); err == nil {
						w.syncErr = nil
					} else {
						w.abandonLocked()
					}
				}
			case w.active != nil && !w.active.failed.Load():
				if err := w.syncLocked(); err != nil {
					w.syncErr = err
					w.abandonLocked()
				}
			}
			w.mu.Unlock()
		}
	}
}

// abandonLocked closes and drops the active segment without flushing it:
// once a write or sync on the segment has failed, its buffered tail can no
// longer be trusted to reach disk, so the only safe move is to leave what
// did land for replay's torn-tail handling and start fresh.
func (w *WAL) abandonLocked() {
	if w.active != nil {
		w.active.f.Close()
		w.active = nil
	}
}

// CoarseUnixNanos returns a cached wall-clock timestamp suitable for
// stamping records on the append hot path: exact to the last sync (or
// interval tick), so stale by at most the sync policy's loss window. Use
// time.Now when sub-interval precision matters.
func (w *WAL) CoarseUnixNanos() int64 { return w.coarseNow.Load() }

// listSegments returns the indices of the segment files in dir, ascending.
func listSegments(fs FS, dir string) ([]uint64, error) {
	names, err := fs.List(dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, name := range names {
		if idx, ok := parseSegName(name); ok {
			out = append(out, idx)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

func segName(idx uint64) string { return fmt.Sprintf("%020d.wal", idx) }

func parseSegName(name string) (uint64, bool) {
	base, ok := strings.CutSuffix(name, ".wal")
	if !ok || len(base) != 20 {
		return 0, false
	}
	idx, err := strconv.ParseUint(base, 10, 64)
	if err != nil {
		return 0, false
	}
	return idx, true
}

// Replay scans every segment in order, invoking apply (which may be nil)
// for each valid record, and positions the WAL to append after the highest
// sequence number seen. Torn or corrupt tails are tolerated: the damaged
// segment contributes its valid prefix, the rest is counted into the
// returned stats, and replay continues with the next segment. Every
// scanned segment is then fsynced, and the durability watermark
// (SyncedSeq) starts at the highest sequence seen. The returned error is
// reserved for real I/O failures (unreadable directory or file, or a
// failed fsync of what was read); after one the log refuses appends.
func (w *WAL) Replay(apply func(Record)) (ReplayStats, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var stats ReplayStats
	if w.closed {
		return stats, errClosed
	}
	if w.replayed {
		return stats, errReplayTwice
	}
	indices, err := listSegments(w.opt.FS, w.dir)
	if err != nil {
		return stats, fmt.Errorf("wal: %w", err)
	}
	scratch := make([]byte, 0, 256)
	for _, idx := range indices {
		name := filepath.Join(w.dir, segName(idx))
		f, err := w.opt.FS.Open(name)
		if err != nil {
			return stats, fmt.Errorf("wal: %w", err)
		}
		var rerr error
		stats.Segments++
		br := bufio.NewReaderSize(f, 64<<10)
		magic := make([]byte, len(segMagic))
		if n, err := io.ReadFull(br, magic); err != nil || string(magic) != segMagic {
			// Header torn or overwritten: the whole segment is dropped.
			stats.Truncations++
			stats.DroppedBytes += int64(n) + countRemaining(br)
			f.Close()
			continue
		}
		var badFrame int64
		for {
			var rec Record
			rec, scratch, badFrame, rerr = readRecord(br, scratch)
			if rerr != nil {
				break
			}
			stats.Records++
			if rec.Seq > stats.MaxSeq {
				stats.MaxSeq = rec.Seq
			}
			if apply != nil {
				apply(rec)
			}
		}
		if rerr != io.EOF {
			// Invalid frame: drop it and everything after it in this
			// segment — the bad frame's own bytes plus whatever follows.
			stats.Truncations++
			stats.DroppedBytes += badFrame + countRemaining(br)
		}
		f.Close()
	}
	// The caller is about to serve every record just read, so each must be
	// as durable as a record appended later: a write that reached the page
	// cache but not the disk before the crash would otherwise sit under the
	// watermark unconfirmed. With the segments synced, MaxSeq is the
	// durability watermark — a restarted leader's catch-up snapshot covers
	// what it replayed, and its shipper never sends that prefix again.
	for _, idx := range indices {
		if err := w.syncSegment(filepath.Join(w.dir, segName(idx))); err != nil {
			return stats, fmt.Errorf("wal: sync replayed segment: %w", err)
		}
	}
	if len(indices) > 0 {
		if err := w.opt.FS.SyncDir(w.dir); err != nil {
			return stats, fmt.Errorf("wal: %w", err)
		}
	}
	w.syncedSeq.Store(stats.MaxSeq)
	w.nextSeq = stats.MaxSeq + 1
	w.replayed = true
	return stats, nil
}

// syncSegment fsyncs an existing segment file without writing to it.
func (w *WAL) syncSegment(name string) error {
	f, err := w.opt.FS.OpenAppend(name)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// appendPrepareLocked runs the checks and segment management every append
// path shares: lifecycle state, sticky background-sync failure, abandoning
// a poisoned segment, and opening a fresh one when needed.
func (w *WAL) appendPrepareLocked() error {
	if w.closed {
		return errClosed
	}
	if !w.replayed {
		return errNotReplayed
	}
	if w.syncErr != nil {
		// A background sync failed since the last append: the log is
		// dropping acknowledged data, so refuse — stickily, until the
		// recovery probe in syncLoop clears the error — rather than keep
		// acking records that may never reach disk.
		return fmt.Errorf("wal: background sync failed: %w", w.syncErr)
	}
	if w.active != nil && w.active.failed.Load() {
		w.abandonLocked()
	}
	if w.active == nil {
		return w.openSegmentLocked()
	}
	return nil
}

// appendFinishLocked completes an append whose frames are already in the
// active segment's buffer: it applies the sync policy and the rotation
// check, then releases w.mu. The group-commit path must drop the lock
// itself, before potentially waiting behind a concurrent committer's fsync.
func (w *WAL) appendFinishLocked(last uint64) error {
	if w.opt.Mode == SyncEachRecord && w.opt.GroupCommit {
		seg := w.active
		w.mu.Unlock()
		return w.commit(last, seg)
	}
	defer w.mu.Unlock()
	// SyncInterval is handled off the append path by syncLoop's ticker;
	// SyncOff waits for rotation or Close.
	if w.opt.Mode == SyncEachRecord {
		if err := w.syncLocked(); err != nil {
			w.active.failed.Store(true)
			return fmt.Errorf("wal: sync: %w", err)
		}
	}
	if w.active.size >= w.opt.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			// The records are past their policy's durability point, but the
			// rotation flush failed — surface it so the caller degrades
			// rather than trusting a log that just refused a write.
			return fmt.Errorf("wal: rotate: %w", err)
		}
	}
	return nil
}

// Append logs one observation and returns its sequence number. Whether a
// nil error implies durability depends on the sync policy (see SyncMode).
// A failed append poisons the active segment; the next append starts a
// fresh one, so replay after recovery is never blocked by one bad tail.
// On error the returned sequence number must not be trusted.
func (w *WAL) Append(key string, wait float64, unixNanos int64) (uint64, error) {
	w.mu.Lock()
	if err := w.appendPrepareLocked(); err != nil {
		w.mu.Unlock()
		return 0, err
	}
	if len(key) > MaxKeyLen {
		w.mu.Unlock()
		return 0, fmt.Errorf("wal: key of %d bytes exceeds limit %d", len(key), MaxKeyLen)
	}
	// The sequence number is consumed even if the write fails: a torn
	// frame may still be recovered whole at replay, and reusing its number
	// would let two different records share a sequence.
	seq := w.nextSeq
	w.nextSeq++
	w.encBuf = appendRecord(w.encBuf[:0], Record{Seq: seq, Key: key, Wait: wait, UnixNanos: unixNanos})
	n, err := w.active.w.Write(w.encBuf)
	w.active.size += int64(n)
	if err != nil {
		w.active.failed.Store(true)
		w.mu.Unlock()
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	return seq, w.appendFinishLocked(seq)
}

// Entry is one observation in an AppendBatch: a Record minus the sequence
// number, which the WAL assigns at append time.
type Entry struct {
	Key       string
	Wait      float64
	UnixNanos int64
}

// maxEncBuf bounds how much encode-buffer capacity a large batch may pin
// between appends; anything bigger is released after use.
const maxEncBuf = 1 << 20

// AppendBatch logs a batch of observations as consecutive records and
// returns the sequence number assigned to entries[0]; entry i carries
// firstSeq+i. The whole batch is framed into one buffer and issued as a
// single write, and under SyncEachRecord it is made durable by a single
// fsync (or one group commit) — bulk ingest pays per batch what Append
// pays per record. The frames are ordinary records, so a power cut
// mid-batch tears at a record boundary: replay recovers a prefix of the
// batch, exactly as if the same records had been appended individually.
// On error no entry is acknowledged; as with Append, frames that reached
// the disk anyway are recovered at replay and deduplicated by the caller's
// sequence anchoring.
func (w *WAL) AppendBatch(entries []Entry) (firstSeq uint64, err error) {
	if len(entries) == 0 {
		return 0, nil
	}
	w.mu.Lock()
	if err := w.appendPrepareLocked(); err != nil {
		w.mu.Unlock()
		return 0, err
	}
	for i := range entries {
		if len(entries[i].Key) > MaxKeyLen {
			w.mu.Unlock()
			return 0, fmt.Errorf("wal: key of %d bytes exceeds limit %d", len(entries[i].Key), MaxKeyLen)
		}
	}
	firstSeq = w.nextSeq
	w.nextSeq += uint64(len(entries))
	buf := w.encBuf[:0]
	for i, e := range entries {
		buf = appendRecord(buf, Record{Seq: firstSeq + uint64(i), Key: e.Key, Wait: e.Wait, UnixNanos: e.UnixNanos})
	}
	if cap(buf) <= maxEncBuf {
		w.encBuf = buf
	}
	n, werr := w.active.w.Write(buf)
	w.active.size += int64(n)
	if werr != nil {
		w.active.failed.Store(true)
		w.mu.Unlock()
		return 0, fmt.Errorf("wal: append: %w", werr)
	}
	return firstSeq, w.appendFinishLocked(firstSeq + uint64(len(entries)) - 1)
}

// commit makes every sequence number up to last durable under the group
// commit protocol. The caller's frames are already buffered in seg (the
// segment it appended to); commit returns once a successful sync's
// watermark covers last — possibly a sync some other goroutine led while
// we waited — or once seg is known failed. The first committer to find no
// sync in flight becomes the leader and fsyncs once for everything
// buffered so far, including frames from appenders that arrived after it;
// appenders arriving during that fsync coalesce into the next one.
func (w *WAL) commit(last uint64, seg *segment) error {
	g := &w.gc
	g.mu.Lock()
	for {
		// Order matters: a failed segment is checked before the watermark,
		// because after seg is abandoned a fresh segment's sync can push
		// the watermark past sequence numbers that never reached disk.
		if seg.failed.Load() {
			err := g.err
			g.mu.Unlock()
			if err == nil {
				err = errors.New("segment abandoned after a failed write")
			}
			return fmt.Errorf("wal: sync: %w", err)
		}
		if w.syncedSeq.Load() >= last {
			g.mu.Unlock()
			return nil
		}
		if !g.syncing {
			break // no sync in flight: lead one
		}
		g.cond.Wait()
	}
	g.syncing = true
	g.mu.Unlock()

	// Leader: one fsync covers every frame flushed up to this instant. The
	// fsync itself runs outside w.mu so appenders arriving during it keep
	// buffering frames — they become the next commit's coalesced wave —
	// while gc.syncing keeps a second leader from starting.
	w.mu.Lock()
	var err error
	if w.active == seg && !seg.failed.Load() {
		cover := w.nextSeq - 1
		if err = seg.w.Flush(); err == nil {
			w.mu.Unlock()
			err = seg.f.Sync()
			w.mu.Lock()
			if err != nil && w.syncedSeq.Load() >= cover {
				// A concurrent rotation (snapshot path) synced and closed
				// the segment under our in-flight fsync: everything we were
				// committing is durable, the EBADF-shaped error is noise.
				err = nil
			}
			if err == nil {
				if cover > w.syncedSeq.Load() {
					w.syncedSeq.Store(cover)
				}
				w.coarseNow.Store(time.Now().UnixNano())
				w.notifySyncLocked()
				if w.active == seg && seg.size >= w.opt.SegmentBytes {
					// A failed rotation poisons the segment (rotateLocked
					// marks it) but not this commit: everything covered by
					// it was just synced.
					_ = w.rotateLocked()
				}
			}
		}
		if err != nil {
			// Mark before returning so every waiter on this segment sees
			// its records lost; the next append abandons it.
			seg.failed.Store(true)
		}
	}
	// Otherwise seg was rotated out (its sync already advanced the
	// watermark) or failed; the re-check below settles our own fate.
	w.mu.Unlock()

	g.mu.Lock()
	g.syncing = false
	if err != nil {
		g.err = err
	}
	g.cond.Broadcast()
	if seg.failed.Load() {
		gerr := g.err
		g.mu.Unlock()
		if gerr == nil {
			gerr = errors.New("segment abandoned after a failed write")
		}
		return fmt.Errorf("wal: sync: %w", gerr)
	}
	g.mu.Unlock()
	if w.syncedSeq.Load() >= last {
		return nil
	}
	// Neither durable nor failed: seg must have been mid-rotation or the
	// WAL closed under us — re-enter the wait loop rather than guess.
	return w.commit(last, seg)
}

// Sync forces the active segment's buffered records to stable storage. A
// pending background sync failure is reported here too.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.syncErr != nil {
		return fmt.Errorf("wal: background sync failed: %w", w.syncErr)
	}
	if w.active == nil {
		return nil
	}
	if err := w.syncLocked(); err != nil {
		w.active.failed.Store(true)
		if w.opt.Mode == SyncInterval {
			w.syncErr = err
		}
		return err
	}
	return nil
}

// Rotate closes the active segment (flushing and syncing it) and returns
// the cut index: every existing segment has an index below it, and every
// future append lands at or above it. Callers snapshot after rotating,
// then delete the covered segments with RemoveSegmentsBelow(cut).
func (w *WAL) Rotate() (cut uint64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, errClosed
	}
	err = w.rotateLocked()
	return w.nextIndex, err
}

// RemoveSegmentsBelow deletes every segment file with index < cut. The
// active segment is never removed.
func (w *WAL) RemoveSegmentsBelow(cut uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	indices, err := listSegments(w.opt.FS, w.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var firstErr error
	removed := false
	for _, idx := range indices {
		if idx >= cut || (w.active != nil && idx == w.active.index) {
			continue
		}
		if err := w.opt.FS.Remove(filepath.Join(w.dir, segName(idx))); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("wal: %w", err)
			}
		} else {
			removed = true
		}
	}
	if removed {
		if err := w.opt.FS.SyncDir(w.dir); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("wal: %w", err)
		}
	}
	return firstErr
}

// Close flushes, syncs, and closes the active segment. The WAL refuses
// further appends.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	// Mark closed first (rejecting new appends), release the lock so the
	// sync loop can finish its current tick, and only then stop it and
	// flush — the loop takes the same mutex, so waiting under it deadlocks.
	w.closed = true
	w.mu.Unlock()
	if w.stopTick != nil {
		close(w.stopTick)
		<-w.tickDone
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.rotateLocked()
	if err == nil && w.syncErr != nil {
		// The final flush had nothing to sync (the poisoned segment was
		// abandoned), but acknowledged records were lost: say so.
		err = fmt.Errorf("wal: background sync failed: %w", w.syncErr)
	}
	return err
}

func (w *WAL) openSegmentLocked() error {
	name := filepath.Join(w.dir, segName(w.nextIndex))
	f, err := w.opt.FS.OpenAppend(name)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	// Make the directory entry durable before any record lands in the
	// file: fsyncing record bytes is worthless if a power cut forgets the
	// file was ever created.
	if err := w.opt.FS.SyncDir(w.dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	seg := &segment{index: w.nextIndex, f: f, w: bufio.NewWriterSize(f, 64<<10)}
	if _, err := seg.w.WriteString(segMagic); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	seg.size = int64(len(segMagic))
	w.nextIndex++
	w.active = seg
	return nil
}

func (w *WAL) syncLocked() error {
	if err := w.active.w.Flush(); err != nil {
		return err
	}
	if err := w.active.f.Sync(); err != nil {
		return err
	}
	// Everything appended so far is on stable storage (appends happen only
	// under w.mu, which we hold): publish the group-commit watermark.
	w.syncedSeq.Store(w.nextSeq - 1)
	w.coarseNow.Store(time.Now().UnixNano())
	w.notifySyncLocked()
	return nil
}

// rotateLocked flushes, syncs, and closes the active segment (if any). A
// failed rotation poisons the segment so group-commit waiters buffered in
// it see their records lost rather than trusting a later watermark.
func (w *WAL) rotateLocked() error {
	if w.active == nil {
		return nil
	}
	err := w.syncLocked()
	if cerr := w.active.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		w.active.failed.Store(true)
	}
	w.active = nil
	return err
}
