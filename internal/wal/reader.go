package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"time"
)

// This file is the shipping side of the WAL: everything replication needs
// to read committed records back out of a live log. The writer half
// (wal.go) appends and syncs; a TailReader follows behind, returning only
// records at or below the durability watermark, so a leader never ships a
// record it has not acked durable. Frames on the wire are the log's own
// bytes (TailReader.ReadFrames), CRC and all; FrameDecoder reads them.

// SyncedSeq returns the durability watermark: every sequence number at or
// below it has been flushed and fsynced by a successful sync. It is safe
// to call concurrently with appends.
func (w *WAL) SyncedSeq() uint64 { return w.syncedSeq.Load() }

// AdvanceSeq moves the next sequence number past seq, if it is not already.
// A follower promoted to leader calls this after attaching a fresh WAL:
// its in-memory streams carry sequence anchors from the old leader's log,
// and new appends must land above them or recovery would dedup them away.
func (w *WAL) AdvanceSeq(seq uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if seq+1 > w.nextSeq {
		w.nextSeq = seq + 1
	}
}

// NotifySync registers ch to receive a non-blocking signal whenever the
// durability watermark advances. A shipper blocked waiting for new
// committed records selects on it instead of polling; because the send is
// non-blocking, a slow receiver coalesces wakeups rather than stalling a
// sync.
func (w *WAL) NotifySync(ch chan<- struct{}) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.notify = append(w.notify, ch)
}

func (w *WAL) notifySyncLocked() {
	for _, ch := range w.notify {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// SyncProbeInterval reports how long a caller should expect to wait for
// the log to retry durability after a failure: the background sync (and
// recovery probe) period under SyncInterval, 0 under the other modes,
// where the next append itself is the retry.
func (w *WAL) SyncProbeInterval() time.Duration {
	if w.opt.Mode == SyncInterval {
		return w.opt.Interval
	}
	return 0
}

// keyIntern deduplicates record key strings across decoded frames. The
// lookup uses Go's map[string]T special case for string([]byte) keys, so
// a hit allocates nothing: steady-state decoding of a stream's records
// reuses one shared string per distinct key instead of allocating per
// record. The table has no bound of its own: each key it holds names a
// stream its owner keeps (one Replay call's recovered streams, or the
// streams a follower creates from one session's batches), so the
// owner's stream registry already bounds it.
type keyIntern map[string]string

func (ki *keyIntern) get(b []byte) string {
	if s, ok := (*ki)[string(b)]; ok {
		return s
	}
	s := string(b)
	if *ki == nil {
		*ki = make(keyIntern, 64)
	}
	(*ki)[s] = s
	return s
}

// FrameDecoder decodes shipped batches (buffers of complete frames) back
// into records, with cross-call reuse: the record slice is recycled and
// key strings are interned, so a record whose key the decoder has seen
// before costs no allocation. The returned slice (and its backing array)
// is only valid until the next Decode call; callers may copy Record
// values out but must not retain the slice. Not safe for concurrent use —
// one decoder per connection.
type FrameDecoder struct {
	ki   keyIntern
	recs []Record
}

// Decode decodes every frame in b. Unlike replay, which tolerates torn
// tails, it is strict: a shipped batch travels over a checksummed
// transport, so any invalid or truncated frame is an error, never
// silently dropped.
func (d *FrameDecoder) Decode(b []byte) ([]Record, error) {
	recs := d.recs[:0]
	for len(b) > 0 {
		r, n, err := decodeFrame(b, &d.ki)
		if err != nil {
			return nil, fmt.Errorf("wal: decode frames: %w", err)
		}
		recs = append(recs, r)
		b = b[n:]
	}
	d.recs = recs
	return recs, nil
}

// errShortFrame reports a buffer holding only a prefix of a frame: read
// more bytes and retry. It is distinct from corruption — but a tail
// reader treats both the same way Replay does (end of this segment's
// recoverable prefix).
var errShortFrame = fmt.Errorf("wal: short frame")

// checkFrame validates the frame at the front of b, returning its payload
// and the full frame size. It is the package's one frame validator:
// decodeFrame builds on it, and TailReader ships the frames it passes
// byte for byte.
func checkFrame(b []byte) (payload []byte, n int, err error) {
	if len(b) < frameHeaderLen {
		return nil, 0, errShortFrame
	}
	payloadLen := int(binary.LittleEndian.Uint32(b[:4]))
	crc := binary.LittleEndian.Uint32(b[4:8])
	if payloadLen < recordFixedLen || payloadLen > recordFixedLen+MaxKeyLen {
		return nil, 0, fmt.Errorf("%w: payload length %d", errCorrupt, payloadLen)
	}
	n = frameHeaderLen + payloadLen
	if len(b) < n {
		return nil, 0, errShortFrame
	}
	payload = b[frameHeaderLen:n]
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", errCorrupt)
	}
	if keyLen := int(binary.LittleEndian.Uint16(payload[24:26])); recordFixedLen+keyLen != payloadLen {
		return nil, 0, fmt.Errorf("%w: key length %d disagrees with payload length %d", errCorrupt, keyLen, payloadLen)
	}
	return payload, n, nil
}

// decodeFrame decodes one frame from the front of b, returning the record
// and the full frame size. Replay runs it in place over its read buffer
// and FrameDecoder over shipped batches. ki interns the key string
// instead of allocating one per record.
func decodeFrame(b []byte, ki *keyIntern) (Record, int, error) {
	payload, n, err := checkFrame(b)
	if err != nil {
		return Record{}, 0, err
	}
	return Record{
		Seq:       binary.LittleEndian.Uint64(payload[0:8]),
		UnixNanos: int64(binary.LittleEndian.Uint64(payload[8:16])),
		Wait:      math.Float64frombits(binary.LittleEndian.Uint64(payload[16:24])),
		Key:       ki.get(payload[recordFixedLen:]),
	}, n, nil
}

// TailReader reads committed records back out of a live WAL directory, in
// sequence order, resuming where it left off across calls. It holds no
// WAL locks: it works from the segment files through the same FS the
// writer uses, so a leader's shipper and a fault-injected trial read the
// log identically. Not safe for concurrent use; one reader per follower.
//
// Torn or invalid tails are handled exactly as Replay handles them: a
// rotated-away segment whose tail does not decode contributes its valid
// prefix and the rest is skipped (those records were never acked — the
// watermark cannot cover a frame that failed to sync). On the newest
// segment the same condition just means the writer has not flushed the
// rest yet, so the reader stops and picks up on the next call.
type TailReader struct {
	fs       FS
	dir      string
	afterSeq uint64        // every record at or below this was already returned
	seg      uint64        // segment the cursor is on; 0 = not positioned yet
	rc       io.ReadCloser // open handle on seg
	buf      []byte        // bytes read from seg but not yet consumed
	sawMagic bool          // seg's header has been validated
	sawFirst bool          // head-of-log gap check has run
}

// OpenTail returns a reader positioned after afterSeq: the first call to
// Read returns records starting at the lowest retained sequence number
// above it. afterSeq 0 reads the log from its head.
func (w *WAL) OpenTail(afterSeq uint64) *TailReader {
	return &TailReader{fs: w.opt.FS, dir: w.dir, afterSeq: afterSeq}
}

// AfterSeq reports the reader's cursor: the highest sequence number
// already returned (or the OpenTail starting point).
func (t *TailReader) AfterSeq() uint64 { return t.afterSeq }

// Close releases the reader's open segment handle. Safe on a nil
// reader, so "session over" paths can close unconditionally.
func (t *TailReader) Close() {
	if t == nil {
		return
	}
	if t.rc != nil {
		t.rc.Close()
		t.rc = nil
	}
}

func (t *TailReader) closeSeg() {
	t.Close()
	t.buf = t.buf[:0]
	t.sawMagic = false
}

// ReadFrames appends to dst[:0] the frames of up to max records with
// afterSeq < seq <= uptoSeq, byte for byte as the log holds them, and
// advances the cursor past them: n counts the frames, and AfterSeq then
// reports the last one's sequence. The frames are the wire format for
// shipped batches, so a follower decodes exactly the bytes the leader's
// log holds, CRC and all, and the leader never decodes a key. Callers
// pass the WAL's SyncedSeq as uptoSeq so only acked-durable records ship.
// An empty result with nil error means nothing new is committed yet —
// wait and call again.
//
// gap=true means the log can no longer supply the records the cursor
// needs: compaction removed segments past the cursor (a new or lagging
// follower outrun by snapshot+truncate). The reader is then exhausted;
// the caller must fall back to a snapshot and open a fresh tail.
func (t *TailReader) ReadFrames(dst []byte, uptoSeq uint64, max int) (frames []byte, n int, gap bool, err error) {
	frames = dst[:0]
	if max <= 0 || uptoSeq <= t.afterSeq {
		return frames, 0, false, nil
	}
	for {
		if t.rc == nil {
			ok, gap, err := t.openNext()
			if !ok || gap || err != nil {
				return frames, n, gap, err
			}
		}
		// Pull everything the segment currently holds past our position.
		chunk, rerr := io.ReadAll(t.rc)
		t.buf = append(t.buf, chunk...)
		if rerr != nil {
			// The handle went bad under us — on MemFS a compacted-away
			// segment or a crash; either way the unshipped remainder is no
			// longer reachable from the log.
			t.closeSeg()
			return frames, n, true, nil
		}
		if !t.sawMagic {
			if len(t.buf) < len(segMagic) || string(t.buf[:len(segMagic)]) != segMagic {
				// Header missing or torn: not yet flushed if this is the
				// live head, otherwise skipped exactly as Replay drops a
				// headerless segment.
				if !t.advancePastSegment() {
					return frames, n, false, nil
				}
				continue
			}
			t.buf = t.buf[len(segMagic):]
			t.sawMagic = true
		}
		for {
			payload, size, derr := checkFrame(t.buf)
			if derr != nil {
				// Incomplete or invalid frame: live tail not yet flushed, or
				// a torn tail on a rotated-away segment (skip it — Replay
				// truncates the same bytes, and the watermark never covers a
				// frame whose sync failed).
				if !t.advancePastSegment() {
					return frames, n, false, nil
				}
				break
			}
			seq := binary.LittleEndian.Uint64(payload[0:8])
			if !t.sawFirst {
				t.sawFirst = true
				if seq > t.afterSeq+1 {
					// The retained log starts past the cursor: compaction
					// already removed records the caller still needs.
					return frames, n, true, nil
				}
			}
			if seq > uptoSeq {
				// Beyond the durability watermark: leave the frame buffered
				// for the next call.
				return frames, n, false, nil
			}
			frame := t.buf[:size]
			t.buf = t.buf[size:]
			if seq > t.afterSeq {
				t.afterSeq = seq
				frames = append(frames, frame...)
				if n++; n >= max {
					return frames, n, false, nil
				}
			}
		}
	}
}

// advancePastSegment moves the cursor off the current segment if a newer
// one exists (rotated segments never grow, so whatever did not decode
// never will). It reports false when the current segment is the newest —
// the live tail — and the caller should poll again later.
func (t *TailReader) advancePastSegment() bool {
	indices, err := listSegments(t.fs, t.dir)
	if err != nil {
		return false
	}
	for _, idx := range indices {
		if idx > t.seg {
			t.closeSeg()
			return true
		}
	}
	return false
}

// openNext opens the lowest retained segment above the one the cursor
// finished (or the head of the log on first use). ok=false means there is
// nothing to open yet. gap=true means a segment the cursor needed was
// compacted away before it got there.
func (t *TailReader) openNext() (ok, gap bool, err error) {
	indices, err := listSegments(t.fs, t.dir)
	if err != nil {
		return false, false, err
	}
	var next uint64
	for _, idx := range indices {
		if idx > t.seg {
			next = idx
			break
		}
	}
	if next == 0 {
		return false, false, nil
	}
	if t.seg != 0 && next != t.seg+1 {
		// Segment indices are assigned consecutively, so a hole above a
		// finished segment means everything in between was compacted away
		// unshipped.
		return false, true, nil
	}
	rc, oerr := t.fs.Open(filepath.Join(t.dir, segName(next)))
	if oerr != nil {
		// Listed a moment ago but gone now: racing compaction.
		return false, true, nil
	}
	t.seg, t.rc, t.buf, t.sawMagic = next, rc, t.buf[:0], false
	return true, false, nil
}
