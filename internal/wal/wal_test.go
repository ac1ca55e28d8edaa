package wal

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"testing"
	"time"
)

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Seq: 1, Key: "normal/1-4", Wait: 123.5, UnixNanos: 1700000000000000000},
		{Seq: 2, Key: "", Wait: 0, UnixNanos: 0},
		{Seq: 1 << 60, Key: "üñïçø∂é", Wait: math.MaxFloat64, UnixNanos: -5},
		{Seq: 3, Key: string(make([]byte, MaxKeyLen)), Wait: 1e-300, UnixNanos: 42},
	}
	var buf []byte
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	br := bufio.NewReader(bytes.NewReader(buf))
	var scratch []byte
	for i, want := range recs {
		got, s, _, err := readRecord(br, scratch)
		scratch = s
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
	}
	if _, _, _, err := readRecord(br, scratch); err != io.EOF {
		t.Fatalf("expected clean EOF, got %v", err)
	}
}

func TestRecordDetectsCorruption(t *testing.T) {
	base := appendRecord(nil, Record{Seq: 9, Key: "q", Wait: 7, UnixNanos: 1})
	for i := range base {
		mut := append([]byte(nil), base...)
		mut[i] ^= 0x40
		_, _, _, err := readRecord(bufio.NewReader(bytes.NewReader(mut)), nil)
		if err == nil {
			t.Fatalf("flip at byte %d went undetected", i)
		}
	}
	// Truncation at every prefix length must also be rejected.
	for n := 0; n < len(base); n++ {
		_, _, _, err := readRecord(bufio.NewReader(bytes.NewReader(base[:n])), nil)
		if n == 0 {
			if err != io.EOF {
				t.Fatalf("empty input: want io.EOF, got %v", err)
			}
		} else if err == nil {
			t.Fatalf("truncation at %d bytes went undetected", n)
		}
	}
}

func mustOpen(t *testing.T, dir string, opt Options) *WAL {
	t.Helper()
	w, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Replay(nil); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	w := mustOpen(t, dir, Options{Mode: SyncEachRecord})
	keys := []string{"normal", "high/65+", "low"}
	var want []Record
	for i := 0; i < 257; i++ {
		key := keys[i%len(keys)]
		wait := float64(i) * 1.5
		seq, err := appendOne(w, key, wait, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, Record{Seq: seq, Key: key, Wait: wait, UnixNanos: int64(i)})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got []Record
	stats, err := w2.Replay(func(r Record) { got = append(got, r) })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != len(want) || stats.Truncations != 0 || stats.DroppedBytes != 0 {
		t.Fatalf("stats %+v, want %d clean records", stats, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	// Appends resume past the replayed sequence numbers.
	seq, err := appendOne(w2, "normal", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if seq != stats.MaxSeq+1 {
		t.Fatalf("post-replay seq %d, want %d", seq, stats.MaxSeq+1)
	}
}

func TestRotationAndCompaction(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	// Tiny segments force rotation every few records.
	w := mustOpen(t, dir, Options{SegmentBytes: 256, Mode: SyncOff})
	for i := 0; i < 100; i++ {
		if _, err := appendOne(w, "q", float64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	indices, err := listSegments(OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(indices) < 4 {
		t.Fatalf("expected several segments, got %d", len(indices))
	}

	cut, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := appendOne(w, "q", float64(100+i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.RemoveSegmentsBelow(cut); err != nil {
		t.Fatal(err)
	}
	indices, err = listSegments(OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range indices {
		if idx < cut {
			t.Fatalf("segment %d survived compaction below %d", idx, cut)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Only the post-cut records remain.
	w2, _ := Open(dir, Options{})
	var got []float64
	stats, err := w2.Replay(func(r Record) { got = append(got, r.Wait) })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 10 {
		t.Fatalf("replayed %d records after compaction, want 10", stats.Records)
	}
	for i, wgot := range got {
		if wgot != float64(100+i) {
			t.Fatalf("record %d: wait %g, want %g", i, wgot, float64(100+i))
		}
	}
}

func TestReplayTruncatesCorruptTail(t *testing.T) {
	fs := NewMemFS()
	dir := "wal"
	w, err := Open(dir, Options{FS: fs, Mode: SyncEachRecord})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Replay(nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := appendOne(w, "q", float64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	// A torn half-frame at the tail, as if the power died mid-append.
	frame := appendRecord(nil, Record{Seq: 21, Key: "q", Wait: 99, UnixNanos: 0})
	fs.TornAppend(filepath.Join(dir, segName(1)), frame[:len(frame)/2])

	w2, err := Open(dir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := w2.Replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 20 {
		t.Fatalf("recovered %d records, want 20", stats.Records)
	}
	if stats.Truncations != 1 || stats.DroppedBytes == 0 {
		t.Fatalf("expected one truncated tail with dropped bytes, got %+v", stats)
	}
}

func TestReplayToleratesCorruptMiddleSegment(t *testing.T) {
	fs := NewMemFS()
	dir := "wal"
	w, _ := Open(dir, Options{FS: fs, Mode: SyncEachRecord, SegmentBytes: 200})
	if _, err := w.Replay(nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := appendOne(w, "q", float64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	indices, _ := listSegments(fs, dir)
	if len(indices) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(indices))
	}
	// Smash a byte in the middle of the second segment.
	mid := filepath.Join(dir, segName(indices[1]))
	fs.mu.Lock()
	f := fs.files[mid]
	f.data[len(f.data)/2] ^= 0xFF
	fs.mu.Unlock()

	w2, _ := Open(dir, Options{FS: fs})
	stats, err := w2.Replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Truncations != 1 {
		t.Fatalf("want exactly one truncation, got %+v", stats)
	}
	// Records before the smashed byte and in the other segments survive.
	if stats.Records <= 10 || stats.Records >= 30 {
		t.Fatalf("recovered %d records, expected a partial but substantial recovery", stats.Records)
	}
}

func TestAppendFailurePoisonsSegment(t *testing.T) {
	fs := NewFaultFS(NewMemFS())
	w, err := Open("wal", Options{FS: fs, Mode: SyncEachRecord})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Replay(nil); err != nil {
		t.Fatal(err)
	}
	var acked []uint64
	for i := 0; i < 5; i++ {
		seq, err := appendOne(w, "q", float64(i), 0)
		if err != nil {
			t.Fatal(err)
		}
		acked = append(acked, seq)
	}
	// Short write then hard failure: the disk is "full".
	bang := errors.New("disk full")
	fs.FailWritesAfter(0, bang, true)
	if _, err := appendOne(w, "q", 99, 0); err == nil {
		t.Fatal("append succeeded under write fault")
	}
	if _, err := appendOne(w, "q", 99, 0); err == nil {
		t.Fatal("append succeeded while fault armed")
	}
	// Disk recovers; appends must resume (on a fresh segment, past the
	// poisoned tail) and be recoverable.
	fs.Clear()
	seq, err := appendOne(w, "q", 7, 0)
	if err != nil {
		t.Fatalf("append after fault cleared: %v", err)
	}
	acked = append(acked, seq)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, _ := Open("wal", Options{FS: fs})
	var got []uint64
	stats, err := w2.Replay(func(r Record) { got = append(got, r.Seq) })
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool, len(got))
	for _, s := range got {
		if seen[s] {
			t.Fatalf("sequence %d replayed twice", s)
		}
		seen[s] = true
	}
	for _, s := range acked {
		if !seen[s] {
			t.Fatalf("acked seq %d lost (recovered %v, stats %+v)", s, got, stats)
		}
	}
}

func TestSyncIntervalPolicy(t *testing.T) {
	fs := NewMemFS()
	w, _ := Open("wal", Options{FS: fs, Mode: SyncInterval, Interval: time.Hour})
	if _, err := w.Replay(nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := appendOne(w, "q", float64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing synced yet (interval far away): a crash now loses the lot.
	name := filepath.Join("wal", segName(1))
	fs.mu.Lock()
	synced := fs.files[name].synced
	fs.mu.Unlock()
	if synced != 0 {
		t.Fatalf("interval mode synced %d bytes before the interval elapsed", synced)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.mu.Lock()
	synced = fs.files[name].synced
	written := len(fs.files[name].data)
	fs.mu.Unlock()
	if synced != written || written == 0 {
		t.Fatalf("explicit Sync left %d of %d bytes unsynced", written-synced, written)
	}
}

// TestSyncIntervalStickyFailure: a failed background sync must not stay
// invisible — the next AppendBatch returns the error (stickily), so the service
// degrades to read-only instead of acking records into a log that is
// silently dropping them. Once the disk recovers, the per-interval probe
// clears the error and appends resume on a fresh segment.
func TestSyncIntervalStickyFailure(t *testing.T) {
	fs := NewFaultFS(NewMemFS())
	w, err := Open("wal", Options{FS: fs, Mode: SyncInterval, Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Replay(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := appendOne(w, "q", 1, 0); err != nil {
		t.Fatal(err)
	}
	bang := errors.New("sync: input/output error")
	fs.FailSyncs(bang)
	// The ticker's next sync fails; from then on AppendBatch must refuse.
	deadline := time.Now().Add(5 * time.Second)
	var appendErr error
	for time.Now().Before(deadline) {
		if _, appendErr = appendOne(w, "q", 2, 0); appendErr != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(appendErr, bang) {
		t.Fatalf("append after failed background sync: err = %v, want wrapped %v", appendErr, bang)
	}
	if err := w.Sync(); !errors.Is(err, bang) {
		t.Fatalf("explicit Sync hides pending failure: %v", err)
	}
	// While the fault persists the error stays sticky.
	if _, err := appendOne(w, "q", 3, 0); !errors.Is(err, bang) {
		t.Fatalf("sticky error cleared without a successful sync: %v", err)
	}
	// Disk recovers: the probe clears the error within an interval or two
	// and appends become durable again.
	fs.Clear()
	var seq uint64
	for time.Now().Before(deadline) {
		if seq, err = appendOne(w, "q", 4, 0); err == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err != nil {
		t.Fatalf("append never recovered after fault cleared: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, _ := Open("wal", Options{FS: fs})
	found := false
	if _, err := w2.Replay(func(r Record) { found = found || r.Seq == seq }); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("post-recovery record %d missing from replay", seq)
	}
}

func TestAppendBeforeReplayRejected(t *testing.T) {
	w, err := Open("wal", Options{FS: NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendOne(w, "q", 1, 0); !errors.Is(err, errNotReplayed) {
		t.Fatalf("want errNotReplayed, got %v", err)
	}
	if _, err := w.Replay(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Replay(nil); !errors.Is(err, errReplayTwice) {
		t.Fatalf("want errReplayTwice, got %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := appendOne(w, "q", 1, 0); !errors.Is(err, errClosed) {
		t.Fatalf("want errClosed after Close, got %v", err)
	}
}

// appendOne logs a single record as a one-entry AppendBatch.
func appendOne(w *WAL, key string, wait float64, unixNanos int64) (uint64, error) {
	return w.AppendBatch([]Entry{{Key: key, Wait: wait, UnixNanos: unixNanos}})
}

// TestReplayAllocsPerRecord pins replay's allocation budget: a record
// costs no allocation, a distinct key one string. Frames decode in place
// from the read buffer and keys are interned for the whole call, so
// replaying N records over K keys allocates at most K plus a constant for
// opening the log, whatever N is.
func TestReplayAllocsPerRecord(t *testing.T) {
	const records, keys = 2000, 50
	fs := NewMemFS()
	w, err := Open("wal", Options{FS: fs, Mode: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Replay(nil); err != nil {
		t.Fatal(err)
	}
	entries := make([]Entry, records)
	for i := range entries {
		entries[i] = Entry{Key: fmt.Sprintf("site%04d.machine/queue/1-4", i%keys), Wait: float64(i), UnixNanos: 1}
	}
	if _, err := w.AppendBatch(entries); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seen := 0
	allocs := testing.AllocsPerRun(5, func() {
		w, err := Open("wal", Options{FS: fs, Mode: SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		seen = 0
		if _, err := w.Replay(func(Record) { seen++ }); err != nil {
			t.Fatal(err)
		}
		w.Close()
	})
	if seen != records {
		t.Fatalf("replayed %d records, want %d", seen, records)
	}
	if budget := float64(keys + 64); allocs > budget {
		t.Fatalf("replaying %d records over %d keys allocates %g times, want at most %g (one string per key)", records, keys, allocs, budget)
	}
}
