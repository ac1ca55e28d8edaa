package wal

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

func mustOpenReplayed(t *testing.T, fs FS, opt Options) *WAL {
	t.Helper()
	opt.FS = fs
	w, err := Open("wal", opt)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := w.Replay(nil); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return w
}

// encodeFrames appends the framed encoding of recs to buf: a shipped
// batch as TailReader.ReadFrames returns it.
func encodeFrames(buf []byte, recs []Record) []byte {
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	return buf
}

// readRecs is ReadFrames followed by a FrameDecoder, for tests that check
// records rather than bytes. It also checks that the frame count agrees
// with the records decoded and that the cursor sits on the last one.
func readRecs(t *testing.T, tr *TailReader, uptoSeq uint64, max int) ([]Record, bool, error) {
	t.Helper()
	frames, n, gap, err := tr.ReadFrames(nil, uptoSeq, max)
	var d FrameDecoder
	recs, derr := d.Decode(frames)
	if derr != nil {
		t.Fatalf("tail frames do not decode: %v", derr)
	}
	if len(recs) != n {
		t.Fatalf("ReadFrames reported %d frames, decoded %d", n, len(recs))
	}
	if n > 0 && recs[n-1].Seq != tr.AfterSeq() {
		t.Fatalf("cursor at %d, last frame is seq %d", tr.AfterSeq(), recs[n-1].Seq)
	}
	return recs, gap, err
}

func TestTailReaderStreamsCommittedRecords(t *testing.T) {
	fs := NewMemFS()
	w := mustOpenReplayed(t, fs, Options{Mode: SyncEachRecord})
	for i := 0; i < 25; i++ {
		if _, err := appendOne(w, fmt.Sprintf("q%d", i%3), float64(i), int64(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	tr := w.OpenTail(0)
	defer tr.Close()
	var got []Record
	for {
		recs, gap, err := readRecs(t, tr, w.SyncedSeq(), 7)
		if err != nil || gap {
			t.Fatalf("read: gap=%v err=%v", gap, err)
		}
		if len(recs) == 0 {
			break
		}
		got = append(got, recs...)
	}
	if len(got) != 25 {
		t.Fatalf("tailed %d records, want 25", len(got))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) || r.Key != fmt.Sprintf("q%d", i%3) || r.Wait != float64(i) {
			t.Fatalf("record %d: %+v", i, r)
		}
	}
	// Appends after the reader drained the log become visible on the next
	// call — the live-tail case a shipper depends on.
	if _, err := appendOne(w, "late", 9, 9); err != nil {
		t.Fatalf("append: %v", err)
	}
	recs, gap, err := readRecs(t, tr, w.SyncedSeq(), 10)
	if err != nil || gap || len(recs) != 1 || recs[0].Key != "late" {
		t.Fatalf("live tail read: recs=%v gap=%v err=%v", recs, gap, err)
	}
	if tr.AfterSeq() != 26 {
		t.Fatalf("cursor at %d, want 26", tr.AfterSeq())
	}
}

func TestTailReaderHonorsWatermark(t *testing.T) {
	fs := NewMemFS()
	w := mustOpenReplayed(t, fs, Options{Mode: SyncOff})
	for i := 0; i < 5; i++ {
		if _, err := appendOne(w, "q", float64(i), 0); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	tr := w.OpenTail(0)
	defer tr.Close()
	// Nothing synced yet: the watermark is 0 and nothing may ship.
	if recs, gap, err := readRecs(t, tr, w.SyncedSeq(), 100); len(recs) != 0 || gap || err != nil {
		t.Fatalf("unsynced read: recs=%v gap=%v err=%v", recs, gap, err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	recs, gap, err := readRecs(t, tr, w.SyncedSeq(), 100)
	if err != nil || gap || len(recs) != 5 {
		t.Fatalf("post-sync read: %d recs, gap=%v err=%v", len(recs), gap, err)
	}
}

func TestTailReaderResumesAcrossRotation(t *testing.T) {
	fs := NewMemFS()
	w := mustOpenReplayed(t, fs, Options{Mode: SyncEachRecord, SegmentBytes: 128})
	for i := 0; i < 40; i++ {
		if _, err := appendOne(w, "rot", float64(i), 0); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	tr := w.OpenTail(0)
	defer tr.Close()
	var n int
	for {
		recs, gap, err := readRecs(t, tr, w.SyncedSeq(), 3)
		if err != nil || gap {
			t.Fatalf("read: gap=%v err=%v", gap, err)
		}
		if len(recs) == 0 {
			break
		}
		n += len(recs)
	}
	if n != 40 {
		t.Fatalf("tailed %d records across rotations, want 40", n)
	}
}

func TestTailReaderReportsCompactionGap(t *testing.T) {
	fs := NewMemFS()
	w := mustOpenReplayed(t, fs, Options{Mode: SyncEachRecord, SegmentBytes: 64})
	for i := 0; i < 20; i++ {
		if _, err := appendOne(w, "gap", float64(i), 0); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	cut, err := w.Rotate()
	if err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if err := w.RemoveSegmentsBelow(cut); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if _, err := appendOne(w, "gap", 99, 0); err != nil {
		t.Fatalf("append: %v", err)
	}
	// A fresh reader at the head of a compacted log cannot supply the
	// removed prefix: it must demand a snapshot instead of silently
	// starting mid-history.
	tr := w.OpenTail(0)
	defer tr.Close()
	_, gap, err := readRecs(t, tr, w.SyncedSeq(), 100)
	if err != nil || !gap {
		t.Fatalf("want gap=true after compaction, got gap=%v err=%v", gap, err)
	}
	// A reader already past the removed prefix is unaffected.
	tr2 := w.OpenTail(20)
	defer tr2.Close()
	recs, gap, err := readRecs(t, tr2, w.SyncedSeq(), 100)
	if err != nil || gap || len(recs) != 1 || recs[0].Seq != 21 {
		t.Fatalf("post-compaction tail: recs=%v gap=%v err=%v", recs, gap, err)
	}
}

func TestTailReaderSkipsTornTailLikeReplay(t *testing.T) {
	fs := NewMemFS()
	w := mustOpenReplayed(t, fs, Options{Mode: SyncEachRecord})
	for i := 0; i < 3; i++ {
		if _, err := appendOne(w, "a", float64(i), 0); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if _, err := w.Rotate(); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	// Garbage on the rotated segment's tail: Replay truncates it, and the
	// tail reader must skip the same bytes rather than stall on them.
	fs.TornAppend("wal/"+segName(1), []byte("\x00garbage\xff\xff"))
	for i := 0; i < 2; i++ {
		if _, err := appendOne(w, "b", float64(i), 0); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	tr := w.OpenTail(0)
	defer tr.Close()
	var got []Record
	for {
		recs, gap, err := readRecs(t, tr, w.SyncedSeq(), 100)
		if err != nil || gap {
			t.Fatalf("read: gap=%v err=%v", gap, err)
		}
		if len(recs) == 0 {
			break
		}
		got = append(got, recs...)
	}
	if len(got) != 5 {
		t.Fatalf("tailed %d records, want 5 (3 + 2 past the torn tail)", len(got))
	}
	if got[3].Key != "b" || got[3].Seq != 4 {
		t.Fatalf("first record after torn tail: %+v", got[3])
	}
}

func TestEncodeDecodeFramesRoundTrip(t *testing.T) {
	recs := []Record{
		{Seq: 1, Key: "q/1", Wait: 1.5, UnixNanos: 100},
		{Seq: 7, Key: "", Wait: 0, UnixNanos: -3},
		{Seq: 9, Key: "üñï", Wait: 1e300, UnixNanos: 42},
	}
	buf := encodeFrames(nil, recs)
	var d FrameDecoder
	got, err := d.Decode(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}
	// Any flipped bit must fail decoding — shipped batches are strict.
	for i := range buf {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0x20
		if _, err := d.Decode(mut); err == nil {
			t.Fatalf("flip at byte %d went undetected", i)
		}
	}
	if _, err := d.Decode(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated frame buffer went undetected")
	}
}

func TestFrameDecoderReuse(t *testing.T) {
	var d FrameDecoder
	first, err := d.Decode(encodeFrames(nil, []Record{
		{Seq: 1, Key: "q/1", Wait: 1},
		{Seq: 2, Key: "q/2", Wait: 2},
	}))
	if err != nil {
		t.Fatalf("first decode: %v", err)
	}
	key := first[0].Key
	want := []Record{
		{Seq: 3, Key: "q/1", Wait: 3, UnixNanos: 30},
		{Seq: 4, Key: "q/3", Wait: 4, UnixNanos: 40},
		{Seq: 5, Key: "q/1", Wait: 5, UnixNanos: 50},
	}
	got, err := d.Decode(encodeFrames(nil, want))
	if err != nil {
		t.Fatalf("second decode: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	// A key repeated across calls shares the first call's string.
	for _, i := range []int{0, 2} {
		if unsafe.StringData(got[i].Key) != unsafe.StringData(key) {
			t.Errorf("record %d key %q not interned across calls", i, got[i].Key)
		}
	}
}

// TestFrameDecoderRepeatKeysDoNotAllocate pins the intern table's one
// rule: every key it has decoded stays interned, however many there are,
// so a follower at forecast's scale (10,000 streams) decodes a batch of
// keys it has seen before without allocating.
func TestFrameDecoderRepeatKeysDoNotAllocate(t *testing.T) {
	const distinct = 10000
	recs := make([]Record, distinct)
	for i := range recs {
		recs[i] = Record{Seq: uint64(i + 1), Key: fmt.Sprintf("site%04d.machine/queue/1-4", i), Wait: float64(i)}
	}
	frames := encodeFrames(nil, recs)
	var d FrameDecoder
	first, err := d.Decode(frames)
	if err != nil {
		t.Fatalf("first decode: %v", err)
	}
	key := first[distinct-1].Key
	if allocs := testing.AllocsPerRun(5, func() {
		if _, err := d.Decode(frames); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("decoding %d seen keys again costs %g allocations, want 0", distinct, allocs)
	}
	again, _ := d.Decode(frames)
	if unsafe.StringData(again[distinct-1].Key) != unsafe.StringData(key) {
		t.Fatal("last key no longer shares its interned string")
	}
}

func TestNotifySyncSignalsWatermarkAdvance(t *testing.T) {
	fs := NewMemFS()
	w := mustOpenReplayed(t, fs, Options{Mode: SyncEachRecord})
	ch := make(chan struct{}, 1)
	w.NotifySync(ch)
	if _, err := appendOne(w, "n", 1, 0); err != nil {
		t.Fatalf("append: %v", err)
	}
	select {
	case <-ch:
	default:
		t.Fatal("no sync notification after an acked append")
	}
	if w.SyncedSeq() != 1 {
		t.Fatalf("watermark %d, want 1", w.SyncedSeq())
	}
}

// noDirSyncFS simulates a WAL implementation that forgot to fsync the log
// directory after creating a segment: SyncDir becomes a no-op again, as
// MemFS itself behaved before the simulator tracked directory entries.
type noDirSyncFS struct{ *MemFS }

func (noDirSyncFS) SyncDir(string) error { return nil }

// TestCrashDropsCreatedButUnsyncedDirEntries is the regression test for
// the directory-fsync fix: with MemFS now modeling directory-entry
// durability, a WAL that skipped SyncDir would lose acked records to a
// power cut — so the simulator genuinely exercises the fix instead of
// letting it pass vacuously.
func TestCrashDropsCreatedButUnsyncedDirEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))

	// Direct FS-level check: a file created, written, and file-synced but
	// never dir-synced vanishes entirely at the crash.
	fs := NewMemFS()
	f, err := fs.OpenAppend("wal/orphan.wal")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := f.Write([]byte("payload")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	fs.Crash(rng)
	if names, _ := fs.List("wal"); len(names) != 0 {
		t.Fatalf("un-dir-synced file survived the crash: %v", names)
	}
	if _, err := fs.Open("wal/orphan.wal"); err == nil {
		t.Fatal("un-dir-synced file still openable after the crash")
	}

	// End to end: the real WAL dir-syncs on segment creation, so an acked
	// record survives; a WAL whose SyncDir is a no-op loses it.
	appendOne := func(fs FS) {
		w := mustOpenReplayed(t, fs, Options{Mode: SyncEachRecord})
		if _, err := appendOne(w, "acked", 1, 0); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	replayCount := func(fs FS) int {
		w, err := Open("wal", Options{FS: fs})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		st, err := w.Replay(nil)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		return st.Records
	}

	good := NewMemFS()
	appendOne(good)
	good.Crash(rng)
	if n := replayCount(good); n != 1 {
		t.Fatalf("dir-synced WAL lost the acked record: replayed %d", n)
	}

	bad := NewMemFS()
	appendOne(noDirSyncFS{bad})
	bad.Crash(rng)
	if n := replayCount(bad); n != 0 {
		t.Fatalf("SyncDir no-op still kept %d records through the crash: the simulator is not exercising the directory fsync", n)
	}
}

// TestCrashKeepsDirSyncedSegments pins the complementary direction: the
// production append path (which dir-syncs every segment it creates) keeps
// every acked record through an adversarial crash even with rotation
// creating many segments.
func TestCrashKeepsDirSyncedSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fs := NewMemFS()
	w := mustOpenReplayed(t, fs, Options{Mode: SyncEachRecord, SegmentBytes: 64})
	const n = 30
	for i := 0; i < n; i++ {
		if _, err := appendOne(w, "k", float64(i), 0); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	fs.Crash(rng)
	w2, err := Open("wal", Options{FS: fs})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	st, err := w2.Replay(nil)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if st.Records < n {
		t.Fatalf("replayed %d of %d acked records after crash", st.Records, n)
	}
}
