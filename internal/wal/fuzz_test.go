package wal

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

// FuzzRecord hardens the record-parsing boundary the recovery path trusts:
// arbitrary segment bytes must never panic replay, never yield more data
// than the file holds, and always account for every byte as either a
// decoded record or a counted drop. Real frames embedded in the noise must
// round-trip exactly, and replay must agree with readRecord, the
// record-at-a-time oracle, on every record and every dropped byte.
func FuzzRecord(f *testing.F) {
	// A clean segment with three records.
	clean := []byte(segMagic)
	clean = appendRecord(clean, Record{Seq: 1, Key: "normal", Wait: 12.5, UnixNanos: 99})
	clean = appendRecord(clean, Record{Seq: 2, Key: "high/65+", Wait: 0, UnixNanos: -1})
	clean = appendRecord(clean, Record{Seq: 3, Key: "", Wait: 1e300, UnixNanos: 7})
	f.Add(clean)
	f.Add(clean[:len(clean)-5])                                          // torn tail
	f.Add([]byte(segMagic))                                              // header only
	f.Add([]byte("QBWAL\x00v2 not my magic"))                            // wrong magic
	f.Add([]byte{})                                                      // empty file
	f.Add(bytes.Repeat([]byte{0xFF}, 64))                                // garbage
	huge := append([]byte(segMagic), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0) // absurd length field
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		fs := NewMemFS()
		fs.TornAppend("wal/"+segName(1), data)
		w, err := Open("wal", Options{FS: fs})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		var recs []Record
		stats, err := w.Replay(func(r Record) { recs = append(recs, r) })
		if err != nil {
			t.Fatalf("replay must tolerate arbitrary bytes, got: %v", err)
		}
		if stats.Records != len(recs) {
			t.Fatalf("stats.Records %d != applied %d", stats.Records, len(recs))
		}
		if stats.DroppedBytes < 0 || stats.DroppedBytes > int64(len(data)) {
			t.Fatalf("dropped %d bytes of a %d-byte file", stats.DroppedBytes, len(data))
		}
		// Decoded records plus dropped bytes can never exceed the file.
		minSize := int64(0)
		if len(data) >= len(segMagic) && string(data[:len(segMagic)]) == segMagic {
			minSize = int64(len(segMagic))
		}
		for _, r := range recs {
			minSize += int64(frameHeaderLen + recordFixedLen + len(r.Key))
			if len(r.Key) > MaxKeyLen {
				t.Fatalf("decoded key of %d bytes exceeds MaxKeyLen", len(r.Key))
			}
		}
		if minSize+stats.DroppedBytes > int64(len(data)) {
			t.Fatalf("accounted %d bytes (records %d + dropped %d) from a %d-byte file",
				minSize+stats.DroppedBytes, minSize, stats.DroppedBytes, len(data))
		}

		// Differential check against the record-at-a-time oracle: replay
		// must decode the same records and account for the same dropped
		// bytes and truncations.
		var want []Record
		wantTrunc, wantDropped := 1, int64(len(data)) // headerless: all dropped
		if len(data) >= len(segMagic) && string(data[:len(segMagic)]) == segMagic {
			wantTrunc, wantDropped = 0, 0
			br := bufio.NewReader(bytes.NewReader(data[len(segMagic):]))
			var scratch []byte
			for {
				rec, s, consumed, err := readRecord(br, scratch)
				scratch = s
				if err != nil {
					if err != io.EOF {
						wantTrunc, wantDropped = 1, consumed+countRemaining(br)
					}
					break
				}
				want = append(want, rec)
			}
		}
		if len(recs) != len(want) {
			t.Fatalf("oracle decoded %d records, replay %d", len(want), len(recs))
		}
		for i := range want {
			if recs[i] != want[i] {
				t.Fatalf("record %d: oracle %+v, replay %+v", i, want[i], recs[i])
			}
		}
		if stats.Truncations != wantTrunc || stats.DroppedBytes != wantDropped {
			t.Fatalf("replay truncated %d segments dropping %d bytes, oracle %d dropping %d",
				stats.Truncations, stats.DroppedBytes, wantTrunc, wantDropped)
		}
	})
}
