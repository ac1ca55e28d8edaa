package wal

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

// TestCrashRecoveryProperty is the package's core guarantee, checked as a
// property over simulated power cuts at arbitrary byte offsets: every
// record the sync policy acknowledged as durable is recovered, recovery is
// always a prefix of the appended sequence (no reordering, no phantom
// records), and corrupt or torn tails are dropped silently — replay never
// fails. Trials mix sync policies, segment sizes, rotation points, and
// mid-append power cuts.
func TestCrashRecoveryProperty(t *testing.T) {
	const trials = 150
	keys := []string{"normal", "normal/17-64", "high", "üñïçø∂é"}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%03d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)))
			fs := NewMemFS()
			dir := "wal"

			perRecordSync := trial%2 == 0
			opt := Options{FS: fs, SegmentBytes: int64(128 + rng.Intn(2048))}
			if perRecordSync {
				opt.Mode = SyncEachRecord
				// Same durability contract either way; some trials route the
				// single-threaded workload through the group-commit path.
				opt.GroupCommit = trial%4 == 0
			} else {
				opt.Mode = SyncOff
			}
			w, err := Open(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Replay(nil); err != nil {
				t.Fatal(err)
			}

			// Append a random workload, tracking the full appended sequence
			// and which prefix the policy has made durable ("acked").
			n := 20 + rng.Intn(200)
			appended := make([]Record, 0, n)
			acked := 0
			for i := 0; i < n; {
				if rng.Intn(3) == 0 {
					// Batched append: one ack covers the whole batch, so the
					// later power cut can land inside a batch's frame run.
					m := 1 + rng.Intn(8)
					batch := make([]Entry, m)
					for j := range batch {
						batch[j] = Entry{
							Key:       keys[rng.Intn(len(keys))],
							Wait:      rng.ExpFloat64() * 600,
							UnixNanos: int64(i + j),
						}
					}
					first, err := w.AppendBatch(batch)
					if err != nil {
						t.Fatalf("append batch at %d: %v", i, err)
					}
					for j, e := range batch {
						appended = append(appended, Record{Seq: first + uint64(j), Key: e.Key, Wait: e.Wait, UnixNanos: e.UnixNanos})
					}
					i += m
				} else {
					key := keys[rng.Intn(len(keys))]
					wait := rng.ExpFloat64() * 600
					seq, err := appendOne(w, key, wait, int64(i))
					if err != nil {
						t.Fatalf("append %d: %v", i, err)
					}
					appended = append(appended, Record{Seq: seq, Key: key, Wait: wait, UnixNanos: int64(i)})
					i++
				}
				if perRecordSync {
					acked = len(appended)
				}
				if rng.Intn(40) == 0 {
					if _, err := w.Rotate(); err != nil {
						t.Fatal(err)
					}
					// Rotation syncs whatever was buffered.
					acked = len(appended)
				}
				if !perRecordSync && rng.Intn(30) == 0 {
					if err := w.Sync(); err != nil {
						t.Fatal(err)
					}
					acked = len(appended)
				}
			}

			// Sometimes the power dies mid-append: a partial frame, pure
			// garbage, or an in-flight (never acked) batch lands past the
			// last durable byte.
			if rng.Intn(2) == 0 {
				base := uint64(len(appended))
				var torn []byte
				switch rng.Intn(3) {
				case 0:
					frame := appendRecord(nil, Record{Seq: base + 1, Key: "q", Wait: 1, UnixNanos: 0})
					torn = frame[:1+rng.Intn(len(frame)-1)]
				case 1:
					torn = make([]byte, 1+rng.Intn(64))
					rng.Read(torn)
				default:
					// An unacked AppendBatch caught by the power cut: its
					// complete frames reach the file unsynced, then Crash
					// tears at an arbitrary byte — typically mid-batch, often
					// mid-frame. Leading whole frames are legitimately
					// recoverable (appended, never acked); the torn one must
					// truncate at the record boundary before it.
					k := 2 + rng.Intn(4)
					for j := 0; j < k; j++ {
						rec := Record{
							Seq:       base + 1 + uint64(j),
							Key:       keys[rng.Intn(len(keys))],
							Wait:      rng.ExpFloat64() * 600,
							UnixNanos: int64(n + j),
						}
						torn = appendRecord(torn, rec)
						appended = append(appended, rec)
					}
				}
				indices, _ := listSegments(fs, dir)
				fs.TornAppend(filepath.Join(dir, segName(indices[len(indices)-1])), torn)
			}

			// Power cut. The old WAL handle is dead (MemFS enforces it).
			fs.Crash(rng)

			w2, err := Open(dir, Options{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			var recovered []Record
			stats, err := w2.Replay(func(r Record) { recovered = append(recovered, r) })
			if err != nil {
				t.Fatalf("replay after crash must never fail, got: %v", err)
			}

			// (1) Everything acked survived.
			if len(recovered) < acked {
				t.Fatalf("recovered %d records, but %d were acked durable (stats %+v)",
					len(recovered), acked, stats)
			}
			// (2) Recovery is an exact prefix of what was appended.
			if len(recovered) > len(appended) {
				t.Fatalf("recovered %d records, only %d were ever appended", len(recovered), len(appended))
			}
			for i, got := range recovered {
				if got != appended[i] {
					t.Fatalf("recovered[%d] = %+v, appended[%d] = %+v", i, got, i, appended[i])
				}
			}
			// (3) Post-crash appends resume above every recovered sequence.
			seq, err := appendOne(w2, "post", 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if seq <= stats.MaxSeq {
				t.Fatalf("post-crash seq %d not above recovered max %d", seq, stats.MaxSeq)
			}
		})
	}
}

// TestCrashDuringCompaction exercises the snapshot-compaction window:
// segments removed below a cut must never take unsnapshotted records with
// them, whatever the crash timing. The "snapshot" here is the record count
// at the cut, which is exactly what qbets persists (per-stream sequence
// numbers).
func TestCrashDuringCompaction(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		fs := NewMemFS()
		w, err := Open("wal", Options{FS: fs, Mode: SyncEachRecord, SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Replay(nil); err != nil {
			t.Fatal(err)
		}
		total := 0
		appendSome := func(k int) {
			for i := 0; i < k; i++ {
				if _, err := appendOne(w, "q", float64(total), 0); err != nil {
					t.Fatal(err)
				}
				total++
			}
		}
		appendSome(30 + rng.Intn(50))
		cut, err := w.Rotate()
		if err != nil {
			t.Fatal(err)
		}
		snapshotCount := total // what a snapshot taken here would cover
		appendSome(rng.Intn(40))
		if err := w.RemoveSegmentsBelow(cut); err != nil {
			t.Fatal(err)
		}
		appendSome(rng.Intn(20))
		fs.Crash(rng)

		w2, err := Open("wal", Options{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		var waits []float64
		_, err = w2.Replay(func(r Record) { waits = append(waits, r.Wait) })
		if err != nil {
			t.Fatal(err)
		}
		// Snapshot (first snapshotCount records) + surviving log must cover
		// every acked record exactly once: the log holds a contiguous run
		// from snapshotCount to total-1.
		if len(waits) != total-snapshotCount {
			t.Fatalf("trial %d: log holds %d records, want %d (total %d, snapshot %d)",
				trial, len(waits), total-snapshotCount, total, snapshotCount)
		}
		for i, wgot := range waits {
			if wgot != float64(snapshotCount+i) {
				t.Fatalf("trial %d: log[%d] = %g, want %g", trial, i, wgot, float64(snapshotCount+i))
			}
		}
	}
}

// TestCrashAfterReplayKeepsReplayedRecords pins the restart durability
// watermark. A process that dies without a power cut can leave whole
// records written but never fsynced; the next process replays them and
// serves them. Replay must make them durable before it counts them as
// durable: afterwards SyncedSeq is the highest replayed sequence, and a
// power cut right after the restart loses none of them.
func TestCrashAfterReplayKeepsReplayedRecords(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		fs := NewMemFS()
		w, err := Open("wal", Options{FS: fs, Mode: SyncEachRecord, SegmentBytes: int64(256 + rng.Intn(1024))})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Replay(nil); err != nil {
			t.Fatal(err)
		}
		synced := 20 + rng.Intn(80)
		for i := 1; i <= synced; i++ {
			if _, err := appendOne(w, "q", float64(i), 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		// Records the dead process wrote past its last fsync.
		indices, err := listSegments(fs, "wal")
		if err != nil {
			t.Fatal(err)
		}
		last := filepath.Join("wal", segName(indices[len(indices)-1]))
		total := synced + 1 + rng.Intn(60)
		for i := synced + 1; i <= total; i++ {
			fs.TornAppend(last, appendRecord(nil, Record{Seq: uint64(i), Key: "q", Wait: float64(i)}))
		}

		w2, err := Open("wal", Options{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := w2.Replay(nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Records != total || stats.MaxSeq != uint64(total) {
			t.Fatalf("trial %d: replayed %d records up to seq %d, want %d", trial, stats.Records, stats.MaxSeq, total)
		}
		if got := w2.SyncedSeq(); got != stats.MaxSeq {
			t.Fatalf("trial %d: watermark after replay = %d, want MaxSeq %d", trial, got, stats.MaxSeq)
		}

		fs.Crash(rng)
		w3, err := Open("wal", Options{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		var waits []float64
		if _, err := w3.Replay(func(r Record) { waits = append(waits, r.Wait) }); err != nil {
			t.Fatal(err)
		}
		if len(waits) != total {
			t.Fatalf("trial %d: power cut after replay left %d of %d replayed records", trial, len(waits), total)
		}
		for i, wgot := range waits {
			if wgot != float64(i+1) {
				t.Fatalf("trial %d: record %d = %g, want %d", trial, i, wgot, i+1)
			}
		}
	}
}

// TestCrashReplaySyncFailureRefusesLog: if the replayed segments cannot be
// made durable, Replay fails and the log stays closed to appends — the
// watermark is never published over records the disk did not confirm.
func TestCrashReplaySyncFailureRefusesLog(t *testing.T) {
	fs := NewFaultFS(NewMemFS())
	w, err := Open("wal", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Replay(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := appendOne(w, "q", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	bang := errors.New("sync: input/output error")
	fs.FailSyncs(bang)
	w2, err := Open("wal", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Replay(nil); !errors.Is(err, bang) {
		t.Fatalf("replay over a failing disk: err = %v, want %v", err, bang)
	}
	if got := w2.SyncedSeq(); got != 0 {
		t.Fatalf("watermark %d published after a failed replay sync", got)
	}
	if _, err := appendOne(w2, "q", 2, 0); err == nil {
		t.Fatal("append accepted after a failed replay")
	}
}
