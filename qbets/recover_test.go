package qbets

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/wal"
)

// RecoverWAL replays on GOMAXPROCS workers. These tests hold it to the
// record-at-a-time replay it replaced: the same state, byte for byte, at
// any worker count, and — while Promote replays under live reads — no
// reader-visible state that is not a whole replay group.

// recoverOneAtATime is the oracle: every record is its own replay group,
// applied on the calling goroutine in log order.
func recoverOneAtATime(s *Service, w *wal.WAL) (wal.ReplayStats, error) {
	var firstErr error
	stats, err := w.Replay(func(r wal.Record) {
		st := s.getOrCreate(r.Key)
		st.mu.Lock()
		defer st.mu.Unlock()
		if st.fc == nil {
			if err := st.rehydrateLocked(s); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
		}
		st.replayGroupLocked(s, []replayRecord{{st: st, wait: r.Wait, seq: r.Seq}})
	})
	if err == nil {
		err = firstErr
	}
	return stats, err
}

// streamDigest is what recovery must reproduce exactly for one stream.
type streamDigest struct {
	state        []byte
	lastSeq      uint64
	trims        int
	observations int
}

// digestService captures every stream's digest plus the service-level
// seed counter (stream creation order shows up there and in each state).
func digestService(t *testing.T, s *Service) (map[string]streamDigest, int64) {
	t.Helper()
	out := make(map[string]streamDigest)
	for k, st := range s.snapshotStreams() {
		st.mu.RLock()
		d := streamDigest{lastSeq: st.lastSeq}
		if st.fc != nil {
			b, err := st.fc.MarshalBinary()
			if err != nil {
				st.mu.RUnlock()
				t.Fatal(err)
			}
			d.state, d.trims, d.observations = b, st.fc.ChangePoints(), st.fc.Observations()
		} else {
			snap := st.snap.Load()
			d.state, d.trims, d.observations = st.cold, snap.trims, snap.observations
		}
		st.mu.RUnlock()
		out[k] = d
	}
	return out, s.nextSeed.Load()
}

func compareDigests(t *testing.T, got, want map[string]streamDigest) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d streams, oracle %d", len(got), len(want))
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		g, ok := got[k]
		w := want[k]
		switch {
		case !ok:
			t.Fatalf("stream %s missing after recovery", k)
		case g.lastSeq != w.lastSeq:
			t.Fatalf("stream %s: lastSeq %d, oracle %d", k, g.lastSeq, w.lastSeq)
		case g.trims != w.trims:
			t.Fatalf("stream %s: %d trims, oracle %d", k, g.trims, w.trims)
		case g.observations != w.observations:
			t.Fatalf("stream %s: %d observations, oracle %d", k, g.observations, w.observations)
		case !bytes.Equal(g.state, w.state):
			t.Fatalf("stream %s: serialized state differs from the oracle's", k)
		}
	}
}

// skewedLog returns n records over keys with Zipf-skewed stream choice, so
// replay groups range from one record to hundreds, sequence numbers 1..n.
// Half the streams shift regime halfway through, so trims happen.
func skewedLog(keys []string, n int, seed int64) []wal.Record {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 2, uint64(len(keys)-1))
	recs := make([]wal.Record, n)
	for i := range recs {
		k := int(zipf.Uint64())
		scale := 100.0
		if i > n/2 && k%2 == 0 {
			scale = 20000
		}
		recs[i] = wal.Record{Seq: uint64(i + 1), Key: keys[k], Wait: rng.ExpFloat64() * scale, UnixNanos: 1}
	}
	return recs
}

// writeLog writes recs (whose Seq must run 1..n) to a fresh log "wal" on
// fs, rotating at segmentBytes (0: the WAL default).
func writeLog(t testing.TB, fs wal.FS, recs []wal.Record, segmentBytes int64) {
	t.Helper()
	w, err := wal.Open("wal", wal.Options{Mode: wal.SyncOff, FS: fs, SegmentBytes: segmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Replay(nil); err != nil {
		t.Fatal(err)
	}
	// Batches of 1000 let the log rotate, so it spans several segments.
	for base := 0; base < len(recs); base += 1000 {
		var entries []wal.Entry
		for _, r := range recs[base:min(base+1000, len(recs))] {
			entries = append(entries, wal.Entry{Key: r.Key, Wait: r.Wait, UnixNanos: r.UnixNanos})
		}
		if _, err := w.AppendBatch(entries); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// followerState builds a service holding recs through the replication
// apply path, so every stream carries a lastSeq anchor into the log.
func followerState(t *testing.T, recs []wal.Record) *Service {
	t.Helper()
	s := NewService(true)
	s.SetFollower(true)
	if err := s.ApplyReplicated(0, recs); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRecoverWALMatchesRecordAtATimeOracle is the differential check:
// parallel RecoverWAL at GOMAXPROCS 1, 2 and 8 against record-at-a-time
// replay, over interleaved logs, a snapshot-covered prefix (the lastSeq
// skip), cold sharded-restore streams (rehydration), torn tails, and an
// injected rehydration failure, which must surface as the error while
// every other stream still recovers.
func TestRecoverWALMatchesRecordAtATimeOracle(t *testing.T) {
	keys := recoverBenchKeys(240)
	recs := skewedLog(keys, 24000, 3)
	prefix := recs[:len(recs)*2/5]

	snapBlob, err := followerState(t, prefix).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	shardDir := filepath.Join(t.TempDir(), "state")
	if err := followerState(t, prefix).SaveShards(shardDir, 4); err != nil {
		t.Fatal(err)
	}
	badKey := prefix[0].Key

	cases := []struct {
		name string
		// base builds the pre-recovery state; called once per recovery.
		base func(t *testing.T) *Service
		// tear damages the written log.
		tear    func(fs *wal.MemFS)
		wantErr bool
	}{
		{name: "interleaved", base: func(*testing.T) *Service { return NewService(true) }},
		{name: "snapshot-prefix", base: func(t *testing.T) *Service {
			s := NewService(true)
			if err := s.UnmarshalBinary(snapBlob); err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{name: "sharded-cold", base: func(t *testing.T) *Service {
			s, err := LoadServiceShards(shardDir, true)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{name: "torn-tails", base: func(*testing.T) *Service { return NewService(true) },
			tear: func(fs *wal.MemFS) {
				names, _ := fs.List("wal")
				// A torn frame at the end of a middle segment and of the
				// last one: each drops its tail, replay goes on.
				for _, n := range []string{names[len(names)/2], names[len(names)-1]} {
					fs.TornAppend(filepath.Join("wal", n), []byte{40, 0, 0, 0, 1, 2, 3, 4, 5, 6})
				}
			}},
		{name: "rehydration-failure", wantErr: true, base: func(t *testing.T) *Service {
			s, err := LoadServiceShards(shardDir, true)
			if err != nil {
				t.Fatal(err)
			}
			st := s.lookup(badKey)
			st.mu.Lock()
			st.cold = []byte("not a forecaster")
			st.mu.Unlock()
			return s
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := wal.NewMemFS()
			writeLog(t, fs, recs, 128<<10)
			if tc.tear != nil {
				tc.tear(fs)
			}
			open := func() *wal.WAL {
				w, err := wal.Open("wal", wal.Options{Mode: wal.SyncOff, FS: fs})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { w.Close() })
				return w
			}
			oracle := tc.base(t)
			wantStats, wantErr := recoverOneAtATime(oracle, open())
			if (wantErr != nil) != tc.wantErr {
				t.Fatalf("oracle error = %v, want error: %v", wantErr, tc.wantErr)
			}
			want, wantSeed := digestService(t, oracle)
			trimmed := 0
			for _, d := range want {
				if d.trims > 0 {
					trimmed++
				}
			}
			if trimmed == 0 {
				t.Fatal("no stream trimmed: the trims comparison checks nothing")
			}
			if tc.tear != nil && wantStats.Truncations != 2 {
				t.Fatalf("torn log replayed with %d truncations, want 2", wantStats.Truncations)
			}

			for _, procs := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					s := tc.base(t)
					stats, err := s.RecoverWAL(open())
					if tc.wantErr {
						if err == nil || !strings.Contains(err.Error(), badKey) {
							t.Fatalf("RecoverWAL error = %v, want the rehydration failure of %q", err, badKey)
						}
					} else if err != nil {
						t.Fatal(err)
					}
					if stats != wantStats {
						t.Fatalf("stats %+v, oracle %+v", stats, wantStats)
					}
					got, seed := digestService(t, s)
					if seed != wantSeed {
						t.Fatalf("seed counter %d, oracle %d", seed, wantSeed)
					}
					compareDigests(t, got, want)
				})
			}
		})
	}
}

// TestPromoteRecoverCoherentUnderReads races lock-free readers against
// Promote, the one RecoverWAL caller that runs while the node serves.
// Trimming is off, so a stream's observation count only grows, one replay
// group at a time: every state a reader sees must carry a generation that
// pins its observation count (one count per generation, strictly more
// observations at a later one). The log opens with three worker batches
// of one stream, so that stream's groups are exactly those batches and
// its visible counts must sit on their boundaries.
func TestPromoteRecoverCoherentUnderReads(t *testing.T) {
	const solo = "solo"
	soloKey := solo + "/" + CategoryOf(1).Label()
	others := recoverBenchKeys(16)
	rng := rand.New(rand.NewSource(9))
	var recs []wal.Record
	add := func(key string) {
		recs = append(recs, wal.Record{Seq: uint64(len(recs) + 1), Key: key, Wait: rng.ExpFloat64() * 100, UnixNanos: 1})
	}
	for i := 0; i < 3*replayBatch; i++ {
		add(soloKey)
	}
	for i := 0; i < 2*replayBatch; i++ {
		add(others[rng.Intn(len(others))])
	}
	const replicated = 1000 // the follower's applied prefix, all solo
	fs := wal.NewMemFS()
	writeLog(t, fs, recs, 128<<10)

	s := NewService(true, WithoutTrimming())
	s.SetFollower(true)
	if err := s.ApplyReplicated(0, recs[:replicated]); err != nil {
		t.Fatal(err)
	}
	// The stream's states so far are its creation (a reader may still be
	// served it: ApplyReplicated's group is published lazily) and the
	// replicated prefix. Worker batch b then holds sequence numbers
	// (b-1)*replayBatch+1 .. b*replayBatch; those in the replicated prefix
	// are skipped.
	boundaries := map[int]bool{0: true, replicated: true}
	seen := replicated
	for b := 1; b <= 3; b++ {
		seen = max(seen, b*replayBatch)
		boundaries[seen] = true
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			obsAt := make(map[string]map[uint64]int)
			last := make(map[string][2]uint64)
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, q := range []string{solo, "q00001", "q00003"} {
					st, ok := s.StreamStats(q, 1)
					if !ok {
						continue
					}
					if q == solo && !boundaries[st.Observations] {
						t.Errorf("solo stream visible with %d observations, not a replay-group boundary", st.Observations)
						return
					}
					m := obsAt[q]
					if m == nil {
						m = make(map[uint64]int)
						obsAt[q] = m
					}
					if n, ok := m[st.Generation]; ok && n != st.Observations {
						t.Errorf("%s generation %d seen with %d and %d observations", q, st.Generation, n, st.Observations)
						return
					}
					m[st.Generation] = st.Observations
					prev := last[q]
					if st.Generation < prev[0] || (st.Generation > prev[0] && uint64(st.Observations) <= prev[1] && prev[0] > 0) {
						t.Errorf("%s went from gen %d/%d observations to gen %d/%d", q, prev[0], prev[1], st.Generation, st.Observations)
						return
					}
					last[q] = [2]uint64{st.Generation, uint64(st.Observations)}
				}
			}
		}()
	}
	w, err := wal.Open("wal", wal.Options{Mode: wal.SyncOff, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	_, perr := s.Promote(w)
	close(done)
	wg.Wait()
	if perr != nil {
		t.Fatal(perr)
	}
	if st, _ := s.StreamStats(solo, 1); st.Observations != seen {
		t.Fatalf("solo stream recovered %d observations, want %d", st.Observations, seen)
	}
}
