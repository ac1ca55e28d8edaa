package qbets

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/wal"
)

// realSnapshotChunk renders chunk 0 of a small leader's catch-up stream:
// a stream past the minimum sample size, a short stream with no bound
// yet, and one of them evicted to its cold blob. It stays small so the
// fuzzer's minimizer, which re-runs inputs byte by byte, finishes fast.
func realSnapshotChunk(tb testing.TB, byProcs bool) []byte {
	tb.Helper()
	leader := NewService(byProcs, WithSeed(1))
	for i := 0; i < 60; i++ {
		if err := leader.Observe("normal", 128, float64(10+i%7)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := leader.Observe("short", 4, 5); err != nil {
		tb.Fatal(err)
	}
	leader.EvictToCap(1)
	ss, err := leader.OpenReplicaSnapshotStream()
	if err != nil {
		tb.Fatal(err)
	}
	defer ss.Close()
	chunk, err := ss.AppendChunk(0, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return chunk
}

// probeProcs holds one processor count per category (1-4, 5-16, 17-64,
// 65+), so a probe over them reaches every stream of a queue.
var probeProcs = []int{1, 8, 32, 128}

// probeStreams calls every read API on every job shape of every adopted
// stream and returns the statuses it saw, keyed by stream.
func probeStreams(s *Service) map[string]StreamStatus {
	seen := map[string]StreamStatus{}
	for _, key := range s.Queues() {
		queue, _, ok := splitKey(key, s.byProcs.Load())
		if !ok {
			continue
		}
		for _, procs := range probeProcs {
			s.Forecast(queue, procs)
			s.Profile(queue, procs)
			s.Observations(queue, procs)
			if st, ok := s.StreamStats(queue, procs); ok {
				seen[st.Stream] = st
			}
		}
	}
	return seen
}

// installChunk runs a one-chunk catch-up install on a fresh follower.
func installChunk(byProcs bool, chunk []byte) (*Service, error) {
	s := NewService(false, WithSeed(1))
	s.SetFollower(true)
	header := fmt.Sprintf(`{"by_procs":%t,"next_seed":2,"streams":1,"chunks":1}`, byProcs)
	if err := s.BeginReplicaSnapshot(9, []byte(header)); err != nil {
		return nil, err
	}
	if err := s.ApplyReplicaSnapshotChunk(0, chunk); err != nil {
		s.AbortReplicaSnapshot()
		return nil, err
	}
	return s, s.CommitReplicaSnapshot(9)
}

// FuzzReplicaSnapshotChunk hardens shard-stream adoption, which catch-up
// snapshot chunks and sharded state files share (shardStream,
// adoptColdStream). An arbitrary chunk must never panic the install or
// any later read, a rejected chunk must be reported as ErrCorruptState,
// every adopted stream must survive a SaveShards/LoadShards round trip
// unchanged, and a first write to a stream whose forecaster blob does
// not decode must fail with ErrCorruptState instead of losing the record.
func FuzzReplicaSnapshotChunk(f *testing.F) {
	f.Add(false, realSnapshotChunk(f, false))
	f.Add(true, realSnapshotChunk(f, true))
	f.Add(true, []byte(`{"q/1-4":{"state":"AAAA","bound":5,"bound_ok":true,"observations":3}}`))
	f.Add(false, []byte(`{"q":{"state":null}}`))
	f.Add(false, []byte(`{"":{}}`))
	f.Add(true, []byte(`{"q":{"observations":-1,"trims":-7}}`))
	f.Add(false, []byte(`{"q":{"seq":18446744073709551615}}`))
	f.Add(false, []byte(`{"q":{"state":"not base64"}}`))
	f.Add(false, []byte(`[]`))
	f.Add(false, []byte(`null`))
	f.Add(false, []byte(``))

	f.Fuzz(func(t *testing.T, byProcs bool, chunk []byte) {
		s, err := installChunk(byProcs, chunk)
		if err != nil {
			if !errors.Is(err, ErrCorruptState) {
				t.Fatalf("rejected chunk reported as %v, want ErrCorruptState", err)
			}
			return
		}
		before := probeStreams(s)

		dir := t.TempDir()
		if err := s.SaveShards(dir); err != nil {
			t.Fatalf("save adopted state: %v", err)
		}
		back := NewService(false, WithSeed(1))
		if err := back.LoadShards(dir); err != nil {
			t.Fatalf("load saved state: %v", err)
		}
		if got, want := back.Queues(), s.Queues(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip changed the stream set: %q, want %q", got, want)
		}
		if after := probeStreams(back); !reflect.DeepEqual(after, before) {
			t.Fatalf("round trip changed stream statuses:\n%+v\nwant\n%+v", after, before)
		}

		// A replicated write hydrates each stream from its blob.
		var recs []wal.Record
		for i, key := range s.Queues() {
			recs = append(recs, wal.Record{Seq: uint64(10 + i), Key: key, Wait: 1})
		}
		if err := s.ApplyReplicated(9, recs); err != nil && !errors.Is(err, ErrCorruptState) {
			t.Fatalf("write to adopted streams failed with %v, want ErrCorruptState", err)
		}
		probeStreams(s)
	})
}

// TestColdAdoptedCorruptStateIsReported pins the two faults
// FuzzReplicaSnapshotChunk found in cold adoption: a stream whose blob
// does not decode failed its first write with an unclassified error, and
// a stream whose summary fields disagree with its blob hydrated silently,
// after which its published stats no longer matched its forecaster. Both
// must report ErrCorruptState and leave the stream cold, serving the
// snapshot it was adopted with. So must a blob of a state version this
// binary does not read: a leader upgraded before its followers ships
// blobs its followers adopt cold and fail on at the first write.
func TestColdAdoptedCorruptStateIsReported(t *testing.T) {
	var cores map[string]shardStream
	if err := json.Unmarshal(realSnapshotChunk(t, true), &cores); err != nil {
		t.Fatal(err)
	}
	undecodable, mismatched, future := cores["short/1-4"], cores["normal/65+"], cores["normal/65+"]
	undecodable.State = []byte("AAAA")
	mismatched.Observations = 0
	future.State = append([]byte(nil), future.State...)
	binary.LittleEndian.PutUint16(future.State[4:], 4) // the version after the magic; 3 is the newest
	for name, core := range map[string]shardStream{"undecodable": undecodable, "mismatched": mismatched, "unknown version": future} {
		chunk, err := json.Marshal(map[string]shardStream{"q/65+": core})
		if err != nil {
			t.Fatal(err)
		}
		s, err := installChunk(true, chunk)
		if err != nil {
			t.Fatalf("%s: install: %v", name, err)
		}
		if p := s.Profile("q", 128); p != nil {
			t.Errorf("%s: profile computed from corrupt state: %v", name, p)
		}
		err = s.ApplyReplicated(9, []wal.Record{{Seq: 10, Key: "q/65+", Wait: 1}})
		if !errors.Is(err, ErrCorruptState) {
			t.Errorf("%s: write reported %v, want ErrCorruptState", name, err)
		}
		st, _ := s.StreamStats("q", 128)
		if s.LiveStreams() != 0 || st.Observations != core.Observations || st.BoundSeconds != core.Bound {
			t.Errorf("%s: stream left its adopted snapshot: live %d, %+v", name, s.LiveStreams(), st)
		}
	}
}
