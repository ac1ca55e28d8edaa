package qbets

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// encodeLegacy is a copy of the retired single-file state encoder: one
// JSON document with every stream's serialized forecaster and WAL sequence
// anchor. It produces the files LoadShards migrates.
func encodeLegacy(s *Service) ([]byte, error) {
	type serviceBlob struct {
		ByProcs    bool              `json:"by_procs"`
		NextSeed   int64             `json:"next_seed"`
		Streams    map[string][]byte `json:"streams"`
		StreamSeqs map[string]uint64 `json:"stream_seqs,omitempty"`
	}
	streams := streamsOf(s)
	blob := serviceBlob{
		ByProcs:    s.byProcs.Load(),
		NextSeed:   s.nextSeed.Load(),
		Streams:    make(map[string][]byte, len(streams)),
		StreamSeqs: make(map[string]uint64, len(streams)),
	}
	for k, st := range streams {
		st.mu.RLock()
		b := st.cold
		var err error
		if st.fc != nil {
			b, err = st.fc.MarshalBinary()
		}
		seq := st.lastSeq
		st.mu.RUnlock()
		if err != nil {
			return nil, err
		}
		blob.Streams[k] = b
		blob.StreamSeqs[k] = seq
	}
	return json.Marshal(blob)
}

// EncodeLegacyState exposes encodeLegacy to the external test package.
var EncodeLegacyState = encodeLegacy

// legacyFixture builds a WAL-anchored service (replicated records carry
// sequence numbers, and the regime shift forces trims) and writes it in
// the legacy format to dir/state.json.
func legacyFixture(t *testing.T, dir string) (*Service, string) {
	t.Helper()
	recs := skewedLog(recoverBenchKeys(24), 3000, 11)
	s := followerState(t, recs)
	s.SetFollower(false)
	blob, err := encodeLegacy(s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "state.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return s, path
}

// TestMigrateLegacyStateFile: a legacy single-file state restores exactly
// (per-stream state, lastSeq anchors, the seed counter), is moved aside to
// <path>.legacy-*, and leaves a sharded generation at <path> that the next
// load and the next save both treat as the state directory.
func TestMigrateLegacyStateFile(t *testing.T) {
	dir := t.TempDir()
	orig, path := legacyFixture(t, dir)
	want, wantSeed := digestService(t, orig)
	trimmed := false
	for _, d := range want {
		trimmed = trimmed || d.trims > 0
	}
	if !trimmed {
		t.Fatal("no stream trimmed: the trims comparison checks nothing")
	}

	migrated, err := LoadServiceShards(path, true)
	if err != nil {
		t.Fatal(err)
	}
	got, seed := digestService(t, migrated)
	if seed != wantSeed {
		t.Fatalf("seed counter %d, original %d", seed, wantSeed)
	}
	compareDigests(t, got, want)

	legacy, err := filepath.Glob(path + ".legacy-*")
	if err != nil || len(legacy) != 1 {
		t.Fatalf("legacy file not moved aside exactly once: %v, %v", legacy, err)
	}
	if _, err := os.Stat(filepath.Join(path, currentFile)); err != nil {
		t.Fatalf("no sharded generation at %s after migration: %v", path, err)
	}

	// The migrated directory loads as ordinary sharded state, and the next
	// save publishes a fresh generation there.
	reloaded, err := LoadServiceShards(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := digestService(t, reloaded); len(got) != len(want) {
		t.Fatalf("reloaded %d streams, want %d", len(got), len(want))
	}
	before, _ := os.ReadFile(filepath.Join(path, currentFile))
	reloaded.Observe("q00000", 1, 5)
	if err := reloaded.SaveShards(path); err != nil {
		t.Fatal(err)
	}
	after, _ := os.ReadFile(filepath.Join(path, currentFile))
	if string(after) == string(before) {
		t.Fatalf("save after migration did not publish a new generation (CURRENT %q)", after)
	}
	final, err := LoadServiceShards(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := final.Observations("q00000", 1), reloaded.Observations("q00000", 1); g != w {
		t.Fatalf("post-migration save restored %d observations, want %d", g, w)
	}
}

// TestMigrateLegacyCorrupt: a truncated legacy file is corruption — it is
// left where it was for the caller to quarantine, and nothing is migrated.
func TestMigrateLegacyCorrupt(t *testing.T) {
	dir := t.TempDir()
	_, path := legacyFixture(t, dir)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadServiceShards(path, true); !errors.Is(err, ErrCorruptState) {
		t.Fatalf("truncated legacy file: err = %v, want ErrCorruptState", err)
	}
	if fi, err := os.Stat(path); err != nil || !fi.Mode().IsRegular() {
		t.Fatalf("corrupt legacy file not left in place: %v", err)
	}
	if legacy, _ := filepath.Glob(path + ".legacy-*"); len(legacy) != 0 {
		t.Fatalf("corrupt legacy file was migrated: %v", legacy)
	}
	qpath, err := QuarantineStateFile(path)
	if err != nil || !strings.Contains(qpath, ".corrupt-") {
		t.Fatalf("quarantine: %q, %v", qpath, err)
	}
}

// TestShardCount pins the derived shard count: one shard per
// streamsPerShard streams, at least one.
func TestShardCount(t *testing.T) {
	for _, c := range []struct{ streams, want int }{
		{0, 1}, {1, 1}, {streamsPerShard, 1}, {streamsPerShard + 1, 2}, {1 << 20, 64},
	} {
		if got := shardCount(c.streams); got != c.want {
			t.Errorf("shardCount(%d) = %d, want %d", c.streams, got, c.want)
		}
	}
}
