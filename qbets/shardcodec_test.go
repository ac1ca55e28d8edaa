package qbets

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// encodeShardCores renders m with appendShardCores in json.Marshal's key
// order.
func encodeShardCores(m map[string]shardStream) ([]byte, error) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return appendShardCores(nil, keys, func(i int) (shardStream, error) { return m[keys[i]], nil })
}

// savedGeneration saves a small service (hydrated and cold streams, one
// below its minimum sample size) as a one-shard generation and returns
// the CURRENT, manifest and shard-file bytes.
func savedGeneration(tb testing.TB) (current, manifest, shard []byte) {
	tb.Helper()
	s := NewService(true, WithSeed(3))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 70; i++ {
		for _, procs := range []int{2, 40} {
			if err := s.Observe("site0001.machine/queue", procs, rng.ExpFloat64()*600); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := s.Observe("x<&>", 1, 7); err != nil {
		tb.Fatal(err)
	}
	s.EvictToCap(2)
	dir := tb.TempDir()
	if err := s.saveShards(dir, 1); err != nil {
		tb.Fatal(err)
	}
	read := func(parts ...string) []byte {
		b, err := os.ReadFile(filepath.Join(append([]string{dir}, parts...)...))
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	current = read(currentFile)
	gen := strings.TrimSpace(string(current))
	return current, read(gen, "manifest.json"), read(gen, shardFileName(0))
}

// compactStateSeeds returns version-3 forecaster blobs for the shard
// fuzzers' seed corpora: the default config with a uvarint and with an f64
// history, each non-default config flag, and truncations of the flags
// byte and of fields.
func compactStateSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	blob := func(frac float64, opts ...Option) []byte {
		f := New(append([]Option{WithSeed(3)}, opts...)...)
		for i := 0; i < 70; i++ {
			f.Observe(float64(10+(i*37)%70) + frac)
		}
		b, err := f.MarshalBinary()
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	plain, fractional := blob(0), blob(0.5)
	// Mode (flag bit 2) and a custom rare-event table (bit 6) have no
	// Option, so they are spliced into the default blob: the mode's
	// zigzag varint follows the flags byte, and the table follows the
	// seed and the four counts.
	const flagsAt = 6
	mode := slices.Concat(plain[:flagsAt+1], []byte{2}, plain[flagsAt+1:]) // ModeExact
	mode[flagsAt] |= 1 << 2
	at := flagsAt + 1
	for i := 0; i < 5; i++ {
		_, n := binary.Uvarint(plain[at:])
		at += n
	}
	entry := binary.LittleEndian.AppendUint64(nil, math.Float64bits(0.5))
	entry = binary.LittleEndian.AppendUint64(entry, 6)
	table := slices.Concat(plain[:at], []byte{1}, entry, plain[at:])
	table[flagsAt] |= 1 << 6
	valid := [][]byte{
		plain, fractional, mode, table,
		blob(0, WithQuantile(0.9)), blob(0, WithConfidence(0.99)), blob(0, WithoutTrimming()),
		blob(0, WithFixedChangeThreshold(4)), blob(0.5, WithMaxHistory(60)),
	}
	truncated := [][]byte{plain[:flagsAt], plain[:flagsAt+2], table[:at+5], fractional[:len(fractional)-3]}
	for i, b := range append(valid, truncated...) {
		if err := New().UnmarshalBinary(b); (err == nil) != (i < len(valid)) {
			tb.Fatalf("seed %d (%x): decode error %v", i, b, err)
		}
	}
	return append(valid, truncated...)
}

// compactStateDocs wraps each compactStateSeeds blob as a one-stream
// shard document whose summary fields are the blob's own when it decodes.
func compactStateDocs(tb testing.TB) (docs, blobs [][]byte) {
	tb.Helper()
	for _, blob := range compactStateSeeds(tb) {
		core := shardStream{State: blob, Bound: 5, BoundOK: true, Observations: 3}
		if f := New(); f.UnmarshalBinary(blob) == nil {
			bound, ok := f.Forecast()
			core = shardStream{
				State: blob, Bound: bound, BoundOK: ok, Observations: f.Observations(),
				MinObservations: f.MinObservations(), Trims: f.ChangePoints(),
			}
		}
		doc, err := encodeShardCores(map[string]shardStream{"q": core})
		if err != nil {
			tb.Fatal(err)
		}
		docs, blobs = append(docs, doc), append(blobs, blob)
	}
	return docs, blobs
}

// FuzzShardCores holds the shard-core codec to encoding/json in both
// directions. Any document must decode exactly as json.Unmarshal decodes
// it into a map[string]shardStream — same accept/reject, same value —
// and any cores must encode to json.Marshal's bytes (or fail where it
// fails: a NaN or infinite bound). Encoder output without escapes must
// take the decoder's fast path.
func FuzzShardCores(f *testing.F) {
	_, _, shard := savedGeneration(f)
	f.Add(shard, "q/1-4", []byte{1, 2, 3}, uint64(9), 12.5, true, 100, 59, 1, int64(1700000000))
	f.Add(realSnapshotChunk(f, true), "", []byte(nil), uint64(0), 0.0, false, 0, 0, 0, int64(0))
	f.Add(realSnapshotChunk(f, false), "a <b>\xff", []byte{}, uint64(math.MaxUint64), 1e-7, false, -1, 0, -3, int64(-1))
	f.Add([]byte(`{}`), "k", []byte("blob"), uint64(1), 1e21, true, math.MaxInt, 0, 0, int64(math.MinInt64))
	f.Add([]byte(`{"k":{"state":"AAAA","seq":0,"bound":-0,"bound_ok":false}}`), "k", []byte("x"), uint64(0), math.NaN(), false, 0, 0, 0, int64(0))
	f.Add([]byte(`{"k":{"state":"AAAA"},"k":{"state":null}}`), "k", []byte("x"), uint64(0), math.Inf(-1), false, 0, 0, 0, int64(0))
	f.Add([]byte(`{"k":{"STATE":"AAAA","bound":1e400}}`), "k", []byte("x"), uint64(0), 5e-324, false, 0, 0, 0, int64(0))
	f.Add([]byte(`{"k":{"state":"AA\nAA","observations":1.0}}`), "k", []byte("x"), uint64(0), -123.456, false, 0, 0, 0, int64(0))
	f.Add([]byte(` {"k":{"state":"AAA="}} `), "k", []byte("x"), uint64(0), 0.1, false, 0, 0, 0, int64(0))
	docs, blobs := compactStateDocs(f)
	for i, doc := range docs {
		f.Add(doc, "q", blobs[i], uint64(i), 16.0, true, 70, 59, 0, int64(0))
	}
	for _, doc := range []string{
		`null`,
		"{\"k\":{\"state\":\"AAAA\r\nAAAA\"}}",
		`{"k":{"state":"AA\"AA"}}`,
		`{"k\u0041":{"state":null},"kA":{"state":null}}`,
		`{"k":{"state":null,"seq":01}}`,
		`{"k":{"state":null,"seq":-0,"trims":-0}}`,
		`{"k":{"state":null,"observations":9223372036854775808}}`,
		`{"k":{"state":null,"bound":1.5e-7,"bound_ok":true,"last_trim_unix":-1}}`,
	} {
		f.Add([]byte(doc), "k", []byte("x"), uint64(0), 0.0, false, 0, 0, 0, int64(0))
	}

	f.Fuzz(func(t *testing.T, doc []byte, key string, state []byte, seq uint64, bound float64, boundOK bool,
		observations, minObservations, trims int, lastTrimUnix int64) {
		got, gerr := parseShardCores(doc)
		var want map[string]shardStream
		werr := json.Unmarshal(doc, &want)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("parseShardCores err %v, json.Unmarshal err %v", gerr, werr)
		}
		if gerr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("parseShardCores decoded\n%+v\njson.Unmarshal\n%+v", got, want)
		}

		core := shardStream{
			State: state, Seq: seq, Bound: bound, BoundOK: boundOK, Observations: observations,
			MinObservations: minObservations, Trims: trims, LastTrimUnix: lastTrimUnix,
		}
		cores := map[string]shardStream{key: core, key + "/2": {State: state, Bound: -bound, Trims: trims}}
		enc, eerr := encodeShardCores(cores)
		ref, rerr := json.Marshal(cores)
		if (eerr == nil) != (rerr == nil) {
			t.Fatalf("appendShardCores err %v, json.Marshal err %v", eerr, rerr)
		}
		if eerr != nil {
			return
		}
		if !bytes.Equal(enc, ref) {
			t.Fatalf("appendShardCores wrote\n%s\njson.Marshal\n%s", enc, ref)
		}
		if _, ok := parseCanonicalShardCores(enc); !ok && !bytes.Contains(enc, []byte{'\\'}) {
			t.Fatalf("encoder output without escapes missed the fast path: %s", enc)
		}
	})
}

// FuzzLoadShards hardens the state directory a restart trusts: CURRENT,
// manifest.json and a shard file, each arbitrary. Every input must load
// or fail with ErrCorruptState (quarantine it) or an os.IsNotExist error
// (no state yet) — never panic, and never fail as an I/O error, which
// would stop a restart instead of quarantining the directory.
func FuzzLoadShards(f *testing.F) {
	current, manifest, shard := savedGeneration(f)
	f.Add(current, manifest, shard)
	f.Add([]byte("gen-1\n"), manifest, shard)
	f.Add([]byte("../gen-1"), manifest, shard)
	f.Add([]byte("gen-1\x00"), manifest, shard)
	f.Add([]byte(""), manifest, shard)
	f.Add(current, []byte(`{"by_procs":true,"next_seed":4,"shards":2,"streams":3}`), shard)
	f.Add(current, []byte(`{"shards":4611686018427387904,"streams":4611686018427387904}`), shard)
	f.Add(current, []byte(`{"shards":1,"streams":-1}`), []byte(`{}`))
	f.Add(current, []byte(`{"shards":1}`), []byte(`{"q":{"state":"AAAA","bound":5,"bound_ok":true}}`))
	f.Add(current, []byte(`not json`), shard)
	f.Add(current, manifest, []byte(`{"k":{"state":"`))
	docs, _ := compactStateDocs(f)
	for _, doc := range docs {
		f.Add(current, []byte(`{"by_procs":false,"next_seed":4,"shards":1,"streams":1}`), doc)
	}

	f.Fuzz(func(t *testing.T, current, manifest, shard []byte) {
		dir := t.TempDir()
		gen := filepath.Join(dir, savedGenName(current))
		write := func(path string, b []byte) {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		write(filepath.Join(dir, currentFile), current)
		if err := os.MkdirAll(gen, 0o755); err != nil {
			t.Fatal(err)
		}
		write(filepath.Join(gen, "manifest.json"), manifest)
		write(filepath.Join(gen, shardFileName(0)), shard)

		s := NewService(false, WithSeed(1))
		err := s.LoadShards(dir)
		if err != nil {
			if !errors.Is(err, ErrCorruptState) && !os.IsNotExist(err) {
				t.Fatalf("LoadShards failed with %v, want ErrCorruptState or os.IsNotExist", err)
			}
			return
		}
		m, perr := parseShardCores(shard)
		if perr != nil {
			t.Fatalf("loaded a state whose shard file does not decode: %v", perr)
		}
		if s.NumStreams() != len(m) {
			t.Fatalf("loaded %d streams from a shard file holding %d", s.NumStreams(), len(m))
		}
		probeStreams(s)
	})
}

// savedGenName is the generation directory a fuzz input's shard files
// go in: the one its CURRENT names when that is a plausible name, so the
// triple is read back, and a fixed one otherwise.
func savedGenName(current []byte) string {
	if gen := strings.TrimSpace(string(current)); isGenName(gen) {
		return gen
	}
	return "gen-1"
}

// TestShardCoresMatchSavedFormat pins the codec on a service's real
// state: a saved shard file and catch-up chunks are json.Marshal's bytes
// for the cores they decode to, and decode through the fast path unless
// a key needed an escape (the saved generation's "x<&>" does).
func TestShardCoresMatchSavedFormat(t *testing.T) {
	_, _, shard := savedGeneration(t)
	docs := [][]byte{shard, realSnapshotChunk(t, true), realSnapshotChunk(t, false)}
	for i, doc := range docs {
		m, err := parseShardCores(doc)
		if err != nil || len(m) == 0 {
			t.Fatalf("doc %d: %d streams, %v", i, len(m), err)
		}
		if _, ok := parseCanonicalShardCores(doc); !ok && !bytes.Contains(doc, []byte{'\\'}) {
			t.Fatalf("doc %d: fast path refused a document the encoder wrote", i)
		}
		ref, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(doc, ref) {
			t.Fatalf("doc %d: encoder wrote\n%s\njson.Marshal writes\n%s", i, doc, ref)
		}
	}
}

// shardCoreBenchChunk renders chunk 0 of a 256-stream service shaped like
// a restart's catch-up: forecast-style keys, 100 waits per stream, every
// stream cold as it is after a restart's eviction pass.
func shardCoreBenchChunk(b *testing.B) (chunk []byte, keys []string, cores map[string]shardStream) {
	s := NewService(true, WithSeed(1))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		queue := fmt.Sprintf("site%04d.machine/queue", i)
		for _, procs := range probeProcs {
			for j := 0; j < 100; j++ {
				if err := s.Observe(queue, procs, rng.ExpFloat64()*600); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	s.EvictToCap(0)
	ss, err := s.OpenReplicaSnapshotStream()
	if err != nil {
		b.Fatal(err)
	}
	defer ss.Close()
	if ss.Chunks() != 1 {
		b.Fatalf("%d chunks, want 1", ss.Chunks())
	}
	if chunk, err = ss.AppendChunk(0, nil); err != nil {
		b.Fatal(err)
	}
	if cores, err = parseShardCores(chunk); err != nil {
		b.Fatal(err)
	}
	for k := range cores {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return chunk, keys, cores
}

// BenchmarkShardCoreCodec times the shard-core codec on one 256-stream
// catch-up chunk (about 370 KB): encode is the leader's AppendChunk work
// past the per-stream locks, decode the follower's
// ApplyReplicaSnapshotChunk parse. MB/s is over the chunk's bytes.
//
//	go test -run '^$' -bench ShardCoreCodec -benchmem ./qbets/
func BenchmarkShardCoreCodec(b *testing.B) {
	chunk, keys, cores := shardCoreBenchChunk(b)
	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, len(chunk))
		b.SetBytes(int64(len(chunk)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = appendShardCores(buf[:0], keys, func(j int) (shardStream, error) { return cores[keys[j]], nil })
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(chunk)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := parseShardCores(chunk); err != nil {
				b.Fatal(err)
			}
		}
	})
}
