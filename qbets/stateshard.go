package qbets

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/parallel"
)

// Service persistence: a deployed service accumulates months of history
// per stream; the state directory lets it restart with that history
// intact. The registry is spread over N shard files written and read in
// parallel, and a restore adopts every stream *cold*: the per-stream
// summary core published in the shard file becomes the stream's forecast
// snapshot directly, the serialized forecaster blob is kept as the cold
// blob, and no BMBP state is unmarshaled until a stream's first write
// rehydrates it (evict.go). Loading 1M streams costs 1M small struct
// builds, not 1M history decodes.
//
// On-disk layout (dir is a directory, not a file):
//
//	dir/CURRENT            — name of the live generation directory
//	dir/gen-<unixnano>/
//	    manifest.json      — service-level header + shard count
//	    shard-0000.json …  — the streams whose key hashes into the shard
//
// A save writes a complete new generation, fsyncs it, then atomically
// republishes CURRENT — the same crash story as writeFileAtomic, one
// level up. Old generations are deleted best-effort after the swap;
// QuarantineStateFile renames the whole directory, so corrupt-state
// handling covers it unchanged. A state path that names a regular file
// holds the retired single-file format, which LoadShards migrates once.

// shardManifest is the service-level header of one saved generation.
type shardManifest struct {
	ByProcs  bool  `json:"by_procs"`
	NextSeed int64 `json:"next_seed"`
	Shards   int   `json:"shards"`
	Streams  int   `json:"streams"`
}

// shardStream is one stream in a shard file: the serialized forecaster
// plus the summary core a cold adoption needs to publish an exact forecast
// snapshot without decoding State.
type shardStream struct {
	State           []byte  `json:"state"`
	Seq             uint64  `json:"seq,omitempty"`
	Bound           float64 `json:"bound,omitempty"`
	BoundOK         bool    `json:"bound_ok,omitempty"`
	Observations    int     `json:"observations,omitempty"`
	MinObservations int     `json:"min_observations,omitempty"`
	Trims           int     `json:"trims,omitempty"`
	LastTrimUnix    int64   `json:"last_trim_unix,omitempty"`
}

const currentFile = "CURRENT"

// coreLocked captures a stream's summary core. Caller holds at least the
// stream's read lock. For a hydrated stream the forecaster is settled (the
// write paths' eager-refit invariant), so Forecast is a pure read; for a
// cold stream the published snapshot is exact — eviction publishes before
// dropping the forecaster.
func (st *stream) coreLocked() (blob []byte, core shardStream, err error) {
	if st.fc != nil {
		blob, err = st.fc.MarshalBinary()
		if err != nil {
			return nil, core, err
		}
		bound, ok := st.fc.Forecast()
		core = shardStream{
			Bound: bound, BoundOK: ok,
			Observations:    st.fc.Observations(),
			MinObservations: st.fc.MinObservations(),
			Trims:           st.fc.ChangePoints(),
			LastTrimUnix:    st.lastTrimUnix,
		}
	} else {
		blob = st.cold
		snap := st.snap.Load()
		core = shardStream{
			Bound: snap.boundSeconds, BoundOK: snap.boundOK,
			Observations:    snap.observations,
			MinObservations: snap.minObservations,
			Trims:           snap.trims,
			LastTrimUnix:    snap.lastTrimUnix,
		}
	}
	core.Seq = st.lastSeq
	return blob, core, nil
}

// streamsPerShard sizes a save: one shard file per 16,384 streams (64 per
// million), at least one, so a large registry saves and loads in parallel
// while a small one writes a single file.
const streamsPerShard = 16384

func shardCount(streams int) int {
	return max(1, (streams+streamsPerShard-1)/streamsPerShard)
}

// SaveShards writes the service's state as a sharded generation under dir,
// creating dir if needed, with the shard count derived from the stream
// count. Safe to call while serving: streams are read-locked one at a
// time.
//
// When a write-ahead log is attached, a successful save also compacts it:
// the log is rotated before the snapshot is taken, and once the new
// generation is durably published the segments it fully covers are
// deleted. The ordering makes the window crash-safe in both directions —
// a crash before CURRENT moves leaves every segment in place (recovery
// replays a little extra, skipped via the per-stream sequence numbers),
// and segments are only deleted after the generation that supersedes them
// is readable. Compaction failures are counted but do not fail the save:
// the snapshot is good, the log is merely longer than necessary.
func (s *Service) SaveShards(dir string) error {
	return s.saveShards(dir, 0)
}

// saveShards is SaveShards with an explicit shard count; shards <= 0
// derives it from the stream count.
func (s *Service) saveShards(dir string, shards int) error {
	cut, rotated := s.preSaveRotate()
	idx := s.index.Load()
	if shards <= 0 {
		shards = shardCount(idx.count())
	}

	// Partition by key hash, then render shards in parallel — each worker
	// owns its shard's key list wholesale, so no cross-worker
	// coordination. The index walk is in key order, so each shard's keys
	// come out sorted, the order encoding/json gives a map.
	type part struct {
		keys []string
		sts  []*stream
	}
	parts := make([]part, shards)
	streams := 0
	idx.forEachOrdered(func(k string, st *stream) bool {
		p := &parts[keyHash(k)%uint32(shards)]
		p.keys, p.sts = append(p.keys, k), append(p.sts, st)
		streams++
		return true
	})

	gen := fmt.Sprintf("gen-%d", time.Now().UnixNano())
	genDir := filepath.Join(dir, gen)
	if err := os.MkdirAll(genDir, 0o755); err != nil {
		return err
	}
	errs := make([]error, shards)
	parallel.ForEachIndex(shards, func(i int) {
		p := parts[i]
		doc, err := appendShardCores(nil, p.keys, func(j int) (shardStream, error) {
			return coreOf(p.keys[j], p.sts[j])
		})
		if err != nil {
			errs[i] = err
			return
		}
		errs[i] = writeFileAtomic(filepath.Join(genDir, shardFileName(i)), doc)
	})
	if err := errors.Join(errs...); err != nil {
		os.RemoveAll(genDir)
		return err
	}
	man, err := json.Marshal(shardManifest{
		ByProcs:  s.byProcs.Load(),
		NextSeed: s.nextSeed.Load(),
		Shards:   shards,
		Streams:  streams,
	})
	if err != nil {
		os.RemoveAll(genDir)
		return err
	}
	if err := writeFileAtomic(filepath.Join(genDir, "manifest.json"), man); err != nil {
		os.RemoveAll(genDir)
		return err
	}
	// Publish: CURRENT names the new generation. writeFileAtomic fsyncs
	// the file and dir, so after this returns a crash recovers the new
	// generation, before it the old one — never a torn mix.
	if err := writeFileAtomic(filepath.Join(dir, currentFile), []byte(gen+"\n")); err != nil {
		os.RemoveAll(genDir)
		return err
	}
	// Old generations are garbage now; deleting them is best-effort.
	if ents, err := os.ReadDir(dir); err == nil {
		for _, e := range ents {
			if e.IsDir() && strings.HasPrefix(e.Name(), "gen-") && e.Name() != gen {
				os.RemoveAll(filepath.Join(dir, e.Name()))
			}
		}
	}
	s.postSaveCompact(cut, rotated)
	return nil
}

func shardFileName(i int) string { return fmt.Sprintf("shard-%04d.json", i) }

// isGenName reports whether name is a generation directory name as
// saveShards writes it: "gen-" and a decimal timestamp. CURRENT naming
// anything else is corrupt, not a path to try.
func isGenName(name string) bool {
	digits, ok := strings.CutPrefix(name, "gen-")
	if !ok || digits == "" || len(digits) > 19 {
		return false
	}
	for _, c := range []byte(digits) {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// coreOf renders one stream's saved core under its read lock — the unit
// both the sharded saver and the replication snapshot serialize.
func coreOf(k string, st *stream) (shardStream, error) {
	st.mu.RLock()
	blob, core, err := st.coreLocked()
	st.mu.RUnlock()
	if err != nil {
		return shardStream{}, fmt.Errorf("qbets: stream %q: %w", k, err)
	}
	core.State = blob
	return core, nil
}

// The shard-core codec. A shard file and a catch-up snapshot chunk are
// each one JSON object mapping stream keys to their shardStream cores,
// exactly as encoding/json renders a map[string]shardStream. Both sides
// move up to hundreds of kilobytes of base64 blobs per document on every
// restart and follower catch-up, where reflection dominated the time, so
// the document is written and read by hand:
//
//   - appendShardCores writes the bytes json.Marshal would (sorted keys,
//     the struct's field order, omitempty, encoding/json's string and
//     float formatting), and like json.Marshal refuses a NaN or infinite
//     bound.
//   - parseShardCores decodes that canonical form on a fast path — no
//     whitespace, fields in struct order, keys without escapes, no
//     duplicate keys, JSON number grammar — and hands every other
//     document to encoding/json, which stays the only authority on what a
//     document means and which documents are malformed.
//
// FuzzShardCores checks both directions against encoding/json.

// appendShardCores appends to dst the document mapping keys[i] to
// core(i), for keys in ascending order (the order json.Marshal sorts a
// map's keys into). core is called once per key, in order, so a caller
// can render each stream under its own lock.
func appendShardCores(dst []byte, keys []string, core func(i int) (shardStream, error)) ([]byte, error) {
	dst = append(dst, '{')
	for i, k := range keys {
		c, err := core(i)
		if err != nil {
			return nil, err
		}
		if math.IsNaN(c.Bound) || math.IsInf(c.Bound, 0) {
			return nil, fmt.Errorf("qbets: stream %q: unsupported bound %v", k, c.Bound)
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, k)
		dst = append(dst, `:{"state":`...)
		if c.State == nil {
			dst = append(dst, "null"...)
		} else {
			dst = append(dst, '"')
			dst = base64.StdEncoding.AppendEncode(dst, c.State)
			dst = append(dst, '"')
		}
		if c.Seq != 0 {
			dst = append(dst, `,"seq":`...)
			dst = strconv.AppendUint(dst, c.Seq, 10)
		}
		if c.Bound != 0 {
			dst = append(dst, `,"bound":`...)
			dst = appendJSONFloat(dst, c.Bound)
		}
		if c.BoundOK {
			dst = append(dst, `,"bound_ok":true`...)
		}
		dst = appendIntField(dst, `,"observations":`, int64(c.Observations))
		dst = appendIntField(dst, `,"min_observations":`, int64(c.MinObservations))
		dst = appendIntField(dst, `,"trims":`, int64(c.Trims))
		dst = appendIntField(dst, `,"last_trim_unix":`, c.LastTrimUnix)
		dst = append(dst, '}')
	}
	return append(dst, '}'), nil
}

// appendIntField appends an omitempty integer field.
func appendIntField(dst []byte, name string, v int64) []byte {
	if v == 0 {
		return dst
	}
	dst = append(dst, name...)
	return strconv.AppendInt(dst, v, 10)
}

// parseShardCores decodes a shard-core document (see appendShardCores).
// It accepts and rejects exactly the documents json.Unmarshal into a
// map[string]shardStream does, with the same result.
func parseShardCores(doc []byte) (map[string]shardStream, error) {
	if m, ok := parseCanonicalShardCores(doc); ok {
		return m, nil
	}
	var m map[string]shardStream
	if err := json.Unmarshal(doc, &m); err != nil {
		return nil, err
	}
	return m, nil
}

// parseCanonicalShardCores is parseShardCores' fast path. ok=false means
// only that the document is not in canonical form; it may still be valid.
func parseCanonicalShardCores(b []byte) (m map[string]shardStream, ok bool) {
	p := coreParser{b: b}
	if !p.lit("{") {
		return nil, false
	}
	m = make(map[string]shardStream, bytes.Count(b, []byte(`:{"state":`)))
	if p.lit("}") {
		return m, p.i == len(b)
	}
	for {
		key, ok := p.plainString()
		if !ok || !p.lit(`:{"state":`) {
			return nil, false
		}
		var c shardStream
		if !p.lit("null") {
			if c.State, ok = p.base64String(); !ok {
				return nil, false
			}
		}
		if p.lit(`,"seq":`) {
			if c.Seq, ok = p.uint(); !ok {
				return nil, false
			}
		}
		if p.lit(`,"bound":`) {
			if c.Bound, ok = p.float(); !ok {
				return nil, false
			}
		}
		if p.lit(`,"bound_ok":`) {
			if c.BoundOK = p.lit("true"); !c.BoundOK && !p.lit("false") {
				return nil, false
			}
		}
		if !p.intField(`,"observations":`, &c.Observations) ||
			!p.intField(`,"min_observations":`, &c.MinObservations) ||
			!p.intField(`,"trims":`, &c.Trims) {
			return nil, false
		}
		if p.lit(`,"last_trim_unix":`) {
			if c.LastTrimUnix, ok = p.int(64); !ok {
				return nil, false
			}
		}
		if !p.lit("}") {
			return nil, false
		}
		if _, dup := m[string(key)]; dup {
			return nil, false
		}
		m[string(key)] = c
		if p.lit("}") {
			return m, p.i == len(b)
		}
		if !p.lit(",") {
			return nil, false
		}
	}
}

// coreParser is parseCanonicalShardCores' cursor. lit and number move it
// only when they match; after any other failure the cursor is undefined
// and the caller abandons the fast path.
type coreParser struct {
	b []byte
	i int
}

func (p *coreParser) lit(s string) bool {
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// plainString reads a string literal without escapes, control bytes or
// invalid UTF-8 — one encoding/json decodes to its raw bytes.
func (p *coreParser) plainString() ([]byte, bool) {
	if !p.lit(`"`) {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			s := p.b[start:p.i]
			p.i++
			return s, utf8.Valid(s)
		case c < 0x20 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// base64String reads a string literal holding base64 and decodes it as
// encoding/json decodes a []byte field: into a slice of DecodedLen
// capacity, with StdEncoding's rules. Escapes and bytes outside the
// alphabet fail the decode; the one thing StdEncoding would accept that
// encoding/json treats differently is a raw CR or LF (skipped by the
// decoder, malformed in a JSON string), and a skipped byte shows as a
// decoded length short of the literal's.
func (p *coreParser) base64String() ([]byte, bool) {
	if !p.lit(`"`) {
		return nil, false
	}
	end := bytes.IndexByte(p.b[p.i:], '"')
	if end < 0 {
		return nil, false
	}
	s := p.b[p.i : p.i+end]
	p.i += end + 1
	out := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
	n, err := base64.StdEncoding.Decode(out, s)
	return out[:n], err == nil && base64.StdEncoding.EncodedLen(n) == len(s)
}

// number reads a number in JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and reports whether it
// has a fraction or exponent.
func (p *coreParser) number() (num []byte, isInt bool, ok bool) {
	b, i := p.b, p.i
	digits := func() int {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i - start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if digits() == 0 {
		return nil, false, false
	}
	isInt = true
	if i < len(b) && b[i] == '.' {
		i++
		if digits() == 0 {
			return nil, false, false
		}
		isInt = false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			return nil, false, false
		}
		isInt = false
	}
	num, p.i = b[p.i:i], i
	return num, isInt, true
}

// uint, int and float parse a number as encoding/json does into a field
// of that type: strconv on the literal's bytes, no fraction or exponent
// for the integer kinds.
func (p *coreParser) uint() (uint64, bool) {
	num, isInt, ok := p.number()
	if !ok || !isInt {
		return 0, false
	}
	v, err := strconv.ParseUint(string(num), 10, 64)
	return v, err == nil
}

func (p *coreParser) int(bits int) (int64, bool) {
	num, isInt, ok := p.number()
	if !ok || !isInt {
		return 0, false
	}
	v, err := strconv.ParseInt(string(num), 10, bits)
	return v, err == nil
}

// intField reads an optional int field: absent, or name then a valid
// integer. It reports false only for a present field with a bad value.
func (p *coreParser) intField(name string, dst *int) bool {
	if !p.lit(name) {
		return true
	}
	v, ok := p.int(strconv.IntSize)
	*dst = int(v)
	return ok
}

func (p *coreParser) float() (float64, bool) {
	num, _, ok := p.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(num), 64)
	return v, err == nil
}

// adoptColdStream builds an evicted stream straight from its saved core:
// the published snapshot comes from the summary fields and the serialized
// forecaster stays cold until the stream's first write. O(1) per stream —
// no history decode, no refit.
func (s *Service) adoptColdStream(key string, core shardStream) *stream {
	st := &stream{
		key:          key,
		lockID:       streamLockIDs.Add(1),
		cold:         core.State,
		trimsSeen:    core.Trims,
		lastTrimUnix: core.LastTrimUnix,
		lastSeq:      core.Seq,
	}
	st.evicted.Store(true)
	st.lastTouch.Store(s.clock.Load())
	st.snap.Store(&forecastSnapshot{
		gen:             1,
		boundSeconds:    core.Bound,
		boundOK:         core.BoundOK,
		observations:    core.Observations,
		minObservations: core.MinObservations,
		trims:           core.Trims,
		lastTrimUnix:    core.LastTrimUnix,
	})
	return st
}

// LoadServiceShards restores a Service from a state directory written by
// SaveShards (or migrates a legacy state file; see LoadShards).
// splitByProcs and opts apply to streams created after the restore.
func LoadServiceShards(dir string, splitByProcs bool, opts ...Option) (*Service, error) {
	s := NewService(splitByProcs, opts...)
	if err := s.LoadShards(dir); err != nil {
		return nil, err
	}
	return s, nil
}

// LoadShards restores sharded state into the receiver, replacing the
// current stream set wholesale. Every stream is adopted cold. Safe while
// serving: readers mid-flight finish against the old stream set.
//
// A dir that names a regular file holds the retired single-file format:
// it is decoded, moved aside to <dir>.legacy-<unixtime>, and its state is
// written back as a sharded generation at dir — a one-time migration.
// Errors keep their meaning across both formats: os.IsNotExist means no
// state yet, ErrCorruptState means the state is unreadable (quarantine
// it), anything else is an I/O failure.
func (s *Service) LoadShards(dir string) error {
	if fi, err := os.Stat(dir); err != nil {
		return err
	} else if fi.Mode().IsRegular() {
		return s.migrateLegacy(dir)
	}
	cur, err := os.ReadFile(filepath.Join(dir, currentFile))
	if err != nil {
		return err
	}
	gen := strings.TrimSpace(string(cur))
	if !isGenName(gen) {
		return fmt.Errorf("qbets: %w: bad CURRENT %q", ErrCorruptState, gen)
	}
	genDir := filepath.Join(dir, gen)
	manDoc, err := os.ReadFile(filepath.Join(genDir, "manifest.json"))
	if err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("qbets: %w: %v", ErrCorruptState, err)
		}
		return err
	}
	var man shardManifest
	if err := json.Unmarshal(manDoc, &man); err != nil {
		return fmt.Errorf("qbets: %w: manifest: %v", ErrCorruptState, err)
	}
	if man.Shards < 1 {
		return fmt.Errorf("qbets: %w: manifest shards=%d", ErrCorruptState, man.Shards)
	}
	// The manifest sizes the per-shard tables below; a corrupt shard count
	// must fail here, not as a giant allocation.
	if _, err := os.Stat(filepath.Join(genDir, shardFileName(man.Shards-1))); err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("qbets: %w: manifest shards=%d: %v", ErrCorruptState, man.Shards, err)
		}
		return err
	}
	shardMaps := make([]map[string]shardStream, man.Shards)
	errs := make([]error, man.Shards)
	parallel.ForEachIndex(man.Shards, func(i int) {
		doc, err := os.ReadFile(filepath.Join(genDir, shardFileName(i)))
		if err != nil {
			if os.IsNotExist(err) {
				errs[i] = fmt.Errorf("qbets: %w: %v", ErrCorruptState, err)
			} else {
				errs[i] = err
			}
			return
		}
		m, err := parseShardCores(doc)
		if err != nil {
			errs[i] = fmt.Errorf("qbets: %w: %s: %v", ErrCorruptState, shardFileName(i), err)
			return
		}
		shardMaps[i] = m
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	n := 0
	for _, m := range shardMaps {
		n += len(m)
	}
	restored := make(map[string]*stream, n)
	for _, m := range shardMaps {
		for k, core := range m {
			restored[k] = s.adoptColdStream(k, core)
		}
	}
	s.byProcs.Store(man.ByProcs)
	s.nextSeed.Store(man.NextSeed)
	s.replaceStreams(restored)
	return nil
}

// migrateLegacy converts a single-file state at path into a sharded
// directory at the same path. The file is decoded first, so a corrupt one
// is left in place for the caller to quarantine. If writing the directory
// fails, the file is moved back: the migration either completes or leaves
// the legacy state where it was.
func (s *Service) migrateLegacy(path string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := s.unmarshalLegacy(blob); err != nil {
		return err
	}
	legacy := fmt.Sprintf("%s.legacy-%d", path, time.Now().Unix())
	if err := os.Rename(path, legacy); err != nil {
		return err
	}
	if err := s.SaveShards(path); err != nil {
		os.RemoveAll(path)
		return errors.Join(err, os.Rename(legacy, path))
	}
	// Make the rename and the new directory's entry durable together.
	return syncDir(filepath.Dir(path))
}
