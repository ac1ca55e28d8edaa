package qbets

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/obs"
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
	streams := s.snapshotStreams()
	if shards <= 0 {
		shards = shardCount(len(streams))
	}

	// Partition by key hash, then render shards in parallel — each worker
	// owns its shard's map wholesale, so no cross-worker coordination.
	parts := make([]map[string]*stream, shards)
	for i := range parts {
		parts[i] = make(map[string]*stream, len(streams)/shards+1)
	}
	for k, st := range streams {
		parts[keyHash(k)%uint32(shards)][k] = st
	}

	gen := fmt.Sprintf("gen-%d", time.Now().UnixNano())
	genDir := filepath.Join(dir, gen)
	if err := os.MkdirAll(genDir, 0o755); err != nil {
		return err
	}
	errs := make([]error, shards)
	parallel.ForEachIndex(shards, func(i int) {
		out := make(map[string]shardStream, len(parts[i]))
		for k, st := range parts[i] {
			core, err := coreOf(k, st)
			if err != nil {
				errs[i] = err
				return
			}
			out[k] = core
		}
		doc, err := json.Marshal(out)
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
		Streams:  len(streams),
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

// adoptColdStream builds an evicted stream straight from its saved core:
// the published snapshot comes from the summary fields and the serialized
// forecaster stays cold until the stream's first write. O(1) per stream —
// no history decode, no refit.
func (s *Service) adoptColdStream(key string, core shardStream) *stream {
	st := &stream{
		key:          key,
		hit:          obs.NewRollingRate(hitRateWindow),
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
	if gen == "" || strings.Contains(gen, "/") {
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
		var m map[string]shardStream
		if err := json.Unmarshal(doc, &m); err != nil {
			errs[i] = fmt.Errorf("qbets: %w: %s: %v", ErrCorruptState, shardFileName(i), err)
			return
		}
		shardMaps[i] = m
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	restored := make(map[string]*stream, man.Streams)
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
