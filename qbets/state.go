package qbets

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// ErrCorruptState marks state blobs that fail to decode. Callers use it to
// tell a damaged snapshot (quarantine it and start fresh) apart from I/O
// failures such as permission errors, where the file may be perfectly
// intact and moving it aside would discard good state.
var ErrCorruptState = errors.New("state file is corrupt")

// State persistence: a deployed forecaster accumulates months of history;
// these helpers let it survive process restarts without retraining.

// MarshalBinary encodes the forecaster's full state (configuration,
// calibration, and history).
func (f *Forecaster) MarshalBinary() ([]byte, error) {
	return f.b.MarshalBinary()
}

// UnmarshalBinary restores state produced by MarshalBinary, replacing the
// forecaster's configuration and history entirely.
func (f *Forecaster) UnmarshalBinary(data []byte) error {
	return f.b.UnmarshalBinary(data)
}

// Save writes the forecaster's state to w.
func (f *Forecaster) Save(w io.Writer) error {
	blob, err := f.MarshalBinary()
	if err != nil {
		return err
	}
	_, err = w.Write(blob)
	return err
}

// SaveFile writes the forecaster's state to a file.
func (f *Forecaster) SaveFile(path string) error {
	blob, err := f.MarshalBinary()
	if err != nil {
		return err
	}
	return writeFileAtomic(path, blob)
}

// writeFileAtomic writes via a temp file + fsync + rename + directory
// fsync. The rename keeps a crash mid-save from leaving a truncated state
// file; the two fsyncs make the new contents and the directory entry
// durable before the caller acts on the save — without them a power cut
// after rename can surface the old file, an empty one, or nothing, even
// though the save reported success (and, worse, triggered WAL compaction).
func writeFileAtomic(path string, blob []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(blob)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory, making renames and unlinks within it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load restores a forecaster from a state blob written by Save.
func Load(r io.Reader) (*Forecaster, error) {
	blob, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	f := New()
	if err := f.UnmarshalBinary(blob); err != nil {
		return nil, err
	}
	return f, nil
}

// LoadFile restores a forecaster from a state file written by SaveFile.
func LoadFile(path string) (*Forecaster, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := New()
	if err := f.UnmarshalBinary(blob); err != nil {
		return nil, err
	}
	return f, nil
}

// unmarshalLegacy restores the retired single-file state format — one
// JSON document holding every stream's serialized forecaster plus its WAL
// sequence anchor — replacing the current stream set wholesale. It exists
// only so LoadShards can migrate such a file once (see migrateLegacy).
// Streams are adopted hydrated, each with its forecast snapshot published
// before replaceStreams makes it reachable.
func (s *Service) unmarshalLegacy(data []byte) error {
	var blob struct {
		ByProcs    bool              `json:"by_procs"`
		NextSeed   int64             `json:"next_seed"`
		Streams    map[string][]byte `json:"streams"`
		StreamSeqs map[string]uint64 `json:"stream_seqs"`
	}
	if err := json.Unmarshal(data, &blob); err != nil {
		return fmt.Errorf("qbets: %w: %v", ErrCorruptState, err)
	}
	restored := make(map[string]*stream, len(blob.Streams))
	for k, fb := range blob.Streams {
		fc := New()
		if err := fc.UnmarshalBinary(fb); err != nil {
			return fmt.Errorf("qbets: %w: stream %q: %v", ErrCorruptState, k, err)
		}
		fc.Forecast() // settle the lazy refit before concurrent reads start
		st := &stream{key: k, lockID: streamLockIDs.Add(1), fc: fc, trimsSeen: fc.ChangePoints(), lastSeq: blob.StreamSeqs[k]}
		st.lastTouch.Store(s.clock.Load())
		st.publishLocked()
		restored[k] = st
	}
	s.byProcs.Store(blob.ByProcs)
	s.nextSeed.Store(blob.NextSeed)
	s.replaceStreams(restored)
	return nil
}

// preSaveRotate rotates the attached WAL (if any) ahead of a snapshot so
// the segments the snapshot covers can be compacted afterwards. Rotation
// failure is counted, not fatal: the save proceeds, the log just is not
// compacted this round.
func (s *Service) preSaveRotate() (cut uint64, rotated bool) {
	if s.wal == nil {
		return 0, false
	}
	var err error
	if cut, err = s.wal.Rotate(); err != nil {
		s.walCompactErrors.Inc()
		return 0, false
	}
	return cut, true
}

// postSaveCompact deletes the WAL segments a durable snapshot supersedes.
// Best-effort by design: the snapshot is already good.
func (s *Service) postSaveCompact(cut uint64, rotated bool) {
	if !rotated {
		return
	}
	if err := s.wal.RemoveSegmentsBelow(cut); err != nil {
		s.walCompactErrors.Inc()
	}
}

// QuarantineStateFile moves unreadable state (a directory or a legacy
// file) aside to <path>.corrupt-<unixtime> so the process can start fresh
// without destroying the evidence (or the chance of manual recovery). It
// returns the quarantine path.
func QuarantineStateFile(path string) (string, error) {
	quarantine := fmt.Sprintf("%s.corrupt-%d", path, time.Now().Unix())
	if err := os.Rename(path, quarantine); err != nil {
		return "", err
	}
	return quarantine, nil
}

// Interval is a two-sided confidence interval on a quantile of queue
// delay: with the stated confidence, the quantile lies in [Low, High].
type Interval struct {
	Quantile   float64
	Confidence float64
	Low, High  float64
	OK         bool
}

// ForecastInterval returns a two-sided confidence interval for the q
// quantile, built from two one-sided bounds at confidence
// (1 + confidence)/2 each (Bonferroni: the pair holds jointly with at
// least the requested confidence). The paper notes the method extends to
// two-sided intervals this way (Section 3).
func (f *Forecaster) ForecastInterval(q, confidence float64) Interval {
	side := (1 + confidence) / 2
	lo := f.ForecastQuantile(q, side, true)
	hi := f.ForecastQuantile(q, side, false)
	return Interval{
		Quantile:   q,
		Confidence: confidence,
		Low:        lo.Seconds,
		High:       hi.Seconds,
		OK:         lo.OK && hi.OK,
	}
}
