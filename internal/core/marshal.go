package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/ostat"
)

// Binary state serialization, so a deployed predictor can survive process
// restarts without retraining: the paper's deployment model feeds the
// predictor five-minute scheduler-log dumps, and losing a year of history
// to a restart would reset the bound to its minimum-history conservatism.
//
// The format is versioned and self-contained: configuration, calibration
// state, and the observation-ordered history (the order statistics are
// rebuilt on load). Every field is little-endian:
//
//	"BMBP" | u16 version
//	f64 quantile | f64 confidence | i32 mode | u8 noTrim
//	i64 fixedRareThreshold | i64 maxHistory | i64 seed
//	i64 rareThreshold | i64 consecMisses | i64 trims | i64 observations
//	i64 tableLen | tableLen × (f64 maxAutocorr | i64 threshold)
//	i64 histLen | histLen × f64
//
// Eviction, state saves and replica snapshots encode every stream through
// MarshalBinary, so both directions work straight on the byte slice: the
// encoder sizes the blob exactly and fills it in one allocation, and the
// decoder checks each declared length against the bytes actually present
// before allocating for it.

const (
	marshalMagic   = "BMBP"
	marshalVersion = 1

	// headerLen covers magic, version, config and calibration: everything
	// before the rare-event table length.
	headerLen    = 4 + 2 + 8 + 8 + 4 + 1 + 3*8 + 4*8
	rareEntryLen = 8 + 8
	maxTableLen  = 1024
	maxHistLen   = 1 << 31
)

// defaultRareTableBlob is DefaultRareEventTable's encoded entries. A
// decoded table whose bytes match it is DefaultRareEventTable, so restored
// predictors share the one table instead of each holding a copy.
var defaultRareTableBlob = appendRareTable(nil, DefaultRareEventTable)

func appendRareTable(buf []byte, t RareEventTable) []byte {
	for _, e := range t {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.MaxAutocorr))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(e.Threshold)))
	}
	return buf
}

// MarshalBinary encodes the predictor's full state.
func (b *BMBP) MarshalBinary() ([]byte, error) {
	le := binary.LittleEndian
	win := b.window()
	buf := make([]byte, 0, headerLen+8+rareEntryLen*len(b.cfg.RareTable)+8+8*len(win))
	buf = append(buf, marshalMagic...)
	buf = le.AppendUint16(buf, marshalVersion)
	buf = le.AppendUint64(buf, math.Float64bits(b.cfg.Quantile))
	buf = le.AppendUint64(buf, math.Float64bits(b.cfg.Confidence))
	buf = le.AppendUint32(buf, uint32(int32(b.cfg.Mode)))
	noTrim := byte(0)
	if b.cfg.NoTrim {
		noTrim = 1
	}
	buf = append(buf, noTrim)
	buf = le.AppendUint64(buf, uint64(int64(b.cfg.FixedRareThreshold)))
	buf = le.AppendUint64(buf, uint64(int64(b.cfg.MaxHistory)))
	buf = le.AppendUint64(buf, uint64(b.cfg.Seed))

	buf = le.AppendUint64(buf, uint64(int64(b.rareThreshold)))
	buf = le.AppendUint64(buf, uint64(int64(b.consecMisses)))
	buf = le.AppendUint64(buf, uint64(int64(b.trims)))
	buf = le.AppendUint64(buf, uint64(int64(b.observations)))

	buf = le.AppendUint64(buf, uint64(len(b.cfg.RareTable)))
	buf = appendRareTable(buf, b.cfg.RareTable)

	buf = le.AppendUint64(buf, uint64(len(win)))
	for _, v := range win {
		buf = le.AppendUint64(buf, math.Float64bits(v))
	}
	return buf, nil
}

// blobReader walks a state blob front to back. Its error is sticky and
// mirrors io.ReadFull's: io.EOF when a field starts at the end of the blob,
// io.ErrUnexpectedEOF when it is cut short.
type blobReader struct {
	b   []byte
	err error
}

func (r *blobReader) next(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = io.ErrUnexpectedEOF
		if len(r.b) == 0 {
			r.err = io.EOF
		}
		r.b = nil
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *blobReader) u64() uint64 {
	if p := r.next(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *blobReader) i64() int64   { return int64(r.u64()) }
func (r *blobReader) f64() float64 { return math.Float64frombits(r.u64()) }

// UnmarshalBinary restores a predictor serialized by MarshalBinary,
// replacing the receiver's state entirely.
func (b *BMBP) UnmarshalBinary(data []byte) error {
	if len(data) < len(marshalMagic) || string(data[:len(marshalMagic)]) != marshalMagic {
		return fmt.Errorf("core: not a BMBP state blob")
	}
	r := blobReader{b: data[len(marshalMagic):]}
	var version uint16
	if p := r.next(2); p != nil {
		version = binary.LittleEndian.Uint16(p)
	}
	if r.err != nil {
		return fmt.Errorf("core: truncated state: %v", r.err)
	}
	if version != marshalVersion {
		return fmt.Errorf("core: unsupported state version %d", version)
	}

	var cfg Config
	cfg.Quantile = r.f64()
	cfg.Confidence = r.f64()
	if p := r.next(4); p != nil {
		cfg.Mode = BoundMode(int32(binary.LittleEndian.Uint32(p)))
	}
	if p := r.next(1); p != nil {
		cfg.NoTrim = p[0] != 0
	}
	cfg.FixedRareThreshold = int(r.i64())
	cfg.MaxHistory = int(r.i64())
	cfg.Seed = r.i64()
	if r.err != nil {
		return fmt.Errorf("core: truncated config: %v", r.err)
	}
	// Written as positive conditions so NaN (all comparisons false) is
	// rejected too.
	if !(cfg.Quantile > 0 && cfg.Quantile < 1 && cfg.Confidence > 0 && cfg.Confidence < 1) {
		return fmt.Errorf("core: corrupt state: quantile %g confidence %g", cfg.Quantile, cfg.Confidence)
	}

	rareThreshold, consecMisses, trims, observations := r.i64(), r.i64(), r.i64(), r.i64()
	if r.err != nil {
		return fmt.Errorf("core: truncated calibration: %v", r.err)
	}

	tableLen := r.i64()
	if r.err != nil {
		return fmt.Errorf("core: truncated table: %v", r.err)
	}
	if tableLen < 0 || tableLen > maxTableLen {
		return fmt.Errorf("core: corrupt table length %d", tableLen)
	}
	entries := r.next(int(tableLen) * rareEntryLen)
	if r.err != nil {
		return fmt.Errorf("core: truncated table entry: %v", r.err)
	}
	if bytes.Equal(entries, defaultRareTableBlob) {
		cfg.RareTable = DefaultRareEventTable
	} else {
		cfg.RareTable = make(RareEventTable, tableLen)
		for i := range cfg.RareTable {
			e := entries[i*rareEntryLen:]
			cfg.RareTable[i].MaxAutocorr = math.Float64frombits(binary.LittleEndian.Uint64(e))
			cfg.RareTable[i].Threshold = int(int64(binary.LittleEndian.Uint64(e[8:])))
		}
	}

	histLen := r.i64()
	if r.err != nil {
		return fmt.Errorf("core: truncated history length: %v", r.err)
	}
	if histLen < 0 || histLen > maxHistLen {
		return fmt.Errorf("core: corrupt history length %d", histLen)
	}
	// The declared length is checked against the bytes present before the
	// history is allocated, so a corrupt length costs nothing.
	raw := r.next(int(histLen) * 8)
	if r.err != nil {
		return fmt.Errorf("core: truncated history: %v", r.err)
	}
	hist := make([]float64, histLen)
	for i := range hist {
		v := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		if math.IsNaN(v) || v < 0 {
			return fmt.Errorf("core: corrupt history value %g", v)
		}
		hist[i] = v
	}

	// Rebuild derived structures. The order statistics come back via an
	// O(n) bulk build from a sorted copy rather than n re-inserts.
	b.cfg = cfg
	b.idx = sharedIndex(cfg.Quantile, cfg.Confidence, cfg.Mode)
	b.minHistory = b.idx.MinHistory()
	b.hist = hist
	b.histStart = 0
	b.set = ostat.New(cfg.Seed + 1)
	if len(hist) > 0 {
		sorted := make([]float64, len(hist))
		copy(sorted, hist)
		sort.Float64s(sorted)
		b.set.BuildFromSorted(sorted)
	}
	b.rareThreshold = int(rareThreshold)
	b.consecMisses = int(consecMisses)
	b.trims = int(trims)
	b.observations = int(observations)
	b.stale = true
	return nil
}
