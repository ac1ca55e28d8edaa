package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
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
// rebuilt on load). Every fixed-width field is little-endian:
//
//	"BMBP" | u16 version
//	f64 quantile | f64 confidence | i32 mode | u8 noTrim
//	i64 fixedRareThreshold | i64 maxHistory | i64 seed
//	i64 rareThreshold | i64 consecMisses | i64 trims | i64 observations
//	i64 tableLen | tableLen × (f64 maxAutocorr | i64 threshold)
//	i64 histLen | history
//
// The two versions differ only in the history. Version 1 writes each value
// as an f64 (histLen × 8 bytes). Version 2 writes each as a minimal-length
// uvarint (1 byte below 128, 2 below 16,384, 3 below 2^21), and is what
// MarshalBinary writes whenever every live value is a whole number in
// [0, 2^53] with its sign bit clear: scheduler logs record waits in whole
// seconds, so that is the common case. Any other history keeps version 1,
// byte for byte. The decoder reads both, and rejects a version-2 value
// that is not minimally encoded or exceeds 2^53, so a version-2 history
// has exactly one encoding.
//
// Eviction, state saves and replica snapshots encode every stream through
// MarshalBinary, so both directions work straight on the byte slice: the
// encoder sizes the blob exactly and fills it in one allocation, and the
// decoder checks each declared length against the bytes actually present
// before allocating for it (a version-2 value takes at least one byte).

const (
	marshalMagic = "BMBP"
	// versionF64 and versionUvarint are the two history encodings.
	versionF64     = 1
	versionUvarint = 2

	// headerLen covers magic, version, config and calibration: everything
	// before the rare-event table length.
	headerLen    = 4 + 2 + 8 + 8 + 4 + 1 + 3*8 + 4*8
	rareEntryLen = 8 + 8
	maxTableLen  = 1024
	maxHistLen   = 1 << 31
	// maxUvarintWait is the largest value version 2 stores: every whole
	// number up to it is exact in a float64.
	maxUvarintWait = 1 << 53
)

// uvarintHistoryLen returns the bytes h takes as version-2 uvarints, or
// false if some value must be stored as an f64. For a float64 with its
// sign bit clear, bit patterns order as the values do, and NaN and +Inf
// sort above 2^53, so the first test admits exactly the values in
// [0, 2^53] with no sign bit (so no −0); the round trip through int64,
// exact in that range, admits the whole numbers among them.
func uvarintHistoryLen(h []float64) (int, bool) {
	n := 0
	for _, v := range h {
		if math.Float64bits(v) > math.Float64bits(maxUvarintWait) {
			return 0, false
		}
		u := int64(v)
		if float64(u) != v {
			return 0, false
		}
		n += (bits.Len64(uint64(u)|1) + 6) / 7
	}
	return n, true
}

// historyCap is the capacity a history reaches after n one-at-a-time
// appends from empty under append's growth rule: doubling up to 256, then
// a quarter plus 192 per step (the allocator's size-class rounding is
// applied once, by slices.Grow). A decoded history gets it so that a
// rehydrated stream holds what it held before eviction, and its next write
// does not double an exact-length buffer.
func historyCap(n int) int {
	c := min(n, 1)
	for c < n {
		if c < 256 {
			c *= 2
		} else {
			c += (c + 3*256) / 4
		}
	}
	return c
}

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
	version, histBytes := uint16(versionF64), 8*len(win)
	if n, ok := uvarintHistoryLen(win); ok {
		version, histBytes = versionUvarint, n
	}
	buf := make([]byte, 0, headerLen+8+rareEntryLen*len(b.cfg.RareTable)+8+histBytes)
	buf = append(buf, marshalMagic...)
	buf = le.AppendUint16(buf, version)
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
	if version == versionUvarint {
		for _, v := range win {
			buf = binary.AppendUvarint(buf, uint64(int64(v)))
		}
		return buf, nil
	}
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

// newHistory returns a zeroed n-value history with historyCap(n) room.
func newHistory(n int) []float64 {
	return slices.Grow([]float64(nil), historyCap(n))[:n]
}

// f64History decodes a version-1 history of n values. The declared length
// is checked against the bytes present before the history is allocated, so
// a corrupt length costs nothing.
func (r *blobReader) f64History(n int) ([]float64, error) {
	raw := r.next(n * 8)
	if r.err != nil {
		return nil, fmt.Errorf("core: truncated history: %v", r.err)
	}
	hist := newHistory(n)
	for i := range hist {
		v := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		if math.IsNaN(v) || v < 0 {
			return nil, fmt.Errorf("core: corrupt history value %g", v)
		}
		hist[i] = v
	}
	return hist, nil
}

// uvarintHistory decodes a version-2 history of n values. Every value
// takes at least one byte, so n is checked against the bytes present
// before the history is allocated.
func (r *blobReader) uvarintHistory(n int) ([]float64, error) {
	if n > len(r.b) {
		return nil, fmt.Errorf("core: truncated history: %v", io.ErrUnexpectedEOF)
	}
	hist := newHistory(n)
	p := r.b
	for i := range hist {
		u, k := binary.Uvarint(p)
		switch {
		case k == 0:
			return nil, fmt.Errorf("core: truncated history: %v", io.ErrUnexpectedEOF)
		case k < 0:
			return nil, fmt.Errorf("core: corrupt history: value %d overflows 64 bits", i)
		case k > 1 && p[k-1] == 0:
			return nil, fmt.Errorf("core: corrupt history: value %d is not minimally encoded", i)
		case u > maxUvarintWait:
			return nil, fmt.Errorf("core: corrupt history value %d: above 2^53", u)
		}
		hist[i] = float64(u)
		p = p[k:]
	}
	r.b = p
	return hist, nil
}

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
	if version != versionF64 && version != versionUvarint {
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
	decode := r.f64History
	if version == versionUvarint {
		decode = r.uvarintHistory
	}
	hist, err := decode(int(histLen))
	if err != nil {
		return err
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
