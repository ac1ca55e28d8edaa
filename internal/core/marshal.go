package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"

	"repro/internal/ostat"
)

// Binary state serialization, so a deployed predictor can survive process
// restarts without retraining: the paper's deployment model feeds the
// predictor five-minute scheduler-log dumps, and losing a year of history
// to a restart would reset the bound to its minimum-history conservatism.
//
// The format is versioned and self-contained: configuration, calibration
// state, and the observation-ordered history (the order statistics are
// rebuilt on load). MarshalBinary writes version 3, which leaves out every
// configuration field that holds Config's default and writes every count
// as a varint, so a serving stream's blob is its history plus about 15
// bytes:
//
//	"BMBP" | u16 version = 3 | u8 flags
//	[f64 quantile] [f64 confidence] [varint mode]
//	[varint fixedRareThreshold] [varint maxHistory]
//	varint seed | uvarint rareThreshold | uvarint consecMisses
//	uvarint trims | uvarint observations
//	[uvarint tableLen | tableLen × (f64 maxAutocorr | i64 threshold)]
//	uvarint histLen | history
//
// A bracketed field is present only when its flag is set (flag* below):
// quantile, confidence, mode, fixedRareThreshold and maxHistory when they
// differ from the default, the table when it is not DefaultRareEventTable.
// flagNoTrim is NoTrim itself and has no field. f64 and i64 are
// little-endian, uvarint is binary.AppendUvarint's minimal encoding and
// varint its zigzag form (binary.AppendVarint). The history is one
// uvarint per value whenever every live value is a whole number in
// [0, 2^53] with its sign bit clear — scheduler logs record waits in whole
// seconds, so that is the common case — and one f64 per value otherwise,
// marked by flagF64History.
//
// A state has exactly one version-3 encoding: the decoder rejects a
// flagged field that holds its default, a custom table equal to the
// default one, a varint that is not minimal, an f64 history the uvarint
// form could hold, a uvarint value above 2^53, and bytes after the
// history.
//
// Versions 1 and 2, which earlier releases wrote, are still read (state
// directories and catch-up chunks from an older leader carry them). Every
// fixed-width field is little-endian:
//
//	"BMBP" | u16 version
//	f64 quantile | f64 confidence | i32 mode | u8 noTrim
//	i64 fixedRareThreshold | i64 maxHistory | i64 seed
//	i64 rareThreshold | i64 consecMisses | i64 trims | i64 observations
//	i64 tableLen | tableLen × (f64 maxAutocorr | i64 threshold)
//	i64 histLen | history
//
// Version 1 writes the history as f64s, version 2 as version 3's uvarints.
// Negative counts, which no encoder writes and version 3 cannot hold, are
// rejected in every version.
//
// Eviction, state saves and replica snapshots encode every stream through
// MarshalBinary, so both directions work straight on the byte slice: the
// encoder sizes the blob exactly and fills it in one allocation, and the
// decoder checks each declared length against the bytes actually present
// before allocating for it (a uvarint value takes at least one byte).

const (
	marshalMagic = "BMBP"
	// versionF64 and versionUvarint are the two fixed-width layouts
	// earlier releases wrote; versionCompact is the one MarshalBinary
	// writes.
	versionF64     = 1
	versionUvarint = 2
	versionCompact = 3

	// headerLen covers a version-1 or version-2 blob's magic, version,
	// config and calibration: everything before the rare-event table
	// length.
	headerLen    = 4 + 2 + 8 + 8 + 4 + 1 + 3*8 + 4*8
	rareEntryLen = 8 + 8
	maxTableLen  = 1024
	maxHistLen   = 1 << 31
	// maxUvarintWait is the largest history value stored as a uvarint:
	// every whole number up to it is exact in a float64.
	maxUvarintWait = 1 << 53
	// compactFixedMax bounds a version-3 blob's bytes before the table:
	// magic, version, flags, two f64s and eight varints.
	compactFixedMax = 4 + 2 + 1 + 2*8 + 8*binary.MaxVarintLen64
)

// Version-3 flags: which optional fields follow, NoTrim, and the history
// encoding.
const (
	flagQuantile = 1 << iota
	flagConfidence
	flagMode
	flagNoTrim
	flagFixedRare
	flagMaxHistory
	flagRareTable
	flagF64History
)

// defaultConfig is what a version-3 blob's absent fields decode to.
var defaultConfig = Config{}.withDefaults()

// uvarintHistoryLen returns the bytes h takes as uvarints, or false if
// some value must be stored as an f64. For a float64 with its sign bit
// clear, bit patterns order as the values do, and NaN and +Inf sort above
// 2^53, so the first test admits exactly the values in [0, 2^53] with no
// sign bit (so no −0); the round trip through int64, exact in that range,
// admits the whole numbers among them.
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
		n += uvarintLen(uint64(u))
	}
	return n, true
}

func uvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

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
// version-1 or version-2 table whose bytes match it decodes to
// DefaultRareEventTable, so restored predictors share the one table
// instead of each holding a copy; a version-3 custom table may not match
// it.
var defaultRareTableBlob = appendRareTable(nil, DefaultRareEventTable)

func appendRareTable(buf []byte, t RareEventTable) []byte {
	for _, e := range t {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.MaxAutocorr))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(e.Threshold)))
	}
	return buf
}

func isDefaultRareTable(t RareEventTable) bool {
	if len(t) != len(DefaultRareEventTable) {
		return false
	}
	for i, e := range t {
		d := DefaultRareEventTable[i]
		if math.Float64bits(e.MaxAutocorr) != math.Float64bits(d.MaxAutocorr) || e.Threshold != d.Threshold {
			return false
		}
	}
	return true
}

// MarshalBinary encodes the predictor's full state as a version-3 blob.
func (b *BMBP) MarshalBinary() ([]byte, error) {
	le := binary.LittleEndian
	cfg, win := &b.cfg, b.window()
	// The fixed part is built on the stack so the blob can be allocated
	// once, at its exact size.
	var fixed [compactFixedMax]byte
	h := append(fixed[:0], marshalMagic...)
	h = le.AppendUint16(h, versionCompact)
	h = append(h, 0)
	flags := byte(0)
	if math.Float64bits(cfg.Quantile) != math.Float64bits(defaultConfig.Quantile) {
		flags |= flagQuantile
		h = le.AppendUint64(h, math.Float64bits(cfg.Quantile))
	}
	if math.Float64bits(cfg.Confidence) != math.Float64bits(defaultConfig.Confidence) {
		flags |= flagConfidence
		h = le.AppendUint64(h, math.Float64bits(cfg.Confidence))
	}
	if cfg.Mode != defaultConfig.Mode {
		flags |= flagMode
		h = binary.AppendVarint(h, int64(cfg.Mode))
	}
	if cfg.NoTrim {
		flags |= flagNoTrim
	}
	if cfg.FixedRareThreshold != defaultConfig.FixedRareThreshold {
		flags |= flagFixedRare
		h = binary.AppendVarint(h, int64(cfg.FixedRareThreshold))
	}
	if cfg.MaxHistory != defaultConfig.MaxHistory {
		flags |= flagMaxHistory
		h = binary.AppendVarint(h, int64(cfg.MaxHistory))
	}
	h = binary.AppendVarint(h, cfg.Seed)
	for _, c := range [...]int{b.rareThreshold, b.consecMisses, b.trims, b.observations} {
		h = binary.AppendUvarint(h, uint64(c))
	}

	n := len(h) + uvarintLen(uint64(len(win)))
	if !isDefaultRareTable(cfg.RareTable) {
		flags |= flagRareTable
		n += uvarintLen(uint64(len(cfg.RareTable))) + rareEntryLen*len(cfg.RareTable)
	}
	histBytes, uvarints := uvarintHistoryLen(win)
	if !uvarints {
		flags |= flagF64History
		histBytes = 8 * len(win)
	}
	h[len(marshalMagic)+2] = flags

	buf := append(make([]byte, 0, n+histBytes), h...)
	if flags&flagRareTable != 0 {
		buf = binary.AppendUvarint(buf, uint64(len(cfg.RareTable)))
		buf = appendRareTable(buf, cfg.RareTable)
	}
	buf = binary.AppendUvarint(buf, uint64(len(win)))
	if uvarints {
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
// mirrors io.ReadFull's for fixed-width fields: io.EOF when a field starts
// at the end of the blob, io.ErrUnexpectedEOF when it is cut short.
type blobReader struct {
	b   []byte
	err error
}

var (
	errVarintOverflow   = errors.New("varint overflows 64 bits")
	errVarintNotMinimal = errors.New("varint is not minimally encoded")
	errCountRange       = errors.New("count exceeds the int range")
)

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

// uvarint reads a minimally encoded uvarint.
func (r *blobReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	u, k := binary.Uvarint(r.b)
	switch {
	case k == 0:
		r.err = io.ErrUnexpectedEOF
		if len(r.b) == 0 {
			r.err = io.EOF
		}
	case k < 0:
		r.err = errVarintOverflow
	case k > 1 && r.b[k-1] == 0:
		r.err = errVarintNotMinimal
	default:
		r.b = r.b[k:]
		return u
	}
	r.b = nil
	return 0
}

// varint reads a zigzag varint; a zigzag value is minimal exactly when its
// uvarint is.
func (r *blobReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// count reads a uvarint that must fit in an int.
func (r *blobReader) count() int {
	u := r.uvarint()
	if u > math.MaxInt && r.err == nil {
		r.err, r.b = errCountRange, nil
	}
	return int(u)
}

// newHistory returns a zeroed n-value history with historyCap(n) room.
func newHistory(n int) []float64 {
	return slices.Grow([]float64(nil), historyCap(n))[:n]
}

// f64History decodes a history of n f64s. The declared length is checked
// against the bytes present before the history is allocated, so a corrupt
// length costs nothing.
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

// uvarintHistory decodes a history of n uvarints. Every value takes at
// least one byte, so n is checked against the bytes present before the
// history is allocated.
func (r *blobReader) uvarintHistory(n int) ([]float64, error) {
	if n > len(r.b) {
		return nil, fmt.Errorf("core: truncated history: %v", io.ErrUnexpectedEOF)
	}
	hist := newHistory(n)
	// The loop checks what blobReader.uvarint checks, on a local slice:
	// this is every rehydration's inner loop.
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

// decodedState is a blob's content before it replaces a predictor's.
type decodedState struct {
	cfg                                              Config
	rareThreshold, consecMisses, trims, observations int
	hist                                             []float64
}

// UnmarshalBinary restores a predictor serialized by MarshalBinary, or by
// an earlier release's version-1 or version-2 encoder, replacing the
// receiver's state entirely. On error the receiver is unchanged.
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
	var st decodedState
	var err error
	switch version {
	case versionF64, versionUvarint:
		st, err = r.fixedWidth(version)
	case versionCompact:
		st, err = r.compact()
	default:
		return fmt.Errorf("core: unsupported state version %d", version)
	}
	if err != nil {
		return err
	}

	// Rebuild derived structures. The bulk build sizes the multiset's
	// arenas itself.
	b.cfg = st.cfg
	b.idx = sharedIndex(st.cfg.Quantile, st.cfg.Confidence, st.cfg.Mode)
	b.minHistory = b.idx.MinHistory()
	b.hist = st.hist
	b.histStart = 0
	if len(st.hist) == 0 {
		b.set = ostat.Multiset{}
	} else {
		rebuildSet(&b.set, st.hist)
	}
	b.rareThreshold = st.rareThreshold
	b.consecMisses = st.consecMisses
	b.trims = st.trims
	b.observations = st.observations
	b.stale = true
	return nil
}

// validProbabilities reports whether quantile and confidence lie in
// (0, 1). Written as positive conditions so NaN (all comparisons false) is
// rejected too.
func validProbabilities(cfg *Config) bool {
	return cfg.Quantile > 0 && cfg.Quantile < 1 && cfg.Confidence > 0 && cfg.Confidence < 1
}

// fixedWidth decodes the rest of a version-1 or version-2 blob.
func (r *blobReader) fixedWidth(version uint16) (st decodedState, err error) {
	cfg := &st.cfg
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
		return st, fmt.Errorf("core: truncated config: %v", r.err)
	}
	if !validProbabilities(cfg) {
		return st, fmt.Errorf("core: corrupt state: quantile %g confidence %g", cfg.Quantile, cfg.Confidence)
	}

	rareThreshold, consecMisses, trims, observations := r.i64(), r.i64(), r.i64(), r.i64()
	if r.err != nil {
		return st, fmt.Errorf("core: truncated calibration: %v", r.err)
	}
	if rareThreshold < 0 || consecMisses < 0 || trims < 0 || observations < 0 {
		return st, fmt.Errorf("core: corrupt calibration: a negative count")
	}
	st.rareThreshold, st.consecMisses, st.trims, st.observations =
		int(rareThreshold), int(consecMisses), int(trims), int(observations)

	tableLen := r.i64()
	if r.err != nil {
		return st, fmt.Errorf("core: truncated table: %v", r.err)
	}
	if tableLen < 0 || tableLen > maxTableLen {
		return st, fmt.Errorf("core: corrupt table length %d", tableLen)
	}
	entries := r.next(int(tableLen) * rareEntryLen)
	if r.err != nil {
		return st, fmt.Errorf("core: truncated table entry: %v", r.err)
	}
	if bytes.Equal(entries, defaultRareTableBlob) {
		cfg.RareTable = DefaultRareEventTable
	} else {
		cfg.RareTable = decodeRareTable(entries)
	}

	histLen := r.i64()
	if r.err != nil {
		return st, fmt.Errorf("core: truncated history length: %v", r.err)
	}
	if histLen < 0 || histLen > maxHistLen {
		return st, fmt.Errorf("core: corrupt history length %d", histLen)
	}
	decode := r.f64History
	if version == versionUvarint {
		decode = r.uvarintHistory
	}
	st.hist, err = decode(int(histLen))
	return st, err
}

func decodeRareTable(entries []byte) RareEventTable {
	t := make(RareEventTable, len(entries)/rareEntryLen)
	for i := range t {
		e := entries[i*rareEntryLen:]
		t[i].MaxAutocorr = math.Float64frombits(binary.LittleEndian.Uint64(e))
		t[i].Threshold = int(int64(binary.LittleEndian.Uint64(e[8:])))
	}
	return t
}

// compact decodes the rest of a version-3 blob.
func (r *blobReader) compact() (st decodedState, err error) {
	var flags byte
	if p := r.next(1); p != nil {
		flags = p[0]
	}
	if r.err != nil {
		return st, fmt.Errorf("core: truncated flags: %v", r.err)
	}
	cfg := &st.cfg
	*cfg = defaultConfig
	if flags&flagQuantile != 0 {
		cfg.Quantile = r.f64()
	}
	if flags&flagConfidence != 0 {
		cfg.Confidence = r.f64()
	}
	if flags&flagMode != 0 {
		cfg.Mode = BoundMode(r.varint())
	}
	cfg.NoTrim = flags&flagNoTrim != 0
	if flags&flagFixedRare != 0 {
		cfg.FixedRareThreshold = int(r.varint())
	}
	if flags&flagMaxHistory != 0 {
		cfg.MaxHistory = int(r.varint())
	}
	cfg.Seed = r.varint()
	st.rareThreshold, st.consecMisses, st.trims, st.observations = r.count(), r.count(), r.count(), r.count()
	if r.err != nil {
		return st, fmt.Errorf("core: truncated or corrupt config or calibration: %v", r.err)
	}
	if !validProbabilities(cfg) {
		return st, fmt.Errorf("core: corrupt state: quantile %g confidence %g", cfg.Quantile, cfg.Confidence)
	}
	if flags&flagQuantile != 0 && cfg.Quantile == defaultConfig.Quantile ||
		flags&flagConfidence != 0 && cfg.Confidence == defaultConfig.Confidence ||
		flags&flagMode != 0 && cfg.Mode == defaultConfig.Mode ||
		flags&flagFixedRare != 0 && cfg.FixedRareThreshold == defaultConfig.FixedRareThreshold ||
		flags&flagMaxHistory != 0 && cfg.MaxHistory == defaultConfig.MaxHistory {
		return st, fmt.Errorf("core: corrupt state: flags %#02x mark a field that holds its default", flags)
	}

	if flags&flagRareTable != 0 {
		tableLen := r.count()
		if r.err != nil {
			return st, fmt.Errorf("core: truncated or corrupt table length: %v", r.err)
		}
		if tableLen > maxTableLen {
			return st, fmt.Errorf("core: corrupt table length %d", tableLen)
		}
		entries := r.next(tableLen * rareEntryLen)
		if r.err != nil {
			return st, fmt.Errorf("core: truncated table entry: %v", r.err)
		}
		if bytes.Equal(entries, defaultRareTableBlob) {
			return st, fmt.Errorf("core: corrupt state: a custom rare-event table equal to the default")
		}
		cfg.RareTable = decodeRareTable(entries)
	}

	histLen := r.count()
	if r.err != nil {
		return st, fmt.Errorf("core: truncated or corrupt history length: %v", r.err)
	}
	if histLen > maxHistLen {
		return st, fmt.Errorf("core: corrupt history length %d", histLen)
	}
	if flags&flagF64History == 0 {
		st.hist, err = r.uvarintHistory(histLen)
	} else if st.hist, err = r.f64History(histLen); err == nil {
		if _, ok := uvarintHistoryLen(st.hist); ok {
			return st, fmt.Errorf("core: corrupt state: an f64 history of values the uvarint form holds")
		}
	}
	if err == nil && len(r.b) > 0 {
		return st, fmt.Errorf("core: corrupt state: %d bytes after the history", len(r.b))
	}
	return st, err
}
