package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/ostat"
)

// The reflective codec below is the state format's reference
// implementation: one binary.Write or binary.Read per fixed-width field,
// and one binary.AppendUvarint/AppendVarint or ReadUvarint/ReadVarint per
// varint. MarshalBinary and UnmarshalBinary must agree with it byte for
// byte and blob for blob (marshal_test.go and FuzzUnmarshalBinary check
// both). Its version-1 and version-2 decoder allocates a declared history
// length before reading any value, so it is only ever fed blobs whose
// declared lengths fit in the data; its version-3 decoder appends value by
// value and takes any input. It defines a canonical version-3 blob as one
// that re-encodes to itself.

// refUvarintHistory reports whether every value of h is a whole number in
// [0, 2^53] without a sign bit: the histories written as uvarints.
func refUvarintHistory(h []float64) bool {
	for _, v := range h {
		if math.IsNaN(v) || math.Signbit(v) || v > 1<<53 || v != math.Floor(v) {
			return false
		}
	}
	return true
}

// refMarshalBinary is the version-3 encoder.
func refMarshalBinary(b *BMBP) []byte {
	var buf bytes.Buffer
	w := func(v interface{}) {
		_ = binary.Write(&buf, binary.LittleEndian, v)
	}
	varint := func(v int64) { buf.Write(binary.AppendVarint(nil, v)) }
	uvarint := func(v uint64) { buf.Write(binary.AppendUvarint(nil, v)) }
	cfg, win := b.cfg, b.window()
	customTable := !sameTable(cfg.RareTable, DefaultRareEventTable)
	uvarints := refUvarintHistory(win)

	buf.WriteString(marshalMagic)
	w(uint16(3))
	present := []bool{
		cfg.Quantile != 0.95, cfg.Confidence != 0.95, cfg.Mode != ModeAuto, cfg.NoTrim,
		cfg.FixedRareThreshold != 0, cfg.MaxHistory != 0, customTable, !uvarints,
	}
	var flags byte
	for i, set := range present {
		if set {
			flags |= 1 << i
		}
	}
	w(flags)
	if present[0] {
		w(cfg.Quantile)
	}
	if present[1] {
		w(cfg.Confidence)
	}
	if present[2] {
		varint(int64(cfg.Mode))
	}
	if present[4] {
		varint(int64(cfg.FixedRareThreshold))
	}
	if present[5] {
		varint(int64(cfg.MaxHistory))
	}
	varint(cfg.Seed)
	uvarint(uint64(b.rareThreshold))
	uvarint(uint64(b.consecMisses))
	uvarint(uint64(b.trims))
	uvarint(uint64(b.observations))
	if customTable {
		uvarint(uint64(len(cfg.RareTable)))
		for _, e := range cfg.RareTable {
			w(e.MaxAutocorr)
			w(int64(e.Threshold))
		}
	}
	uvarint(uint64(len(win)))
	for _, v := range win {
		if uvarints {
			uvarint(uint64(v))
		} else {
			w(v)
		}
	}
	return buf.Bytes()
}

// sameTable compares tables entry by entry, bit for bit.
func sameTable(a, b RareEventTable) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].MaxAutocorr) != math.Float64bits(b[i].MaxAutocorr) || a[i].Threshold != b[i].Threshold {
			return false
		}
	}
	return true
}

// refMarshalFixedWidth is the encoder earlier releases shipped: version 2
// for a history refUvarintHistory admits, version 1 otherwise. Tests use
// it to make the blobs an older leader or state directory holds.
func refMarshalFixedWidth(b *BMBP) []byte {
	var buf bytes.Buffer
	buf.WriteString(marshalMagic)
	w := func(v interface{}) {
		_ = binary.Write(&buf, binary.LittleEndian, v)
	}
	win := b.window()
	uvarints := refUvarintHistory(win)
	if uvarints {
		w(uint16(2))
	} else {
		w(uint16(1))
	}
	w(b.cfg.Quantile)
	w(b.cfg.Confidence)
	w(int32(b.cfg.Mode))
	w(b.cfg.NoTrim)
	w(int64(b.cfg.FixedRareThreshold))
	w(int64(b.cfg.MaxHistory))
	w(b.cfg.Seed)

	w(int64(b.rareThreshold))
	w(int64(b.consecMisses))
	w(int64(b.trims))
	w(int64(b.observations))

	w(int64(len(b.cfg.RareTable)))
	for _, e := range b.cfg.RareTable {
		w(e.MaxAutocorr)
		w(int64(e.Threshold))
	}

	w(int64(len(win)))
	for _, v := range win {
		if uvarints {
			buf.Write(binary.AppendUvarint(nil, uint64(v)))
		} else {
			w(v)
		}
	}
	return buf.Bytes()
}

func refUnmarshalBinary(b *BMBP, data []byte) error {
	buf := bytes.NewReader(data)
	magic := make([]byte, len(marshalMagic))
	if _, err := buf.Read(magic); err != nil || string(magic) != marshalMagic {
		return fmt.Errorf("core: not a BMBP state blob")
	}
	var version uint16
	if err := binary.Read(buf, binary.LittleEndian, &version); err != nil {
		return fmt.Errorf("core: truncated state: %v", err)
	}
	var st refState
	var err error
	switch version {
	case 1, 2:
		st, err = refDecodeFixedWidth(buf, version)
	case 3:
		st, err = refDecodeCompact(buf)
	default:
		return fmt.Errorf("core: unsupported state version %d", version)
	}
	if err != nil {
		return err
	}
	if version == 3 {
		if re := refMarshalBinary(st.install(New(Config{}))); !bytes.Equal(re, data) {
			return fmt.Errorf("core: version-3 blob is not canonical")
		}
	}
	st.install(b)
	return nil
}

// refState is a decoded blob before it replaces a predictor's state.
type refState struct {
	cfg                                              Config
	rareThreshold, consecMisses, trims, observations int64
	hist                                             []float64
}

func (st refState) install(b *BMBP) *BMBP {
	b.cfg = st.cfg
	b.idx = sharedIndex(st.cfg.Quantile, st.cfg.Confidence, st.cfg.Mode)
	b.minHistory = b.idx.MinHistory()
	b.hist = st.hist
	b.histStart = 0
	b.set = ostat.Multiset{}
	if len(st.hist) > 0 {
		sorted := slices.Clone(st.hist)
		slices.Sort(sorted)
		b.set.BuildFromSorted(sorted)
	}
	b.rareThreshold = int(st.rareThreshold)
	b.consecMisses = int(st.consecMisses)
	b.trims = int(st.trims)
	b.observations = int(st.observations)
	b.stale = true
	return b
}

func (st *refState) checkCounts() error {
	for _, c := range []int64{st.rareThreshold, st.consecMisses, st.trims, st.observations} {
		if c < 0 {
			return fmt.Errorf("core: corrupt calibration: count %d", c)
		}
	}
	return nil
}

func refDecodeFixedWidth(buf *bytes.Reader, version uint16) (st refState, err error) {
	r := func(v interface{}) error {
		return binary.Read(buf, binary.LittleEndian, v)
	}
	cfg := &st.cfg
	var mode int32
	var fixedRare, maxHistory int64
	if err := firstErr(
		r(&cfg.Quantile), r(&cfg.Confidence), r(&mode), r(&cfg.NoTrim),
		r(&fixedRare), r(&maxHistory), r(&cfg.Seed),
	); err != nil {
		return st, fmt.Errorf("core: truncated config: %v", err)
	}
	cfg.Mode = BoundMode(mode)
	cfg.FixedRareThreshold = int(fixedRare)
	cfg.MaxHistory = int(maxHistory)
	if !(cfg.Quantile > 0 && cfg.Quantile < 1 && cfg.Confidence > 0 && cfg.Confidence < 1) {
		return st, fmt.Errorf("core: corrupt state: quantile %g confidence %g", cfg.Quantile, cfg.Confidence)
	}

	if err := firstErr(r(&st.rareThreshold), r(&st.consecMisses), r(&st.trims), r(&st.observations)); err != nil {
		return st, fmt.Errorf("core: truncated calibration: %v", err)
	}
	if err := st.checkCounts(); err != nil {
		return st, err
	}

	var tableLen int64
	if err := r(&tableLen); err != nil {
		return st, fmt.Errorf("core: truncated table: %v", err)
	}
	if tableLen < 0 || tableLen > 1024 {
		return st, fmt.Errorf("core: corrupt table length %d", tableLen)
	}
	table := make(RareEventTable, tableLen)
	for i := range table {
		var thr int64
		if err := firstErr(r(&table[i].MaxAutocorr), r(&thr)); err != nil {
			return st, fmt.Errorf("core: truncated table entry: %v", err)
		}
		table[i].Threshold = int(thr)
	}
	cfg.RareTable = table

	var histLen int64
	if err := r(&histLen); err != nil {
		return st, fmt.Errorf("core: truncated history length: %v", err)
	}
	if histLen < 0 || histLen > 1<<31 {
		return st, fmt.Errorf("core: corrupt history length %d", histLen)
	}
	st.hist = make([]float64, histLen)
	for i := range st.hist {
		if version == 2 {
			if st.hist[i], err = refReadUvarintWait(buf); err != nil {
				return st, err
			}
			continue
		}
		if err := r(&st.hist[i]); err != nil {
			return st, fmt.Errorf("core: truncated history: %v", err)
		}
		if math.IsNaN(st.hist[i]) || st.hist[i] < 0 {
			return st, fmt.Errorf("core: corrupt history value %g", st.hist[i])
		}
	}
	return st, nil
}

// refReadUvarintWait reads one minimally encoded uvarint history value of
// at most 2^53.
func refReadUvarintWait(buf *bytes.Reader) (float64, error) {
	before := buf.Len()
	u, err := binary.ReadUvarint(buf)
	if err != nil {
		return 0, fmt.Errorf("core: truncated or overflowing history value: %v", err)
	}
	if read := before - buf.Len(); read != len(binary.AppendUvarint(nil, u)) {
		return 0, fmt.Errorf("core: history value %d takes %d bytes, not minimal", u, read)
	}
	if u > 1<<53 {
		return 0, fmt.Errorf("core: corrupt history value %d", u)
	}
	return float64(u), nil
}

// refDecodeCompact parses a version-3 blob leniently; refUnmarshalBinary
// then requires it to re-encode to itself.
func refDecodeCompact(buf *bytes.Reader) (st refState, err error) {
	r := func(v interface{}) error {
		return binary.Read(buf, binary.LittleEndian, v)
	}
	var flags byte
	if err := r(&flags); err != nil {
		return st, fmt.Errorf("core: truncated flags: %v", err)
	}
	has := func(bit int) bool { return flags&(1<<bit) != 0 }
	cfg := &st.cfg
	*cfg = Config{Quantile: 0.95, Confidence: 0.95, RareTable: DefaultRareEventTable, NoTrim: has(3)}
	var errs []error
	if has(0) {
		errs = append(errs, r(&cfg.Quantile))
	}
	if has(1) {
		errs = append(errs, r(&cfg.Confidence))
	}
	varint := func(dst *int) {
		v, err := binary.ReadVarint(buf)
		*dst = int(v)
		errs = append(errs, err)
	}
	var mode int
	if has(2) {
		varint(&mode)
	}
	cfg.Mode = BoundMode(mode)
	if has(4) {
		varint(&cfg.FixedRareThreshold)
	}
	if has(5) {
		varint(&cfg.MaxHistory)
	}
	cfg.Seed, err = binary.ReadVarint(buf)
	if err := firstErr(append(errs, err)...); err != nil {
		return st, fmt.Errorf("core: truncated config: %v", err)
	}
	if !(cfg.Quantile > 0 && cfg.Quantile < 1 && cfg.Confidence > 0 && cfg.Confidence < 1) {
		return st, fmt.Errorf("core: corrupt state: quantile %g confidence %g", cfg.Quantile, cfg.Confidence)
	}

	count := func() (int64, error) {
		u, err := binary.ReadUvarint(buf)
		if err == nil && u > math.MaxInt64 {
			err = fmt.Errorf("count %d out of range", u)
		}
		return int64(u), err
	}
	for _, dst := range []*int64{&st.rareThreshold, &st.consecMisses, &st.trims, &st.observations} {
		if *dst, err = count(); err != nil {
			return st, fmt.Errorf("core: corrupt calibration: %v", err)
		}
	}

	if has(6) {
		tableLen, err := count()
		if err != nil || tableLen > 1024 {
			return st, fmt.Errorf("core: corrupt table length %d: %v", tableLen, err)
		}
		cfg.RareTable = make(RareEventTable, tableLen)
		for i := range cfg.RareTable {
			var thr int64
			if err := firstErr(r(&cfg.RareTable[i].MaxAutocorr), r(&thr)); err != nil {
				return st, fmt.Errorf("core: truncated table entry: %v", err)
			}
			cfg.RareTable[i].Threshold = int(thr)
		}
	}

	histLen, err := count()
	if err != nil || histLen > 1<<31 {
		return st, fmt.Errorf("core: corrupt history length %d: %v", histLen, err)
	}
	for i := int64(0); i < histLen; i++ {
		var v float64
		if has(7) {
			if err := r(&v); err != nil {
				return st, fmt.Errorf("core: truncated history: %v", err)
			}
			if math.IsNaN(v) || v < 0 {
				return st, fmt.Errorf("core: corrupt history value %g", v)
			}
		} else if v, err = refReadUvarintWait(buf); err != nil {
			return st, err
		}
		st.hist = append(st.hist, v)
	}
	return st, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// refDecodeSafe reports whether refUnmarshalBinary can be run on data
// without a large allocation: every length it would allocate for before
// reading is either rejected by its bound checks or covered by the data.
// A uvarint takes at least one byte, so a version-2 history length is
// covered only by as many bytes after it. The version-3 decoder allocates
// nothing ahead of the data.
func refDecodeSafe(data []byte) bool {
	const tableLenAt = headerLen
	if len(data) < tableLenAt+8 || binary.LittleEndian.Uint16(data[len(marshalMagic):]) == 3 {
		return true
	}
	tableLen := int64(binary.LittleEndian.Uint64(data[tableLenAt:]))
	if tableLen < 0 || tableLen > maxTableLen {
		return true
	}
	histLenAt := tableLenAt + 8 + int(tableLen)*rareEntryLen
	if len(data) < histLenAt+8 {
		return true
	}
	histLen := int64(binary.LittleEndian.Uint64(data[histLenAt:]))
	if binary.LittleEndian.Uint16(data[len(marshalMagic):]) == 2 {
		return histLen <= int64(len(data)-histLenAt-8)
	}
	return histLen <= int64(len(data))
}
