package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/ostat"
)

// The reflective codec below is the state format's reference
// implementation: one binary.Write or binary.Read per field. MarshalBinary
// and UnmarshalBinary must agree with it byte for byte and blob for blob
// (marshal_test.go and FuzzUnmarshalBinary check both). It decodes a
// declared history length by allocating it before reading any value, so it
// is only ever fed blobs whose declared lengths fit in the data.

func refMarshalBinary(b *BMBP) []byte {
	var buf bytes.Buffer
	buf.WriteString(marshalMagic)
	w := func(v interface{}) {
		_ = binary.Write(&buf, binary.LittleEndian, v)
	}
	w(uint16(marshalVersion))
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

	win := b.window()
	w(int64(len(win)))
	for _, v := range win {
		w(v)
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
	r := func(v interface{}) error {
		return binary.Read(buf, binary.LittleEndian, v)
	}
	if err := r(&version); err != nil {
		return fmt.Errorf("core: truncated state: %v", err)
	}
	if version != marshalVersion {
		return fmt.Errorf("core: unsupported state version %d", version)
	}

	var cfg Config
	var mode int32
	var fixedRare, maxHistory int64
	if err := firstErr(
		r(&cfg.Quantile), r(&cfg.Confidence), r(&mode), r(&cfg.NoTrim),
		r(&fixedRare), r(&maxHistory), r(&cfg.Seed),
	); err != nil {
		return fmt.Errorf("core: truncated config: %v", err)
	}
	cfg.Mode = BoundMode(mode)
	cfg.FixedRareThreshold = int(fixedRare)
	cfg.MaxHistory = int(maxHistory)
	if !(cfg.Quantile > 0 && cfg.Quantile < 1 && cfg.Confidence > 0 && cfg.Confidence < 1) {
		return fmt.Errorf("core: corrupt state: quantile %g confidence %g", cfg.Quantile, cfg.Confidence)
	}

	var rareThreshold, consecMisses, trims, observations int64
	if err := firstErr(r(&rareThreshold), r(&consecMisses), r(&trims), r(&observations)); err != nil {
		return fmt.Errorf("core: truncated calibration: %v", err)
	}

	var tableLen int64
	if err := r(&tableLen); err != nil {
		return fmt.Errorf("core: truncated table: %v", err)
	}
	if tableLen < 0 || tableLen > 1024 {
		return fmt.Errorf("core: corrupt table length %d", tableLen)
	}
	table := make(RareEventTable, tableLen)
	for i := range table {
		var thr int64
		if err := firstErr(r(&table[i].MaxAutocorr), r(&thr)); err != nil {
			return fmt.Errorf("core: truncated table entry: %v", err)
		}
		table[i].Threshold = int(thr)
	}
	cfg.RareTable = table

	var histLen int64
	if err := r(&histLen); err != nil {
		return fmt.Errorf("core: truncated history length: %v", err)
	}
	if histLen < 0 || histLen > 1<<31 {
		return fmt.Errorf("core: corrupt history length %d", histLen)
	}
	hist := make([]float64, histLen)
	for i := range hist {
		if err := r(&hist[i]); err != nil {
			return fmt.Errorf("core: truncated history: %v", err)
		}
		if math.IsNaN(hist[i]) || hist[i] < 0 {
			return fmt.Errorf("core: corrupt history value %g", hist[i])
		}
	}

	b.cfg = cfg
	b.idx = NewIncrementalIndex(cfg.Quantile, cfg.Confidence, cfg.Mode)
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
func refDecodeSafe(data []byte) bool {
	const tableLenAt = headerLen
	if len(data) < tableLenAt+8 {
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
	return histLen <= int64(len(data))
}
