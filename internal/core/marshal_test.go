package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

func TestMarshalRoundTrip(t *testing.T) {
	orig := New(Config{Quantile: 0.9, Confidence: 0.99, MaxHistory: 5000, Seed: 7})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		orig.ObserveAuto(math.Exp(2 * rng.NormFloat64()))
	}
	origBound, origOK := orig.Bound()

	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := New(Config{})
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if restored.HistoryLen() != orig.HistoryLen() {
		t.Fatalf("history %d vs %d", restored.HistoryLen(), orig.HistoryLen())
	}
	if restored.Trims() != orig.Trims() {
		t.Errorf("trims %d vs %d", restored.Trims(), orig.Trims())
	}
	if restored.RareThreshold() != orig.RareThreshold() {
		t.Errorf("rare threshold %d vs %d", restored.RareThreshold(), orig.RareThreshold())
	}
	gotBound, gotOK := restored.Bound()
	if gotOK != origOK || gotBound != origBound {
		t.Fatalf("bound %g/%v vs %g/%v", gotBound, gotOK, origBound, origOK)
	}
	// The restored predictor keeps evolving identically on the upper
	// bound path: same history + same config means same future bounds.
	future := []float64{3, 99, 0.5, 12}
	for _, v := range future {
		orig.Observe(v, false)
		restored.Observe(v, false)
	}
	b1, _ := orig.Bound()
	b2, _ := restored.Bound()
	if b1 != b2 {
		t.Fatalf("post-restore divergence: %g vs %g", b1, b2)
	}
	cfg := restored.Config()
	if cfg.Quantile != 0.9 || cfg.Confidence != 0.99 || cfg.MaxHistory != 5000 {
		t.Errorf("config not restored: %+v", cfg)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	b := New(Config{})
	cases := [][]byte{
		nil,
		[]byte("x"),
		[]byte("NOPE1234"),
		[]byte("BMBP"),         // truncated after magic
		[]byte("BMBP\x09\x00"), // unsupported version
	}
	for i, blob := range cases {
		if err := b.UnmarshalBinary(blob); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Truncated mid-history.
	good := New(Config{})
	for i := 0; i < 100; i++ {
		good.Observe(float64(i), false)
	}
	blob, _ := good.MarshalBinary()
	if err := b.UnmarshalBinary(blob[:len(blob)-4]); err == nil {
		t.Error("truncated history accepted")
	}
	// Corrupt quantile, in each layout. A version-3 blob carries the
	// quantile after its flags byte only when it is not the default.
	legacy := refMarshalFixedWidth(good)
	for i := 6; i < 14; i++ {
		legacy[i] = 0xFF
	}
	if err := b.UnmarshalBinary(legacy); err == nil {
		t.Error("corrupt version-2 quantile accepted")
	}
	compact, _ := New(Config{Quantile: 0.9}).MarshalBinary()
	for i := 7; i < 15; i++ {
		compact[i] = 0xFF
	}
	if err := b.UnmarshalBinary(compact); err == nil {
		t.Error("corrupt version-3 quantile accepted")
	}
}

func TestMarshalEmptyPredictor(t *testing.T) {
	orig := New(Config{})
	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := New(Config{})
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if restored.HistoryLen() != 0 {
		t.Error("empty predictor restored with history")
	}
	if _, ok := restored.Bound(); ok {
		t.Error("empty predictor has a bound")
	}
}

// goldenPredictor is a small predictor touching every field of the state
// format: a non-default config and rare-event table, a calibrated and
// missed-into threshold run, and a MaxHistory window whose live slice no
// longer starts at the front of its backing array.
func goldenPredictor() *BMBP {
	b := New(Config{
		Quantile: 0.9, Confidence: 0.95, Mode: ModeExact, MaxHistory: 4, Seed: 3,
		FixedRareThreshold: 2, RareTable: RareEventTable{{MaxAutocorr: 0.5, Threshold: 6}},
	})
	for i, v := range []float64{12, 0.5, 300, 7.25, 41, 9} {
		b.Observe(v, i%2 == 1)
	}
	b.FinishTraining()
	return b
}

// goldenBlob is goldenPredictor's version-1 encoding, produced by the
// reference encoder earlier releases shipped. It pins the fixed-width
// format: state files, cold blobs and replica chunks written by any
// version must keep decoding.
const goldenBlob = "424d42500100cdccccccccccec3f666666666666ee3f01000000000200000000000000" +
	"0400000000000000030000000000000002000000000000000100000000000000000000" +
	"000000000006000000000000000100000000000000000000000000e03f060000000000" +
	"000004000000000000000000000000c072400000000000001d40000000000080444000" +
	"00000000002240"

// goldenBlobV3F64 is goldenPredictor's version-3 encoding, produced by the
// reference encoder: flags 0xf5 (quantile, mode, fixed rare threshold,
// max history, custom table, f64 history), quantile 0.9, the zigzag
// varints of mode 1, threshold 2, max history 4 and seed 3, the four
// counts, the one-entry table and the four live values.
const goldenBlobV3F64 = "424d42500300" + "f5" + "cdccccccccccec3f" + "02" + "04" + "08" + "06" +
	"02010006" + "01" + "000000000000e03f0600000000000000" +
	"04" + "0000000000c07240" + "0000000000001d40" + "0000000000804440" + "0000000000002240"

func TestMarshalGolden(t *testing.T) {
	checkGolden(t, goldenPredictor(), goldenBlobV3F64, goldenBlob)
}

// checkGolden pins b's encoding to the version-3 golden, and checks that
// the version-3 golden and the older golden both decode, with both
// decoders, to b's state.
func checkGolden(t *testing.T, b *BMBP, v3, older string) {
	t.Helper()
	got, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if h := hex.EncodeToString(got); h != v3 {
		t.Fatalf("encoding drifted from the golden blob:\n got %s\nwant %s", h, v3)
	}
	if !bytes.Equal(got, refMarshalBinary(b)) {
		t.Fatal("encoder disagrees with the reference encoder")
	}
	if h := hex.EncodeToString(refMarshalFixedWidth(b)); h != older {
		t.Fatalf("the reference fixed-width encoder drifted from the golden blob:\n got %s\nwant %s", h, older)
	}
	for _, g := range []string{v3, older} {
		golden, _ := hex.DecodeString(g)
		restored := New(Config{})
		if err := restored.UnmarshalBinary(golden); err != nil {
			t.Fatal(err)
		}
		want := New(Config{})
		if err := refUnmarshalBinary(want, golden); err != nil {
			t.Fatal(err)
		}
		assertSameState(t, restored, want)
		if !bytes.Equal(refMarshalBinary(restored), got) {
			t.Fatal("a golden blob decodes to a state other than the golden predictor's")
		}
	}
}

// goldenIntegralPredictor is goldenPredictor's configuration fed
// whole-second waits, so its history is stored as uvarints: its live
// window holds a zero and uvarints of one, two, three and eight bytes
// (2^53, the largest value a uvarint history stores).
func goldenIntegralPredictor() *BMBP {
	b := New(Config{
		Quantile: 0.9, Confidence: 0.95, Mode: ModeExact, MaxHistory: 5, Seed: 3,
		FixedRareThreshold: 2, RareTable: RareEventTable{{MaxAutocorr: 0.5, Threshold: 6}},
	})
	for i, v := range []float64{12, 0, 300, 7, 200000, 1 << 53} {
		b.Observe(v, i%2 == 1)
	}
	b.FinishTraining()
	return b
}

// goldenBlobV2 is goldenIntegralPredictor's version-2 encoding, produced
// by the reference encoder earlier releases shipped.
const goldenBlobV2 = "424d42500200cdccccccccccec3f666666666666ee3f01000000000200000000000000" +
	"0500000000000000030000000000000002000000000000000100000000000000000000" +
	"000000000006000000000000000100000000000000000000000000e03f060000000000" +
	"00000500000000000000" + "00" + "ac02" + "07" + "c09a0c" + "8080808080808010"

// goldenBlobV3 is goldenIntegralPredictor's version-3 encoding, produced
// by the reference encoder: goldenBlobV3F64's fields with flags 0x75 (no
// f64 history), max history 5 and the five live values as uvarints.
const goldenBlobV3 = "424d42500300" + "75" + "cdccccccccccec3f" + "02" + "04" + "0a" + "06" +
	"02010006" + "01" + "000000000000e03f0600000000000000" +
	"05" + "00" + "ac02" + "07" + "c09a0c" + "8080808080808010"

func TestMarshalGoldenV2(t *testing.T) {
	checkGolden(t, goldenIntegralPredictor(), goldenBlobV3, goldenBlobV2)
}

// TestMarshalVersionChoice: every blob is written as version 3, and only
// a history of whole numbers in [0, 2^53] without a sign bit is stored as
// uvarints. −0 and 2^53 + 2 (a whole number a uvarint history cannot
// store) keep f64s, and every value round-trips bit for bit.
func TestMarshalVersionChoice(t *testing.T) {
	for _, tc := range []struct {
		name string
		hist []float64
		f64  bool
	}{
		{"empty", nil, false},
		{"whole seconds", []float64{0, 1, 127, 128, 86400}, false},
		{"2^53", []float64{3, 1 << 53}, false},
		{"fraction", []float64{3, 0.5}, true},
		{"negative zero", []float64{3, math.Copysign(0, -1)}, true},
		{"2^53 + 2", []float64{3, 1<<53 + 2}, true},
		{"+Inf", []float64{3, math.Inf(1)}, true},
	} {
		b := New(Config{})
		for _, v := range tc.hist {
			b.Observe(v, false)
		}
		blob, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if blob[4] != versionCompact {
			t.Errorf("%s: written as version %d, want %d", tc.name, blob[4], versionCompact)
		}
		if f64 := blob[6]&flagF64History != 0; f64 != tc.f64 {
			t.Errorf("%s: f64 history flag %v, want %v", tc.name, f64, tc.f64)
		}
		if !bytes.Equal(blob, refMarshalBinary(b)) {
			t.Errorf("%s: encoder disagrees with the reference encoder", tc.name)
		}
		restored := New(Config{})
		if err := restored.UnmarshalBinary(blob); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := restored.History()
		for i, v := range b.History() {
			if math.Float64bits(got[i]) != math.Float64bits(v) {
				t.Errorf("%s: value %d restored as %g, want %g", tc.name, i, got[i], v)
			}
		}
	}
}

// uvarintBlob is an empty predictor's version-2 blob with its history
// length set to n and raw appended as the history bytes.
func uvarintBlob(n uint64, raw ...byte) []byte {
	blob := refMarshalFixedWidth(New(Config{}))
	binary.LittleEndian.PutUint64(blob[len(blob)-8:], n)
	return append(blob, raw...)
}

// compactBlob is an empty predictor's version-3 blob with its history
// length set to n and raw appended as the history bytes.
func compactBlob(n uint64, raw ...byte) []byte {
	blob, _ := New(Config{}).MarshalBinary()
	blob = binary.AppendUvarint(blob[:len(blob)-1], n) // the empty history's length, 0x00
	return append(blob, raw...)
}

// TestUnmarshalUvarintHistory: the version-2 and version-3 decoders accept
// exactly the minimal uvarints of values up to 2^53, as the reference
// decoder does. Only version 2 ignores bytes after the history.
func TestUnmarshalUvarintHistory(t *testing.T) {
	max := binary.AppendUvarint(nil, 1<<53)
	over := binary.AppendUvarint(nil, 1<<53+1)
	for _, tc := range []struct {
		name string
		n    uint64
		raw  []byte
		ok   bool
	}{
		{"two values", 2, []byte{0x05, 0xac, 0x02}, true},
		{"2^53", 1, max, true},
		{"non-minimal zero", 1, []byte{0x80, 0x00}, false},
		{"non-minimal five", 2, []byte{0x01, 0x85, 0x80, 0x00}, false},
		{"above 2^53", 1, over, false},
		{"overflows 64 bits", 1, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, false},
		{"cut mid-value", 1, []byte{0xac}, false},
		{"fewer values than declared", 3, []byte{0x01, 0xac, 0x02}, false},
		{"length above the bytes present", 4, []byte{0x01, 0x02, 0x03}, false},
		{"trailing bytes", 1, []byte{0x05, 0x07}, true},
	} {
		for version, blob := range map[int][]byte{2: uvarintBlob(tc.n, tc.raw...), 3: compactBlob(tc.n, tc.raw...)} {
			ok := tc.ok && (version == 2 || tc.name != "trailing bytes")
			err := New(Config{}).UnmarshalBinary(blob)
			if (err == nil) != ok {
				t.Errorf("%s, version %d: error %v, want ok=%v", tc.name, version, err, ok)
			}
			if refErr := refUnmarshalBinary(New(Config{}), blob); (refErr == nil) != ok {
				t.Errorf("%s, version %d: reference error %v, want ok=%v", tc.name, version, refErr, ok)
			}
		}
	}
}

// compactCase is a hand-built version-3 blob and whether it decodes.
type compactCase struct {
	name string
	blob []byte
	ok   bool
}

// compactCases covers the version-3 layout field by field: the default
// config, each non-default flag, both history encodings, each
// non-canonical form, and truncations of the flags byte and of each field.
func compactCases() []compactCase {
	// hdr is a version-3 blob's magic, version and flags.
	hdr := func(flags byte) []byte { return []byte{'B', 'M', 'B', 'P', 3, 0, flags} }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	f64 := func(v float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)) }
	// tail is seed 0, four zero counts and an empty history.
	tail := []byte{0, 0, 0, 0, 0, 0}
	defaultTable := cat(binary.AppendUvarint(nil, uint64(len(DefaultRareEventTable))), defaultRareTableBlob)
	return []compactCase{
		{"default config", cat(hdr(0), tail), true},
		{"quantile 0.9", cat(hdr(flagQuantile), f64(0.9), tail), true},
		{"confidence 0.99", cat(hdr(flagConfidence), f64(0.99), tail), true},
		{"mode exact", cat(hdr(flagMode), []byte{2}, tail), true},
		{"no trim", cat(hdr(flagNoTrim), tail), true},
		{"fixed rare threshold -1", cat(hdr(flagFixedRare), []byte{1}, tail), true},
		{"max history 300", cat(hdr(flagMaxHistory), []byte{0xd8, 0x04}, tail), true},
		{"empty custom table", cat(hdr(flagRareTable), tail[:5], []byte{0}, tail[5:]), true},
		{"f64 history", cat(hdr(flagF64History), tail[:5], []byte{1}, f64(0.5)), true},
		{"uvarint history", cat(hdr(0), tail[:5], []byte{2, 7, 0xac, 0x02}), true},
		{"negative seed", cat(hdr(0), []byte{5}, tail[1:]), true},
		{"flagged default quantile", cat(hdr(flagQuantile), f64(0.95), tail), false},
		{"flagged default confidence", cat(hdr(flagConfidence), f64(0.95), tail), false},
		{"flagged default mode", cat(hdr(flagMode), []byte{0}, tail), false},
		{"flagged default fixed threshold", cat(hdr(flagFixedRare), []byte{0}, tail), false},
		{"flagged default max history", cat(hdr(flagMaxHistory), []byte{0}, tail), false},
		{"custom table equal to the default", cat(hdr(flagRareTable), tail[:5], defaultTable, tail[5:]), false},
		{"table length above the bound", cat(hdr(flagRareTable), tail[:5], binary.AppendUvarint(nil, maxTableLen+1)), false},
		{"f64 history of whole seconds", cat(hdr(flagF64History), tail[:5], []byte{1}, f64(7)), false},
		{"empty f64 history", cat(hdr(flagF64History), tail), false},
		{"quantile out of range", cat(hdr(flagQuantile), f64(1.5), tail), false},
		{"non-minimal seed", cat(hdr(0), []byte{0x80, 0x00}, tail[1:]), false},
		{"count above the int range", cat(hdr(0), []byte{0}, binary.AppendUvarint(nil, math.MaxInt64+1), tail[2:]), false},
		{"bytes after the history", cat(hdr(0), tail, []byte{0}), false},
		{"truncated flags byte", []byte{'B', 'M', 'B', 'P', 3, 0}, false},
		{"truncated quantile", cat(hdr(flagQuantile), f64(0.9)[:5]), false},
		{"truncated mode", cat(hdr(flagMode), []byte{0x80}), false},
		{"truncated counts", cat(hdr(0), tail[:3]), false},
		{"missing history length", cat(hdr(0), tail[:5]), false},
		{"truncated table", cat(hdr(flagRareTable), tail[:5], []byte{1, 0, 0}), false},
		{"truncated f64 history", cat(hdr(flagF64History), tail[:5], []byte{1}, f64(0.5)[:7]), false},
	}
}

// TestUnmarshalCompactCanonical: the version-3 decoder accepts only the
// blob MarshalBinary writes for a state, as the reference decoder does,
// and rejects every truncation of it.
func TestUnmarshalCompactCanonical(t *testing.T) {
	for _, tc := range compactCases() {
		err := New(Config{}).UnmarshalBinary(tc.blob)
		if (err == nil) != tc.ok {
			t.Errorf("%s: error %v, want ok=%v", tc.name, err, tc.ok)
		}
		if refErr := refUnmarshalBinary(New(Config{}), tc.blob); (refErr == nil) != tc.ok {
			t.Errorf("%s: reference error %v, want ok=%v", tc.name, refErr, tc.ok)
		}
		if err != nil {
			continue
		}
		b := New(Config{})
		_ = b.UnmarshalBinary(tc.blob)
		if again, _ := b.MarshalBinary(); !bytes.Equal(again, tc.blob) {
			t.Errorf("%s: re-encodes as %x, not %x", tc.name, again, tc.blob)
		}
	}
	// Every proper prefix of a blob that uses every field is rejected.
	full, _ := goldenPredictor().MarshalBinary()
	for n := 0; n < len(full); n++ {
		if New(Config{}).UnmarshalBinary(full[:n]) == nil {
			t.Errorf("a %d-byte prefix of a %d-byte blob decoded", n, len(full))
		}
	}
}

// TestUnmarshalNegativeCounts: a version-1 or version-2 blob whose
// calibration holds a negative count is corrupt (version 3 cannot hold it,
// so accepting it would leave a predictor whose next eviction writes a
// blob that does not decode).
func TestUnmarshalNegativeCounts(t *testing.T) {
	for field := 0; field < 4; field++ {
		blob := refMarshalFixedWidth(New(Config{}))
		binary.LittleEndian.PutUint64(blob[headerLen-8*(4-field):], math.MaxUint64)
		if err := New(Config{}).UnmarshalBinary(blob); err == nil {
			t.Errorf("count %d: -1 accepted", field)
		}
		if err := refUnmarshalBinary(New(Config{}), blob); err == nil {
			t.Errorf("count %d: -1 accepted by the reference decoder", field)
		}
	}
}

// TestUnmarshalHistoryCapacity: a decoded history has the capacity append
// growth gives a history of that length that was never encoded, so the
// first write after a rehydration does not reallocate it. Up to 512 values
// the two agree exactly (append doubles through the allocator's size
// classes there).
func TestUnmarshalHistoryCapacity(t *testing.T) {
	for _, n := range []int{1, 59, 100, 128, 129, 300, 512} {
		for _, frac := range []float64{0, 0.5} { // version 2 and version 1
			b := New(Config{})
			for i := 0; i < n; i++ {
				b.Observe(float64(i)+frac, false)
			}
			blob, _ := b.MarshalBinary()
			restored := New(Config{})
			if err := restored.UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
			if got, want := cap(restored.hist), cap(b.hist); got != want {
				t.Errorf("%d values (+%g): decoded capacity %d, never-encoded capacity %d", n, frac, got, want)
			}
		}
	}
}

// randomPredictor builds a predictor in a random reachable state: random
// config, optionally a custom rare-event table, a history long enough to
// calibrate, trim and slide a MaxHistory window, and half the time
// whole-second waits.
func randomPredictor(rng *rand.Rand) *BMBP {
	cfg := Config{
		Quantile:   []float64{0, 0.5, 0.9, 0.95, 0.99}[rng.Intn(5)],
		Confidence: []float64{0, 0.9, 0.95, 0.99}[rng.Intn(4)],
		Mode:       BoundMode(rng.Intn(3)),
		NoTrim:     rng.Intn(4) == 0,
		Seed:       rng.Int63() - rng.Int63(),
	}
	if rng.Intn(3) == 0 {
		cfg.MaxHistory = 1 + rng.Intn(300)
	}
	if rng.Intn(4) == 0 {
		cfg.FixedRareThreshold = 1 + rng.Intn(5)
	}
	if rng.Intn(4) == 0 {
		cfg.RareTable = make(RareEventTable, rng.Intn(4))
		for i := range cfg.RareTable {
			cfg.RareTable[i] = RareEventEntry{MaxAutocorr: rng.Float64(), Threshold: 1 + rng.Intn(30)}
		}
	}
	b := New(cfg)
	n := rng.Intn(600)
	level := 1.0
	wholeSeconds := rng.Intn(2) == 0 // encodes as version 2
	for i := 0; i < n; i++ {
		if rng.Intn(150) == 0 {
			level *= 20 // a change point for the trim path to find
		}
		v := level * math.Exp(2*rng.NormFloat64())
		if wholeSeconds {
			v = math.Round(60 * v)
		}
		b.ObserveAuto(v)
	}
	return b
}

// assertSameState fails unless a and b hold the same predictor state:
// the same encoding, configuration and order statistics.
func assertSameState(t *testing.T, a, b *BMBP) {
	t.Helper()
	if !bytes.Equal(refMarshalBinary(a), refMarshalBinary(b)) {
		t.Fatal("restored states encode differently")
	}
	// The table is compared bit for bit: a decoded table may hold NaN.
	ca, cb := a.cfg, b.cfg
	ca.RareTable, cb.RareTable = nil, nil
	if !reflect.DeepEqual(ca, cb) || !sameTable(a.cfg.RareTable, b.cfg.RareTable) {
		t.Fatalf("config %+v vs %+v", a.cfg, b.cfg)
	}
	if a.minHistory != b.minHistory || a.stale != b.stale || a.histStart != b.histStart {
		t.Fatalf("derived state differs: minHistory %d/%d stale %v/%v histStart %d/%d",
			a.minHistory, b.minHistory, a.stale, b.stale, a.histStart, b.histStart)
	}
	var sa, sb []float64
	a.set.InOrder(func(v float64) bool { sa = append(sa, v); return true })
	b.set.InOrder(func(v float64) bool { sb = append(sb, v); return true })
	if !reflect.DeepEqual(sa, sb) {
		t.Fatal("order statistics differ")
	}
	ba, oka := a.Bound()
	bb, okb := b.Bound()
	if ba != bb || oka != okb {
		t.Fatalf("bound %g/%v vs %g/%v", ba, oka, bb, okb)
	}
}

// TestMarshalMatchesReference checks the codec against the reflective
// reference on random predictor states: identical bytes out, identical
// state back in.
func TestMarshalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 200; i++ {
		b := randomPredictor(rng)
		got, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		want := refMarshalBinary(b)
		if !bytes.Equal(got, want) {
			t.Fatalf("state %d: encoding differs from reference (%d vs %d bytes)", i, len(got), len(want))
		}
		if cap(got) != len(got) {
			t.Fatalf("state %d: blob capacity %d for %d bytes; the encoder must size it exactly", i, cap(got), len(got))
		}
		restored, ref := New(Config{}), New(Config{})
		if err := restored.UnmarshalBinary(got); err != nil {
			t.Fatal(err)
		}
		if err := refUnmarshalBinary(ref, got); err != nil {
			t.Fatal(err)
		}
		assertSameState(t, restored, ref)
		// The state an earlier release saved comes back the same.
		older, again := New(Config{}), New(Config{})
		if err := older.UnmarshalBinary(refMarshalFixedWidth(b)); err != nil {
			t.Fatal(err)
		}
		if err := again.UnmarshalBinary(got); err != nil {
			t.Fatal(err)
		}
		assertSameState(t, older, again)
	}
}

func TestMarshalOneAllocation(t *testing.T) {
	b := New(Config{})
	for i := 0; i < 100; i++ {
		b.Observe(float64(i), false)
	}
	if allocs := testing.AllocsPerRun(100, func() { b.MarshalBinary() }); allocs != 1 {
		t.Fatalf("MarshalBinary allocated %.1f times, want 1", allocs)
	}
}

// TestRehydrateAllocations pins a rehydration's allocations on a
// 100-value history (two leaves): the predictor, and in UnmarshalBinary
// the history and the multiset's two arenas. The sort copy stays on the
// stack and no throwaway leaf is allocated.
func TestRehydrateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector moves the sort buffer to the heap")
	}
	b := New(Config{})
	for i := 0; i < 100; i++ {
		b.Observe(float64((i*37)%100)+0.5, false)
	}
	blob, _ := b.MarshalBinary()
	var p *BMBP
	if allocs := testing.AllocsPerRun(100, func() { p = New(Config{}) }); allocs != 1 {
		t.Errorf("New allocated %.1f times, want 1", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		p = New(Config{})
		if err := p.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
	}); allocs != 4 {
		t.Errorf("New + UnmarshalBinary allocated %.1f times, want 4", allocs)
	}
}

// TestUnmarshalSharesDefaultRareTable: a restored predictor running the
// default rare-event table shares DefaultRareEventTable rather than
// holding its own copy; any other table is decoded into its own slice.
func TestUnmarshalSharesDefaultRareTable(t *testing.T) {
	blob, _ := New(Config{}).MarshalBinary()
	b := New(Config{})
	if err := b.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if &b.cfg.RareTable[0] != &DefaultRareEventTable[0] {
		t.Error("default rare-event table decoded into a copy")
	}
	custom := RareEventTable{{MaxAutocorr: 0.3, Threshold: 4}}
	blob, _ = New(Config{RareTable: custom}).MarshalBinary()
	if err := b.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.cfg.RareTable, custom) || &b.cfg.RareTable[0] == &custom[0] {
		t.Errorf("custom table restored as %+v", b.cfg.RareTable)
	}
}

// hostileHistoryBlob is an empty predictor's ~200-byte version-2 blob
// with its history length rewritten to the largest accepted value, 1<<31: a
// decoder that allocates before checking the bytes present asks for 16 GiB.
func hostileHistoryBlob() []byte {
	return uvarintBlob(maxHistLen)
}

// TestUnmarshalHostileLengthAllocatesNothing feeds the decoder declared
// lengths far beyond the blob and checks that it rejects them without
// allocating for them.
func TestUnmarshalHostileLengthAllocatesNothing(t *testing.T) {
	hostile := hostileHistoryBlob()
	hostileV1 := append([]byte(nil), hostile...)
	hostileV1[4] = versionF64
	table := refMarshalFixedWidth(New(Config{}))
	binary.LittleEndian.PutUint64(table[headerLen:], maxTableLen)
	compact := compactBlob(maxHistLen)
	compactF64 := append([]byte(nil), compact...)
	compactF64[6] |= flagF64History
	for name, blob := range map[string][]byte{
		"history": hostile, "history v1": hostileV1, "table": table,
		"history v3": compact, "f64 history v3": compactF64,
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			if err := New(Config{}).UnmarshalBinary(blob); err == nil {
				t.Fatalf("%s: hostile length accepted", name)
			}
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: rejecting a %d-byte blob 10 times allocated %d bytes", name, len(blob), grew)
		}
	}
}

// BenchmarkBMBPCodec times one stream's eviction/rehydration round trip
// halves on a 100-value history: marshal (every eviction, state save and
// replica chunk) and unmarshal (every rehydration and restore). The
// top-level rows hold lognormal waits (an f64 history); the integral rows
// hold the same waits in whole seconds (a uvarint history), as scheduler
// logs record them.
func BenchmarkBMBPCodec(b *testing.B) {
	p, q := New(Config{}), New(Config{})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		v := math.Exp(2 * rng.NormFloat64())
		p.ObserveAuto(v)
		q.ObserveAuto(math.Round(60 * v))
	}
	benchmarkCodec(b, p)
	b.Run("integral", func(b *testing.B) { benchmarkCodec(b, q) })
}

func benchmarkCodec(b *testing.B, p *BMBP) {
	blob, _ := p.MarshalBinary()
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.MarshalBinary(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		q := New(Config{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := q.UnmarshalBinary(blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}
