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
	// Corrupt quantile.
	blob2, _ := good.MarshalBinary()
	for i := 6; i < 14; i++ {
		blob2[i] = 0xFF
	}
	if err := b.UnmarshalBinary(blob2); err == nil {
		t.Error("corrupt quantile accepted")
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

// goldenBlob is goldenPredictor's encoding, produced by the reference
// encoder. It pins the state format: state files, cold blobs and replica
// chunks written by any version must keep decoding.
const goldenBlob = "424d42500100cdccccccccccec3f666666666666ee3f01000000000200000000000000" +
	"0400000000000000030000000000000002000000000000000100000000000000000000" +
	"000000000006000000000000000100000000000000000000000000e03f060000000000" +
	"000004000000000000000000000000c072400000000000001d40000000000080444000" +
	"00000000002240"

func TestMarshalGolden(t *testing.T) {
	b := goldenPredictor()
	got, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if h := hex.EncodeToString(got); h != goldenBlob {
		t.Fatalf("encoding drifted from the golden blob:\n got %s\nwant %s", h, goldenBlob)
	}
	if !bytes.Equal(got, refMarshalBinary(b)) {
		t.Fatal("encoder disagrees with the reference encoder")
	}
	golden, _ := hex.DecodeString(goldenBlob)
	restored := New(Config{})
	if err := restored.UnmarshalBinary(golden); err != nil {
		t.Fatal(err)
	}
	want := New(Config{})
	if err := refUnmarshalBinary(want, golden); err != nil {
		t.Fatal(err)
	}
	assertSameState(t, restored, want)
}

// randomPredictor builds a predictor in a random reachable state: random
// config, optionally a custom rare-event table, and a history long enough
// to calibrate, trim and slide a MaxHistory window.
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
	for i := 0; i < n; i++ {
		if rng.Intn(150) == 0 {
			level *= 20 // a change point for the trim path to find
		}
		b.ObserveAuto(level * math.Exp(2*rng.NormFloat64()))
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
	if !reflect.DeepEqual(a.cfg, b.cfg) {
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

// hostileHistoryBlob is an empty predictor's ~200-byte blob with its
// history length rewritten to the largest accepted value, 1<<31: a decoder
// that allocates before checking the bytes present asks for 16 GiB.
func hostileHistoryBlob() []byte {
	blob, _ := New(Config{}).MarshalBinary()
	binary.LittleEndian.PutUint64(blob[len(blob)-8:], maxHistLen)
	return blob
}

// TestUnmarshalHostileLengthAllocatesNothing feeds the decoder declared
// lengths far beyond the blob and checks that it rejects them without
// allocating for them.
func TestUnmarshalHostileLengthAllocatesNothing(t *testing.T) {
	hostile := hostileHistoryBlob()
	table, _ := New(Config{}).MarshalBinary()
	binary.LittleEndian.PutUint64(table[headerLen:], maxTableLen)
	for name, blob := range map[string][]byte{"history": hostile, "table": table} {
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
// replica chunk) and unmarshal (every rehydration and restore).
func BenchmarkBMBPCodec(b *testing.B) {
	p := New(Config{})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		p.ObserveAuto(math.Exp(2 * rng.NormFloat64()))
	}
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
