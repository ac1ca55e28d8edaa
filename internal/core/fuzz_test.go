package core

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalBinary: state restoration must never panic or accept
// structurally invalid blobs silently, and it must accept and reject
// exactly the blobs the reflective reference decoder does, restoring the
// same state from each accepted one. An accepted version-3 blob is the one
// encoding of its state, so it re-encodes to itself.
func FuzzUnmarshalBinary(f *testing.F) {
	valid := func(frac float64) []byte {
		b := New(Config{})
		for i := 0; i < 100; i++ {
			b.Observe(float64(i)+frac, false)
		}
		blob, _ := b.MarshalBinary()
		return blob
	}
	validUvarint, validF64 := valid(0), valid(0.5)
	f.Add(validUvarint)
	f.Add(validF64)
	f.Add(validUvarint[:len(validUvarint)/2])
	f.Add(validF64[:len(validF64)/2])
	for _, c := range compactCases() {
		f.Add(c.blob)
	}
	for _, p := range []*BMBP{goldenPredictor(), goldenIntegralPredictor()} {
		f.Add(refMarshalFixedWidth(p))
		blob, _ := p.MarshalBinary()
		f.Add(blob)
	}
	legacyUvarint, legacyF64 := uvarintBlob(0), refMarshalFixedWidth(New(Config{}))
	legacyF64[4] = versionF64
	f.Add(legacyUvarint)
	f.Add(legacyF64)
	f.Add([]byte("BMBP"))
	f.Add([]byte{})
	f.Add(hostileHistoryBlob())
	f.Add(compactBlob(maxHistLen))
	f.Add(uvarintBlob(2, 0x01, 0x85, 0x80, 0x00)) // a non-minimal uvarint
	f.Fuzz(func(t *testing.T, data []byte) {
		b := New(Config{})
		err := b.UnmarshalBinary(data)
		if refDecodeSafe(data) {
			ref := New(Config{})
			refErr := refUnmarshalBinary(ref, data)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("decoder error %v, reference error %v", err, refErr)
			}
			if err == nil {
				assertSameState(t, b, ref)
			}
		} else if err == nil {
			t.Fatal("accepted a blob whose history length exceeds its size")
		}
		if err != nil {
			return
		}
		// Accepted blobs must leave a usable predictor.
		if b.MinHistory() < 1 {
			t.Fatal("restored predictor has invalid minimum history")
		}
		b.Observe(1, false)
		b.Refit()
		b.Bound()
		if len(data) > 5 && data[4] == versionCompact {
			again := New(Config{})
			_ = again.UnmarshalBinary(data)
			if blob, _ := again.MarshalBinary(); !bytes.Equal(blob, data) {
				t.Fatalf("accepted version-3 blob re-encodes as %x", blob)
			}
		}
		// And re-serialize cleanly, to a blob that decodes.
		blob, err := b.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		if err := New(Config{}).UnmarshalBinary(blob); err != nil {
			t.Fatalf("re-marshaled blob does not decode: %v", err)
		}
	})
}
