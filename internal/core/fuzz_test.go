package core

import "testing"

// FuzzUnmarshalBinary: state restoration must never panic or accept
// structurally invalid blobs silently, and it must accept and reject
// exactly the blobs the reflective reference decoder does, restoring the
// same state from each accepted one.
func FuzzUnmarshalBinary(f *testing.F) {
	valid := func(frac float64) []byte {
		b := New(Config{})
		for i := 0; i < 100; i++ {
			b.Observe(float64(i)+frac, false)
		}
		blob, _ := b.MarshalBinary()
		return blob
	}
	validV2, validV1 := valid(0), valid(0.5)
	f.Add(validV2)
	f.Add(validV1)
	f.Add([]byte("BMBP"))
	f.Add([]byte{})
	f.Add(validV2[:len(validV2)/2])
	f.Add(validV1[:len(validV1)/2])
	f.Add(hostileHistoryBlob())
	f.Add(uvarintBlob(2, 0x01, 0x85, 0x80, 0x00)) // a non-minimal uvarint
	golden, _ := goldenPredictor().MarshalBinary()
	f.Add(golden)
	goldenV2, _ := goldenIntegralPredictor().MarshalBinary()
	f.Add(goldenV2)
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
		// And re-serialize cleanly.
		if _, err := b.MarshalBinary(); err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
	})
}
