package main

import (
	"bytes"
	"testing"
)

// The example's output is part of the docs, so it must regenerate
// byte-identically: the feed draws every wait from one seeded source in a
// fixed order.
func TestRunIsDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	run(&a)
	run(&b)
	if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two runs differ:\n%s\n---\n%s", a.String(), b.String())
	}
}
