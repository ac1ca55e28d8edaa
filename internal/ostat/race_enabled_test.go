//go:build race

package ostat

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation moves stack buffers to the heap; the
// allocation pins are skipped under it.
const raceEnabled = true
