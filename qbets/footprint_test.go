package qbets

import (
	"fmt"
	"runtime"
	"testing"
)

// Per-stream memory budgets. The serving plane's heap is per-stream state
// times stream count, so these pin what one stream of 100 distinct
// observations costs while hydrated (forecaster, history, order-statistic
// arena, hit-rate window, registry entry) and once evicted to its cold
// blob. Measured at 4.5 KB hydrated and 1.9 KB cold with fractional waits
// (linux/amd64, Go 1.24); the budgets leave about a fifth of headroom. An
// order-statistic arena that reserves leaves its history does not fill
// (9.7 KB hydrated) or a hit-rate window stored a byte per outcome (2.3 KB
// cold) fails them. Whole-second waits are stored as uvarints in the cold
// blob: measured at 1,135 B cold, and wholeSecondColdBudget is that plus a
// fifth, so a cold blob that stores them as float64s again (1.8 KB) fails
// it.
const (
	hydratedStreamBudget  = 5600 // bytes
	coldStreamBudget      = 2300 // bytes
	wholeSecondColdBudget = 1360 // bytes
)

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// footprint is the live heap per stream at each step of streamFootprint.
type footprint struct {
	hydrated   float64 // after 100 writes
	profiled   float64 // hydrated, with its quantile profile computed
	cold       float64 // evicted
	rehydrated float64 // evicted, then written once
}

// streamFootprint builds 2,000 streams of 100 waits each (wait(i) is the
// i-th wait of every stream) and measures the live heap per stream while
// hydrated, once each stream's profile has been read, once evicted, and
// once every stream has been rehydrated by one more write.
func streamFootprint(t *testing.T, wait func(i int) float64) footprint {
	const streams = 2000
	base := liveHeap()
	svc := NewService(false, WithSeed(3))
	recs := make([]ObserveRecord, 100)
	for j := 0; j < streams; j++ {
		for i := range recs {
			recs[i] = ObserveRecord{Queue: fmt.Sprintf("fp%05d", j), Procs: 1, WaitSeconds: wait(i)}
		}
		if _, err := svc.ObserveBatch(recs); err != nil {
			t.Fatal(err)
		}
	}
	perStream := func() float64 { return float64(liveHeap()-base) / streams }
	var fp footprint
	fp.hydrated = perStream()
	for j := 0; j < streams; j++ {
		svc.Profile(fmt.Sprintf("fp%05d", j), 1)
	}
	fp.profiled = perStream()
	if n := svc.EvictToCap(0); n != streams {
		t.Fatalf("evicted %d of %d streams", n, streams)
	}
	fp.cold = perStream()
	for j := 0; j < streams; j++ {
		if err := svc.Observe(fmt.Sprintf("fp%05d", j), 1, wait(0)); err != nil {
			t.Fatal(err)
		}
	}
	if live := svc.LiveStreams(); live != streams {
		t.Fatalf("%d of %d streams rehydrated", live, streams)
	}
	fp.rehydrated = perStream()
	runtime.KeepAlive(svc)
	return fp
}

func TestStreamFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations distort heap sizes")
	}
	// 100 distinct waits per stream, in a shuffled order.
	for _, row := range []struct {
		name       string
		wait       func(i int) float64
		coldBudget int
	}{
		{"fractional waits", func(i int) float64 { return 10.5 + float64((i*37)%100) }, coldStreamBudget},
		{"whole-second waits", func(i int) float64 { return float64(10 + (i*37)%100) }, wholeSecondColdBudget},
	} {
		fp := streamFootprint(t, row.wait)
		t.Logf("%s, per stream: %.0f B hydrated (%.0f B with its profile read), %.0f B cold, %.0f B evicted then written once",
			row.name, fp.hydrated, fp.profiled, fp.cold, fp.rehydrated)
		if fp.hydrated > hydratedStreamBudget {
			t.Errorf("%s: hydrated stream costs %.0f B, budget %d B", row.name, fp.hydrated, hydratedStreamBudget)
		}
		if fp.cold > float64(row.coldBudget) {
			t.Errorf("%s: evicted stream costs %.0f B, budget %d B", row.name, fp.cold, row.coldBudget)
		}
		// Eviction computes the stream's quantile profile so cold reads
		// can serve it, and the stream keeps the last profile it computed
		// as its read fallback, as a hydrated stream does once its profile
		// is read. Past that, a rehydrated stream's history and
		// order-statistic arenas are sized as growth by writes would have
		// left them, so one more write costs no more than the stream held
		// before it was evicted. The two read within a few bytes of each
		// other from run to run (heap measurement noise); 1 % absorbs that
		// and still fails a rehydration that doubles the history buffer
		// or rebuilds a larger leaf arena (1.4–2.2 KB more per stream).
		if fp.rehydrated > 1.01*fp.profiled {
			t.Errorf("%s: evicted then written once costs %.0f B, more than hydrated with its profile read (%.0f B)",
				row.name, fp.rehydrated, fp.profiled)
		}
	}
}
