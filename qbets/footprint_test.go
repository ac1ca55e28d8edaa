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
// blob. Measured at 4.5 KB hydrated and 1.9 KB cold (linux/amd64, Go
// 1.24); the budgets leave about a fifth of headroom. An order-statistic
// arena that reserves leaves its history does not fill (9.7 KB hydrated)
// or a hit-rate window stored a byte per outcome (2.3 KB cold) fails them.
const (
	hydratedStreamBudget = 5600 // bytes
	coldStreamBudget     = 2300 // bytes
)

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func TestStreamFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations distort heap sizes")
	}
	const streams = 2000
	base := liveHeap()
	svc := NewService(false, WithSeed(3))
	recs := make([]ObserveRecord, 100)
	for j := 0; j < streams; j++ {
		for i := range recs {
			// 100 distinct waits per stream, in a shuffled order.
			recs[i] = ObserveRecord{Queue: fmt.Sprintf("fp%05d", j), Procs: 1, WaitSeconds: float64(10 + (i*37)%100)}
		}
		if _, err := svc.ObserveBatch(recs); err != nil {
			t.Fatal(err)
		}
	}
	hydrated := float64(liveHeap()-base) / streams
	if n := svc.EvictToCap(0); n != streams {
		t.Fatalf("evicted %d of %d streams", n, streams)
	}
	cold := float64(liveHeap()-base) / streams
	runtime.KeepAlive(svc)
	t.Logf("per stream: %.0f B hydrated, %.0f B cold", hydrated, cold)
	if hydrated > hydratedStreamBudget {
		t.Errorf("hydrated stream costs %.0f B, budget %d B", hydrated, hydratedStreamBudget)
	}
	if cold > coldStreamBudget {
		t.Errorf("evicted stream costs %.0f B, budget %d B", cold, coldStreamBudget)
	}
}
