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
// blob. Measured at 4.4 KB hydrated and 1,530 B cold with fractional
// waits (linux/amd64, Go 1.24); the budgets leave about a fifth of
// headroom. An order-statistic arena that reserves leaves its history does
// not fill (9.7 KB hydrated) or a hit-rate window stored a byte per
// outcome (about 2 KB cold) fails them. Whole-second waits are stored as
// uvarints in the cold blob: measured at 763 B cold, and
// wholeSecondColdBudget is that plus a fifth, so a cold blob that stores
// them as float64s again (1.5 KB) or spells out the default config in its
// header again (about 940 B) fails it.
//
// A stream that no live write has scored — rebuilt by log replay, then
// evicted, as a leader's streams are after a restart, or adopted cold from
// a state directory or catch-up chunk, as a follower's are — is its blob,
// its snapshot, its stream struct and its registry entry: no hit-rate
// tracker and no quantile profile. The bare* budgets pin those, at the
// measured size (1,389 B and 619 B at most) plus 50 B, which is ten times
// the run-to-run noise: a tracker (80 B), a profile computed at eviction
// (about 180 B) or a blob header carrying the default config again (about
// 180 B) fails them.
const (
	hydratedStreamBudget  = 5600 // bytes
	coldStreamBudget      = 1840 // bytes
	wholeSecondColdBudget = 920  // bytes

	bareColdBudget            = 1440 // bytes, fractional waits
	bareWholeSecondColdBudget = 670  // bytes
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
	cold       float64 // evicted, its profile never read
	rehydrated float64 // evicted, then written once
	profiled   float64 // rehydrated, with its quantile profile read
	replayed   float64 // rebuilt by log replay, then evicted
	adopted    float64 // adopted cold from a state directory
}

const footprintStreams = 2000

func footprintKey(j int) string { return fmt.Sprintf("fp%05d", j) }

// streamFootprint builds 2,000 streams of 100 waits each (wait(i) is the
// i-th wait of every stream) by live writes and measures the live heap per
// stream while hydrated, once evicted, once every stream has been
// rehydrated by one more write, and once each stream's profile has been
// read. It then measures the same streams rebuilt by log replay and
// evicted, and adopted cold from the state directory they save to.
func streamFootprint(t *testing.T, wait func(i int) float64) footprint {
	base := liveHeap()
	perStream := func() float64 { return float64(liveHeap()-base) / footprintStreams }
	var fp footprint
	svc := NewService(false, WithSeed(3))
	recs := make([]ObserveRecord, 100)
	for j := 0; j < footprintStreams; j++ {
		for i := range recs {
			recs[i] = ObserveRecord{Queue: footprintKey(j), Procs: 1, WaitSeconds: wait(i)}
		}
		if _, err := svc.ObserveBatch(recs); err != nil {
			t.Fatal(err)
		}
	}
	fp.hydrated = perStream()
	if n := svc.EvictToCap(0); n != footprintStreams {
		t.Fatalf("evicted %d of %d streams", n, footprintStreams)
	}
	fp.cold = perStream()
	for j := 0; j < footprintStreams; j++ {
		if err := svc.Observe(footprintKey(j), 1, wait(0)); err != nil {
			t.Fatal(err)
		}
	}
	if live := svc.LiveStreams(); live != footprintStreams {
		t.Fatalf("%d of %d streams rehydrated", live, footprintStreams)
	}
	fp.rehydrated = perStream()
	for j := 0; j < footprintStreams; j++ {
		svc.Profile(footprintKey(j), 1)
	}
	fp.profiled = perStream()
	runtime.KeepAlive(svc)
	svc = nil

	svc = replayedService(t, wait)
	if n := svc.EvictToCap(0); n != footprintStreams {
		t.Fatalf("evicted %d of %d replayed streams", n, footprintStreams)
	}
	checkBareCold(t, "replayed and evicted", svc)
	fp.replayed = perStream()
	dir := t.TempDir()
	if err := svc.SaveShards(dir); err != nil {
		t.Fatal(err)
	}
	svc = nil
	svc, err := LoadServiceShards(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	checkBareCold(t, "adopted", svc)
	fp.adopted = perStream()
	runtime.KeepAlive(svc)
	return fp
}

// replayedService builds streamFootprint's streams through the recovery
// apply path, which scores nothing, as a restart's log replay does.
func replayedService(t *testing.T, wait func(i int) float64) *Service {
	svc := NewService(false, WithSeed(3))
	var sc replayScratch
	batch := make([]replayRecord, 100)
	seq := uint64(0)
	for j := 0; j < footprintStreams; j++ {
		st := svc.getOrCreate(footprintKey(j))
		for i := range batch {
			seq++
			batch[i] = replayRecord{st: st, wait: wait(i), seq: seq}
		}
		if err := sc.apply(svc, batch); err != nil {
			t.Fatal(err)
		}
	}
	return svc
}

// checkBareCold fails unless every stream of svc is cold with no hit-rate
// tracker and no quantile profile of its own (a stream created empty keeps
// the service's shared empty profile as its fallback).
func checkBareCold(t *testing.T, name string, svc *Service) {
	t.Helper()
	svc.index.Load().forEach(func(k string, st *stream) {
		profile := st.snap.Load().profile.Load()
		last := st.lastProfile.Load()
		if st.fc != nil || st.hit != nil || profile != nil || (last != nil && last != svc.emptyProfile.Load()) {
			t.Errorf("%s stream %s: hydrated %v, tracker %v, profile %v, last profile %v",
				name, k, st.fc != nil, st.hit != nil, profile != nil, last != nil)
		}
	})
}

func TestStreamFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations distort heap sizes")
	}
	// 100 distinct waits per stream, in a shuffled order.
	for _, row := range []struct {
		name           string
		wait           func(i int) float64
		coldBudget     int
		bareColdBudget int
	}{
		{"fractional waits", func(i int) float64 { return 10.5 + float64((i*37)%100) }, coldStreamBudget, bareColdBudget},
		{"whole-second waits", func(i int) float64 { return float64(10 + (i*37)%100) }, wholeSecondColdBudget, bareWholeSecondColdBudget},
	} {
		fp := streamFootprint(t, row.wait)
		t.Logf("%s, per stream: %.0f B hydrated, %.0f B cold, %.0f B evicted then written once (%.0f B with its profile read); "+
			"%.0f B replayed then evicted, %.0f B adopted cold",
			row.name, fp.hydrated, fp.cold, fp.rehydrated, fp.profiled, fp.replayed, fp.adopted)
		if fp.hydrated > hydratedStreamBudget {
			t.Errorf("%s: hydrated stream costs %.0f B, budget %d B", row.name, fp.hydrated, hydratedStreamBudget)
		}
		if fp.cold > float64(row.coldBudget) {
			t.Errorf("%s: evicted stream costs %.0f B, budget %d B", row.name, fp.cold, row.coldBudget)
		}
		for _, bare := range []struct {
			name  string
			bytes float64
		}{{"replayed then evicted", fp.replayed}, {"adopted cold", fp.adopted}} {
			if bare.bytes > float64(row.bareColdBudget) {
				t.Errorf("%s: a stream %s costs %.0f B, budget %d B", row.name, bare.name, bare.bytes, row.bareColdBudget)
			}
		}
		// A rehydrated stream's history and order-statistic arenas are
		// sized as growth by writes would have left them, and eviction
		// leaves the quantile profile to its first reader, so one more
		// write costs no more than the stream held before it was evicted.
		// The two read within a few bytes of each other from run to run
		// (heap measurement noise); 1 % absorbs that and still fails a
		// rehydration that doubles the history buffer or rebuilds a larger
		// leaf arena (1.4–2.2 KB more per stream), or a stream that keeps
		// a profile computed at eviction that no reader asked for (about
		// 180 B).
		if fp.rehydrated > 1.01*fp.hydrated {
			t.Errorf("%s: evicted then written once costs %.0f B, more than hydrated (%.0f B)",
				row.name, fp.rehydrated, fp.hydrated)
		}
	}
}
