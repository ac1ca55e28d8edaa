package qbets

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// buildShardTestService creates a service with several streams of
// deterministic traffic and returns it plus the per-queue observation
// schedule so tests can extend it identically on a restored copy.
func buildShardTestService(t *testing.T, queues int) *Service {
	t.Helper()
	svc := NewService(false, WithSeed(13))
	for q := 0; q < queues; q++ {
		for i := 0; i < 120; i++ {
			if err := svc.Observe(fmt.Sprintf("shq%03d", q), 1, shardWait(q, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return svc
}

func shardWait(q, i int) float64 { return math.Exp(math.Sin(float64(q*500+i))) * 45 }

// TestSaveLoadShardsRoundTrip saves a mixed hot/cold registry as a sharded
// generation and checks the restore is exact, all-cold, and that writes
// afterwards rehydrate to the oracle's state.
func TestSaveLoadShardsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const queues = 9 // more queues than shards: every shard file non-trivial
	svc := buildShardTestService(t, queues)
	// Evict a subset so the save sees both hydrated and cold streams.
	svc.EvictToCap(queues / 2)

	if err := svc.saveShards(dir, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, currentFile)); err != nil {
		t.Fatalf("no CURRENT in a freshly saved directory: %v", err)
	}

	restored, err := LoadServiceShards(dir, false, WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumStreams() != queues {
		t.Fatalf("restored %d streams, want %d", restored.NumStreams(), queues)
	}
	if restored.LiveStreams() != 0 {
		t.Fatalf("restored %d hydrated streams, want 0 (cold adoption)", restored.LiveStreams())
	}
	// Read plane must be exact without rehydrating anything.
	wantQ := svc.Queues()
	gotQ := restored.Queues()
	if len(gotQ) != len(wantQ) {
		t.Fatalf("restored Queues() = %d keys, want %d", len(gotQ), len(wantQ))
	}
	for i := range wantQ {
		if gotQ[i] != wantQ[i] {
			t.Fatalf("Queues()[%d] = %q, want %q", i, gotQ[i], wantQ[i])
		}
	}
	for q := 0; q < queues; q++ {
		name := fmt.Sprintf("shq%03d", q)
		gb, gok := restored.Forecast(name, 1)
		wb, wok := svc.Forecast(name, 1)
		if gok != wok || gb != wb {
			t.Fatalf("queue %s: restored bound (%g,%v), want (%g,%v)", name, gb, gok, wb, wok)
		}
		if got, want := restored.Observations(name, 1), svc.Observations(name, 1); got != want {
			t.Fatalf("queue %s: restored %d observations, want %d", name, got, want)
		}
	}
	if restored.LiveStreams() != 0 {
		t.Fatal("read traffic rehydrated restored streams")
	}

	// Writes rehydrate; forecasts then track a never-saved oracle exactly.
	for q := 0; q < queues; q++ {
		name := fmt.Sprintf("shq%03d", q)
		for i := 120; i < 160; i++ {
			if err := restored.Observe(name, 1, shardWait(q, i)); err != nil {
				t.Fatal(err)
			}
			if err := svc.Observe(name, 1, shardWait(q, i)); err != nil {
				t.Fatal(err)
			}
		}
		gb, gok := restored.Forecast(name, 1)
		wb, wok := svc.Forecast(name, 1)
		if gok != wok || gb != wb {
			t.Fatalf("queue %s after writes: restored bound (%g,%v), oracle (%g,%v)", name, gb, gok, wb, wok)
		}
	}
}

// TestSaveShardsRotates checks a second save supersedes the first: only
// one generation directory survives and CURRENT points at it.
func TestSaveShardsRotates(t *testing.T) {
	dir := t.TempDir()
	svc := buildShardTestService(t, 3)
	if err := svc.saveShards(dir, 2); err != nil {
		t.Fatal(err)
	}
	svc.Observe("shq000", 1, 1)
	// The second save derives its shard count: three streams fit one.
	if err := svc.SaveShards(dir); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	gens := 0
	for _, e := range ents {
		if e.IsDir() {
			gens++
		}
	}
	if gens != 1 {
		t.Fatalf("%d generation directories after two saves, want 1", gens)
	}
	restored, err := LoadServiceShards(dir, false, WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Observations("shq000", 1), svc.Observations("shq000", 1); got != want {
		t.Fatalf("restored latest generation has %d observations, want %d", got, want)
	}
}

// TestLoadShardsCorruption checks every corruption mode maps to
// ErrCorruptState (so the server's quarantine path applies) and a missing
// directory surfaces as os.IsNotExist (so "starting fresh" applies).
func TestLoadShardsCorruption(t *testing.T) {
	if _, err := LoadServiceShards(filepath.Join(t.TempDir(), "absent"), false); !os.IsNotExist(err) {
		t.Fatalf("missing dir: got %v, want os.IsNotExist", err)
	}

	corrupt := func(name string, mutate func(dir string)) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			svc := buildShardTestService(t, 4)
			if err := svc.saveShards(dir, 2); err != nil {
				t.Fatal(err)
			}
			mutate(dir)
			if _, err := LoadServiceShards(dir, false); !isCorrupt(err) {
				t.Fatalf("got %v, want ErrCorruptState", err)
			}
		})
	}
	genDir := func(dir string) string {
		cur, err := os.ReadFile(filepath.Join(dir, currentFile))
		if err != nil {
			t.Fatal(err)
		}
		return filepath.Join(dir, string(cur[:len(cur)-1]))
	}
	corrupt("bad-current", func(dir string) {
		os.WriteFile(filepath.Join(dir, currentFile), []byte("../escape\n"), 0o644)
	})
	corrupt("zero-filled-current", func(dir string) {
		os.WriteFile(filepath.Join(dir, currentFile), make([]byte, 8), 0o644)
	})
	corrupt("huge-shard-count", func(dir string) {
		os.WriteFile(filepath.Join(genDir(dir), "manifest.json"), []byte(`{"shards":4611686018427387904}`), 0o644)
	})
	corrupt("dangling-current", func(dir string) {
		os.WriteFile(filepath.Join(dir, currentFile), []byte("gen-0\n"), 0o644)
	})
	corrupt("mangled-manifest", func(dir string) {
		os.WriteFile(filepath.Join(genDir(dir), "manifest.json"), []byte("{oops"), 0o644)
	})
	corrupt("missing-shard", func(dir string) {
		os.Remove(filepath.Join(genDir(dir), shardFileName(0)))
	})
	corrupt("mangled-shard", func(dir string) {
		os.WriteFile(filepath.Join(genDir(dir), shardFileName(1)), []byte("not json"), 0o644)
	})
	corrupt("zero-shard-manifest", func(dir string) {
		os.WriteFile(filepath.Join(genDir(dir), "manifest.json"), []byte("{\"shards\":0}"), 0o644)
	})
}

func isCorrupt(err error) bool { return errors.Is(err, ErrCorruptState) }
