package qbets

import (
	"bufio"
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestColdProfileNeverRehydrates: a cold stream's first Profile read
// decodes its blob into a forecaster it then drops — on a leader that
// evicted the stream and on a follower that adopted it from a catch-up
// chunk alike — so the read rehydrates nothing, and the profile equals a
// hydrated twin's. The profile is cached on the snapshot for later reads.
func TestColdProfileNeverRehydrates(t *testing.T) {
	leader, twin := NewService(false, WithSeed(5)), NewService(false, WithSeed(5))
	for i := 0; i < 150; i++ {
		wait := math.Exp(math.Sin(float64(i))) * 60
		for _, s := range []*Service{leader, twin} {
			if err := s.Observe("q", 1, wait); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := twin.Profile("q", 1)
	if n := leader.EvictIdle(0); n != 1 {
		t.Fatalf("evicted %d streams, want 1", n)
	}
	ss, err := leader.OpenReplicaSnapshotStream()
	if err != nil {
		t.Fatal(err)
	}
	chunk, err := ss.AppendChunk(0, nil)
	ss.Close()
	if err != nil {
		t.Fatal(err)
	}
	follower, err := installChunk(false, chunk)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range []struct {
		name string
		svc  *Service
	}{{"leader", leader}, {"follower", follower}} {
		srv := NewServerWith(node.svc)
		liveBefore := streamsLiveMetric(t, srv)
		rehydrations := node.svc.rehydrations.Value()
		if st := node.svc.lookup("q"); st.snap.Load().profile.Load() != nil {
			t.Fatalf("%s: a cold stream holds a profile no reader asked for", node.name)
		}
		got := node.svc.Profile("q", 1)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: cold profile %+v, hydrated twin's %+v", node.name, got, want)
		}
		if again := node.svc.Profile("q", 1); len(again) == 0 || &again[0] != &got[0] {
			t.Errorf("%s: the cold profile was not cached on the snapshot", node.name)
		}
		if n := node.svc.rehydrations.Value(); n != rehydrations {
			t.Errorf("%s: Profile rehydrated (rehydrations %d → %d)", node.name, rehydrations, n)
		}
		if live := streamsLiveMetric(t, srv); live != liveBefore || live != "0" {
			t.Errorf(`%s: qbets_streams{state="live"} %s → %s, want 0 throughout`, node.name, liveBefore, live)
		}
	}
}

// streamsLiveMetric scrapes the server's qbets_streams{state="live"}
// sample.
func streamsLiveMetric(t *testing.T, srv *Server) string {
	t.Helper()
	for _, line := range metricLines(t, srv, `qbets_streams{state="live"} `) {
		return strings.TrimPrefix(line, `qbets_streams{state="live"} `)
	}
	t.Fatal(`no qbets_streams{state="live"} sample`)
	return ""
}

// metricLines returns the server's /metrics sample lines that start with
// prefix.
func metricLines(t *testing.T, srv *Server, prefix string) []string {
	t.Helper()
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", w.Code)
	}
	var out []string
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), prefix) {
			out = append(out, sc.Text())
		}
	}
	return out
}

// TestNilHitTrackerReadsEmpty: a stream no live write has scored has no
// hit-rate tracker, and every read of its hit rate — the published
// snapshot, /v1/status and the per-stream /metrics series — is what an
// empty tracker gives.
func TestNilHitTrackerReadsEmpty(t *testing.T) {
	build := func(empty bool) *Service {
		svc := NewService(true, WithSeed(7))
		var sc replayScratch
		seq := uint64(0)
		for _, key := range []string{"a/1-4", "a/65+", "b/5-16"} {
			st := svc.getOrCreate(key)
			batch := make([]replayRecord, 80)
			for i := range batch {
				seq++
				batch[i] = replayRecord{st: st, wait: float64(10 + (i*37)%80), seq: seq}
			}
			if err := sc.apply(svc, batch); err != nil {
				t.Fatal(err)
			}
		}
		svc.index.Load().forEach(func(_ string, st *stream) {
			st.mu.Lock()
			defer st.mu.Unlock()
			if st.hit != nil {
				t.Fatalf("replay built a hit-rate tracker for %s", st.key)
			}
			if empty {
				st.hit = obs.NewRollingRate(hitRateWindow)
			}
			st.publishLocked()
		})
		return svc
	}
	bare, empty := build(false), build(true)
	if got, want := bare.Stats(), empty.Stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("published snapshots differ:\n%+v\nwant\n%+v", got, want)
	}
	get := func(svc *Service, path string) []byte {
		w := httptest.NewRecorder()
		NewServerWith(svc).ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: %d", path, w.Code)
		}
		return w.Body.Bytes()
	}
	if got, want := get(bare, "/v1/status"), get(empty, "/v1/status"); !bytes.Equal(got, want) {
		t.Errorf("/v1/status differs:\n%s\nwant\n%s", got, want)
	}
	got, want := metricLines(t, NewServerWith(bare), "qbets_stream_"), metricLines(t, NewServerWith(empty), "qbets_stream_")
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("per-stream /metrics differ:\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
