package qbets

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// Read-plane benchmarks for the lock-free forecast path. Each pair runs
// the shipping implementation against a baseline reproducing the previous
// architecture, so BENCH_PR5.json records what the RCU snapshots bought:
//
//	go test -run '^$' -bench 'ServiceForecast|ReadWhileIngest|ServerForecast' -cpu 1,4 -benchmem ./qbets/
//
// The baselines are honest reconstructions, not strawmen: the registry
// the write path used then, 64 lock-striped shard maps (rebuilt here from
// the service's index), and the per-stream RWMutex, with the bound
// recomputed under the read lock — exactly how Forecast answered before
// snapshots were published.

// rwmutexRegistry is the pre-snapshot registry: stream keys hashed over
// 64 shards, each map behind its own RWMutex.
type rwmutexRegistry [64]struct {
	mu sync.RWMutex
	m  map[string]*stream
}

func newRWMutexRegistry(s *Service) *rwmutexRegistry {
	r := new(rwmutexRegistry)
	for i := range r {
		r[i].m = make(map[string]*stream)
	}
	s.index.Load().forEach(func(k string, st *stream) { r[keyHash(k)%uint32(len(r))].m[k] = st })
	return r
}

// forecastRWMutexBaseline reproduces the pre-snapshot read path: build the
// stream key (a concat in by-procs mode), walk the shard under its RLock,
// then compute the bound under the stream RLock — sharing cache lines and
// lock words with writers.
func (r *rwmutexRegistry) forecastRWMutexBaseline(s *Service, queue string, procs int) (float64, bool) {
	key := s.keyForSlot(queue, s.slotOf(procs))
	sh := &r[keyHash(key)%uint32(len(r))]
	sh.mu.RLock()
	st := sh.m[key]
	sh.mu.RUnlock()
	if st == nil {
		return 0, false
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.fc.Forecast()
}

func prewarmReadService(b *testing.B) *Service {
	b.Helper()
	svc := NewService(false, WithSeed(1))
	for i := 0; i < 500; i++ {
		if err := svc.Observe("normal", 1, float64(10+i%1000)); err != nil {
			b.Fatal(err)
		}
	}
	return svc
}

// BenchmarkServiceForecast is the acceptance benchmark for the tentpole:
// the lock-free variant must run at 0 allocs/op and never touch st.mu.
func BenchmarkServiceForecast(b *testing.B) {
	b.Run("lockfree", func(b *testing.B) {
		svc := prewarmReadService(b)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, ok := svc.Forecast("normal", 1); !ok {
					b.Fatal("forecast not ok")
				}
			}
		})
	})
	b.Run("rwmutex-baseline", func(b *testing.B) {
		svc := prewarmReadService(b)
		reg := newRWMutexRegistry(svc)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, ok := reg.forecastRWMutexBaseline(svc, "normal", 1); !ok {
					b.Fatal("forecast not ok")
				}
			}
		})
	})
}

// BenchmarkServiceProfile: the profile read serves the published immutable
// slice — 0 allocs/op against the rebuild-per-call baseline.
func BenchmarkServiceProfile(b *testing.B) {
	b.Run("snapshot", func(b *testing.B) {
		svc := prewarmReadService(b)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if p := svc.Profile("normal", 1); p == nil {
					b.Fatal("nil profile")
				}
			}
		})
	})
	b.Run("recompute-baseline", func(b *testing.B) {
		svc := prewarmReadService(b)
		st := svc.lookup("normal")
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				st.mu.RLock()
				p := st.fc.Profile()
				st.mu.RUnlock()
				if p == nil {
					b.Fatal("nil profile")
				}
			}
		})
	})
}

// BenchmarkServiceReadWhileIngest is the storm the read plane exists for:
// a writer batch-ingesting into the same stream at full speed while
// parallel readers poll the bound. With RCU snapshots the readers never
// block behind refits; the baseline queues them on the stream RWMutex
// behind every batch apply. One op = one read.
func BenchmarkServiceReadWhileIngest(b *testing.B) {
	const ingestBatch = 64
	run := func(b *testing.B, reader func(*Service) func() bool) {
		svc := prewarmReadService(b)
		read := reader(svc)
		batch := make([]ObserveRecord, ingestBatch)
		for i := range batch {
			batch[i] = ObserveRecord{Queue: "normal", Procs: 1, WaitSeconds: float64(10 + i%1000)}
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := svc.ObserveBatch(batch); err != nil {
					b.Error(err)
					return
				}
			}
		}()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if !read() {
					b.Fatal("forecast not ok")
				}
			}
		})
		b.StopTimer()
		close(stop)
		wg.Wait()
	}
	b.Run("lockfree", func(b *testing.B) {
		run(b, func(svc *Service) func() bool {
			return func() bool { _, ok := svc.Forecast("normal", 1); return ok }
		})
	})
	b.Run("rwmutex-baseline", func(b *testing.B) {
		run(b, func(svc *Service) func() bool {
			reg := newRWMutexRegistry(svc)
			return func() bool { _, ok := reg.forecastRWMutexBaseline(svc, "normal", 1); return ok }
		})
	})
}

// BenchmarkServerForecast compares the two ways to ask for 100 bounds over
// HTTP: one batch POST against 100 single-shape GETs. Both report
// records/s (shapes answered per second); the batch amortizes request
// setup, routing, instrumentation, and response framing across the whole
// shape set.
func BenchmarkServerForecast(b *testing.B) {
	const shapes = 100
	srv := NewServer(false, WithSeed(1))
	svc := srv.Service()
	var payload bytes.Buffer
	payload.WriteByte('[')
	urls := make([]string, shapes)
	for q := 0; q < shapes; q++ {
		name := fmt.Sprintf("q%02d", q)
		for i := 0; i < 120; i++ {
			if err := svc.Observe(name, 1, float64(10+i%500)); err != nil {
				b.Fatal(err)
			}
		}
		if q > 0 {
			payload.WriteByte(',')
		}
		fmt.Fprintf(&payload, `{"queue":%q,"procs":1}`, name)
		urls[q] = "/v1/forecast?queue=" + name + "&procs=1"
	}
	payload.WriteByte(']')
	body := payload.Bytes()

	// Sanity: the batch answers all shapes with real bounds.
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/forecast", bytes.NewReader(body)))
	if w.Code != http.StatusOK || strings.Count(w.Body.String(), `"ok":true`) != shapes {
		b.Fatalf("batch warmup: status %d, body %.200s", w.Code, w.Body.String())
	}

	sink := &nopResponseWriter{h: make(http.Header)}
	b.Run("batch100", func(b *testing.B) {
		rd := bytes.NewReader(nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rd.Reset(body)
			req := httptest.NewRequest(http.MethodPost, "/v1/forecast", rd)
			srv.ServeHTTP(sink, req)
		}
		b.ReportMetric(shapes*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
	b.Run("single-get-x100", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, u := range urls {
				req := httptest.NewRequest(http.MethodGet, u, nil)
				srv.ServeHTTP(sink, req)
			}
		}
		b.ReportMetric(shapes*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
}
