package obs

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", g.Value())
	}
	g.Set(math.Inf(1))
	if !math.IsInf(g.Value(), 1) {
		t.Fatal("gauge lost +Inf")
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.5, 10, 99, 100, 1e6} {
		h.Observe(v)
	}
	// le semantics: a value equal to an upper bound lands in that bucket.
	cum := h.snapshot()
	want := []uint64{2, 4, 6, 7} // <=1: {0.5, 1}; <=10: +{1.5, 10}; <=100: +{99, 100}; +Inf: +{1e6}
	for i, w := range want {
		if cum[i] != w {
			t.Errorf("cumulative[%d] = %d, want %d", i, cum[i], w)
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-(0.5+1+1.5+10+99+100+1e6)) > 1e-9 {
		t.Errorf("sum = %g", got)
	}
}

func TestHistogramDedupsAndSortsBuckets(t *testing.T) {
	h := newHistogram([]float64{10, 1, 10, 5})
	if len(h.upper) != 3 || h.upper[0] != 1 || h.upper[2] != 10 {
		t.Fatalf("buckets = %v", h.upper)
	}
}

func TestExponentialBuckets(t *testing.T) {
	b := ExponentialBuckets(1e-6, 2, 4)
	want := []float64{1e-6, 2e-6, 4e-6, 8e-6}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-18 {
			t.Fatalf("buckets = %v", b)
		}
	}
}

func TestRollingRateWindow(t *testing.T) {
	r := NewRollingRate(4)
	if rate, n := r.Rate(); rate != 0 || n != 0 {
		t.Fatalf("empty rate = %g/%d", rate, n)
	}
	for _, hit := range []bool{true, true, false, true} {
		r.Record(hit)
	}
	if rate, n := r.Rate(); n != 4 || rate != 0.75 {
		t.Fatalf("rate = %g/%d, want 0.75/4", rate, n)
	}
	// Four misses push every hit out of the window.
	for i := 0; i < 4; i++ {
		r.Record(false)
	}
	if rate, n := r.Rate(); n != 4 || rate != 0 {
		t.Fatalf("rate after misses = %g/%d, want 0/4", rate, n)
	}
	if hits, total := r.Lifetime(); hits != 3 || total != 8 {
		t.Fatalf("lifetime = %d/%d, want 3/8", hits, total)
	}
}

func TestRollingRateTinyWindow(t *testing.T) {
	r := NewRollingRate(0) // clamped to 1
	r.Record(true)
	r.Record(false)
	if rate, n := r.Rate(); n != 1 || rate != 0 {
		t.Fatalf("rate = %g/%d", rate, n)
	}
}

// TestRollingRateMatchesBoolWindow replays random outcome streams through
// the bitset window and through a plain []bool ring, across several wraps
// and at window sizes on both sides of a word boundary: Rate and Lifetime
// must agree after every record.
func TestRollingRateMatchesBoolWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, size := range []int{1, 2, 63, 64, 65, 128, 500} {
		r := NewRollingRate(size)
		ring := make([]bool, size)
		var idx, filled, hits int
		var lifeHits, lifeN uint64
		for i := 0; i < 5*size+17; i++ {
			hit := rng.Intn(5) != 0
			r.Record(hit)
			if filled == size {
				if ring[idx] {
					hits--
				}
			} else {
				filled++
			}
			ring[idx] = hit
			if hit {
				hits++
				lifeHits++
			}
			lifeN++
			idx = (idx + 1) % size
			rate, n := r.Rate()
			if n != filled || rate != float64(hits)/float64(filled) {
				t.Fatalf("size %d record %d: rate %g/%d, want %g/%d", size, i, rate, n, float64(hits)/float64(filled), filled)
			}
			if h, total := r.Lifetime(); h != lifeHits || total != lifeN {
				t.Fatalf("size %d record %d: lifetime %d/%d, want %d/%d", size, i, h, total, lifeHits, lifeN)
			}
		}
	}
}

// TestRollingRateWindowIsPacked pins the footprint: a 500-outcome window
// is eight words, not 500 bytes.
func TestRollingRateWindowIsPacked(t *testing.T) {
	r := NewRollingRate(500)
	r.Record(true)
	if got := len(r.window); got != 8 {
		t.Fatalf("500-outcome window uses %d words, want 8", got)
	}
}

func TestLabelsSortedAndEscaped(t *testing.T) {
	got := Labels("queue", `no"rm\al`, "bucket", "1-4")
	want := `bucket="1-4",queue="no\"rm\\al"`
	if got != want {
		t.Fatalf("labels = %s, want %s", got, want)
	}
	if Labels() != "" {
		t.Fatal("empty labels should render empty")
	}
}

func TestConcurrentPrimitives(t *testing.T) {
	var c Counter
	var g Gauge
	h := newHistogram([]float64{1, 2, 4})
	r := NewRollingRate(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 5))
				r.Record(i%2 == 0)
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d", c.Value())
	}
	if g.Value() != 8000 {
		t.Errorf("gauge = %g", g.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d", h.Count())
	}
	if _, total := r.Lifetime(); total != 8000 {
		t.Errorf("rolling total = %d", total)
	}
}

func TestRegistryRendering(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("test_requests_total", "requests served")
	c.Add(3)
	g := reg.NewGauge("test_depth", "queue depth")
	g.Set(1.5)
	h := reg.NewHistogram("test_latency_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	v := reg.NewCounterVec("test_codes_total", "status codes", "endpoint", "code")
	v.With("observe", "204").Add(2)
	v.With("forecast", "200").Inc()
	reg.RegisterGaugeFunc("test_streams", "per-stream depth", func(emit func(string, float64)) {
		emit(Labels("stream", "normal/1-4"), 42)
	})

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP test_requests_total requests served",
		"# TYPE test_requests_total counter",
		"test_requests_total 3",
		"test_depth 1.5",
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="0.1"} 1`,
		`test_latency_seconds_bucket{le="1"} 2`,
		`test_latency_seconds_bucket{le="+Inf"} 3`,
		"test_latency_seconds_sum 5.55",
		"test_latency_seconds_count 3",
		`test_codes_total{code="204",endpoint="observe"} 2`,
		`test_codes_total{code="200",endpoint="forecast"} 1`,
		`test_streams{stream="normal/1-4"} 42`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
}

func TestRegisterExistingMetrics(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	var g Gauge
	reg.RegisterCounter("ext_events_total", "events owned elsewhere", &c)
	reg.RegisterGauge("ext_mode", "mode owned elsewhere", &g)
	c.Add(7)
	g.Set(1)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE ext_events_total counter",
		"ext_events_total 7",
		"# TYPE ext_mode gauge",
		"ext_mode 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}

	// Updates after registration show up on the next scrape: the registry
	// reads the caller's metric, it does not copy it.
	c.Inc()
	g.Set(0)
	sb.Reset()
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out = sb.String()
	if !strings.Contains(out, "ext_events_total 8") || !strings.Contains(out, "ext_mode 0") {
		t.Errorf("registered metrics did not track owner updates:\n%s", out)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("dup", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	reg.NewCounter("dup", "")
}

func TestCounterVecWrongArity(t *testing.T) {
	reg := NewRegistry()
	v := reg.NewCounterVec("arity_total", "", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	v.With("only-one")
}

func TestRegistryConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("scrape_total", "")
	v := reg.NewCounterVec("scrape_codes_total", "", "code")
	h := reg.NewHistogram("scrape_lat", "", ExponentialBuckets(1e-6, 4, 8))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Inc()
				v.With("200").Inc()
				v.With("404").Inc()
				h.Observe(float64(i) * 1e-6)
			}
		}(w)
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var sb strings.Builder
				if err := reg.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != 2000 {
		t.Errorf("counter = %d", c.Value())
	}
}
