package main

import (
	"bufio"
	"fmt"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// scraped is a /metrics exposition summed over label sets: one value per
// metric name.
type scraped map[string]float64

// scrape reads a node's /metrics.
func scrape(base string) (scraped, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", resp.StatusCode)
	}
	out := make(scraped)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		out[name] += v
	}
	return out, sc.Err()
}

func (m scraped) sub(o scraped) scraped {
	out := make(scraped, len(m))
	for k, v := range m {
		out[k] = v - o[k]
	}
	return out
}

// rtStats is the whole process's runtime cost over an interval.
type rtStats struct {
	cpu        time.Duration // user + system CPU
	allocBytes uint64
	gcCycles   uint64
	gcPause    time.Duration
}

func readRuntime() rtStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtStats{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: samples[0].Value.Uint64(),
		gcCycles:   samples[1].Value.Uint64(),
		gcPause:    time.Duration(ms.PauseTotalNs),
	}
}

func (r rtStats) sub(o rtStats) rtStats {
	return rtStats{
		cpu:        r.cpu - o.cpu,
		allocBytes: r.allocBytes - o.allocBytes,
		gcCycles:   r.gcCycles - o.gcCycles,
		gcPause:    r.gcPause - o.gcPause,
	}
}
