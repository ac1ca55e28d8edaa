package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Request kinds a caller sends.
const (
	opObserve = iota
	opForecast
	opForecastBatch
	opWhatif // a what-if grid
	opSizing // a what-if SLO sizing search
	nOps
)

var opNames = [nOps]string{"observe", "forecast", "forecast_batch", "whatif", "sizing"}

// tally is what one caller measured in one phase. Callers own their
// tally; the harness merges them once the phase ends.
type tally struct {
	lat       [nOps][]float64 // request latency, ms
	attempted int
	failed    int
	records   int64 // observe records acknowledged
	shapes    int64 // forecast shapes answered
	scenarios int64 // what-if scenarios answered
	// sizingEvals counts the scenarios SLO sizing searches evaluated.
	sizingEvals int64
}

func (t *tally) merge(o *tally) {
	for k := range t.lat {
		t.lat[k] = append(t.lat[k], o.lat[k]...)
	}
	t.attempted += o.attempted
	t.failed += o.failed
	t.records += o.records
	t.shapes += o.shapes
	t.scenarios += o.scenarios
	t.sizingEvals += o.sizingEvals
}

func (t *tally) requests() int {
	n := 0
	for _, l := range t.lat {
		n += len(l)
	}
	return n
}

// client is one closed-loop connection: a caller that sends its next
// request only after the previous reply arrived. Each client has its own
// transport capped at one connection, so n callers hold n connections.
type client struct {
	hc    *http.Client
	tr    *tracer // nil when not tracing
	body  bytes.Buffer
	t     *tally
	dials *atomic.Int64
	err   error // the last transport error
}

func newClient(dials *atomic.Int64, tr *tracer) *client {
	d := &net.Dialer{}
	return &client{
		hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
					dials.Add(1)
					return d.DialContext(ctx, network, addr)
				},
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
		tr:    tr,
		t:     &tally{},
		dials: dials,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply into c.body. It counts
// the attempt, records the latency under op, and returns the status
// (0 on a transport error, which it counts as failed).
func (c *client) do(op int, method, url string, body []byte) int {
	c.t.attempted++
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		c.t.failed++
		return 0
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var id uint64
	var tstart int64
	tracing := c.tr != nil && c.tr.on.Load()
	if tracing {
		id = c.tr.nextID.Add(1)
		req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
		tstart = c.tr.now()
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.t.failed++
		c.err = err
		return 0
	}
	c.body.Reset()
	_, err = io.Copy(&c.body, resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		c.t.failed++
		c.err = err
		return 0
	}
	c.t.lat[op] = append(c.t.lat[op], float64(lat)/1e6)
	if tracing {
		c.tr.add(span{id: id, kind: spClient, start: tstart, end: c.tr.now(), n: int64(op)})
	}
	return resp.StatusCode
}

// caller is one closed-loop connection's behaviour: step sends one
// request through c and accounts for it.
type caller interface {
	step(c *client)
}

// runPhase drives every caller for d and returns the merged tally.
func runPhase(callers []caller, clients []*client, d time.Duration) tally {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for i := range callers {
		clients[i].t = &tally{}
		wg.Add(1)
		go func(cl caller, c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				cl.step(c)
			}
		}(callers[i], clients[i])
	}
	wg.Wait()
	var all tally
	for _, c := range clients {
		all.merge(c.t)
	}
	return all
}

// violations collects correctness failures from any goroutine. The run
// reports correct=false when there is at least one.
type violations struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (v *violations) addf(format string, args ...any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.n++
	if len(v.first) < 5 {
		v.first = append(v.first, fmt.Sprintf(format, args...))
	}
}

func (v *violations) count() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.n
}
