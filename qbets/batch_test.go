package qbets

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/wal"
)

func makeBatchRecords(rng *rand.Rand, n int) []ObserveRecord {
	queues := []string{"normal", "high", "low", "debug"}
	recs := make([]ObserveRecord, n)
	for i := range recs {
		recs[i] = ObserveRecord{
			Queue:       queues[rng.Intn(len(queues))],
			Procs:       1 + rng.Intn(100),
			WaitSeconds: rng.ExpFloat64() * 600,
		}
	}
	return recs
}

// assertSameState compares per-stream observation counts and forecast
// bounds for every stream the records touch. It deliberately does not
// compare NumStreams: a refused observe (read-only) leaves an empty stream
// shell behind on both the single and batch paths, which an oracle that
// never saw the refusal does not have.
func assertSameState(t *testing.T, got, want *Service, records []ObserveRecord) {
	t.Helper()
	seen := map[string]bool{}
	for _, r := range records {
		k := fmt.Sprintf("%s/%d", r.Queue, r.Procs)
		if seen[k] {
			continue
		}
		seen[k] = true
		if g, w := got.Observations(r.Queue, r.Procs), want.Observations(r.Queue, r.Procs); g != w {
			t.Fatalf("%s: %d observations, oracle %d", k, g, w)
		}
		gb, gok := got.Forecast(r.Queue, r.Procs)
		wb, wok := want.Forecast(r.Queue, r.Procs)
		if gok != wok || gb != wb {
			t.Fatalf("%s: forecast (%g,%v), oracle (%g,%v)", k, gb, gok, wb, wok)
		}
	}
}

// TestObserveBatchMatchesSequentialObserve is the batch-apply equivalence
// property: per-record bound scoring and change-point trims happen inside
// each observation, so applying a stream's group under one lock with one
// final refit must land in exactly the state of per-record Observe calls.
// Sizes straddle the internal chunk boundary, and both routing modes and
// both WAL configurations are covered.
func TestObserveBatchMatchesSequentialObserve(t *testing.T) {
	for _, byProcs := range []bool{false, true} {
		for _, withWAL := range []bool{false, true} {
			name := fmt.Sprintf("byProcs=%v/wal=%v", byProcs, withWAL)
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(42))
				records := makeBatchRecords(rng, 700) // > 2 chunks

				batched := NewService(byProcs, WithSeed(1))
				if withWAL {
					w, err := wal.Open("wal", wal.Options{FS: wal.NewMemFS(), Mode: wal.SyncEachRecord})
					if err != nil {
						t.Fatal(err)
					}
					if _, err := batched.RecoverWAL(w); err != nil {
						t.Fatal(err)
					}
				}
				// Mixed batch sizes: singletons, small, and multi-chunk.
				for i := 0; i < len(records); {
					n := []int{1, 7, 300}[i%3]
					if i+n > len(records) {
						n = len(records) - i
					}
					applied, err := batched.ObserveBatch(records[i : i+n])
					if err != nil {
						t.Fatalf("batch at %d: %v", i, err)
					}
					if applied != n {
						t.Fatalf("batch at %d applied %d of %d", i, applied, n)
					}
					i += n
				}

				oracle := NewService(byProcs, WithSeed(1))
				for _, r := range records {
					if err := oracle.Observe(r.Queue, r.Procs, r.WaitSeconds); err != nil {
						t.Fatal(err)
					}
				}
				if g, w := batched.NumStreams(), oracle.NumStreams(); g != w {
					t.Fatalf("stream count %d, oracle %d", g, w)
				}
				assertSameState(t, batched, oracle, records)
			})
		}
	}
	// Many streams, the shape of a scheduler-log dump: 256-record chunks
	// each spanning 256 of 512 streams, with the WAL on. Every stream's
	// serialized forecaster and lastSeq, the seed counter, and the logged
	// records (key, wait, seq) must match the record-at-a-time oracle's.
	for _, byProcs := range []bool{false, true} {
		t.Run(fmt.Sprintf("streams512/byProcs=%v", byProcs), func(t *testing.T) {
			records := siteRecords(512, 100, 7)
			for base := 0; base < len(records); base += observeBatchChunk {
				spanned := map[string]bool{}
				for _, r := range records[base : base+observeBatchChunk] {
					spanned[fmt.Sprintf("%s/%d", r.Queue, CategoryOf(r.Procs))] = true
				}
				if len(spanned) <= 200 {
					t.Fatalf("chunk at %d spans %d streams, want more than 200", base, len(spanned))
				}
			}
			batched, batchedFS := newMemWALService(t, byProcs)
			for base := 0; base < len(records); base += 3 * observeBatchChunk {
				end := min(base+3*observeBatchChunk, len(records))
				if applied, err := batched.ObserveBatch(records[base:end]); err != nil || applied != end-base {
					t.Fatalf("batch at %d: applied %d, %v", base, applied, err)
				}
			}
			oracle, oracleFS := newMemWALService(t, byProcs)
			for _, r := range records {
				if err := oracle.Observe(r.Queue, r.Procs, r.WaitSeconds); err != nil {
					t.Fatal(err)
				}
			}
			got, gotSeed := digestService(t, batched)
			want, wantSeed := digestService(t, oracle)
			compareDigests(t, got, want)
			if gotSeed != wantSeed {
				t.Fatalf("seed counter %d, oracle %d", gotSeed, wantSeed)
			}
			gotLog, wantLog := loggedRecords(t, batched, batchedFS), loggedRecords(t, oracle, oracleFS)
			if len(gotLog) != len(records) || !slices.Equal(gotLog, wantLog) {
				t.Fatalf("logged %d records, oracle %d; the logs differ", len(gotLog), len(wantLog))
			}
		})
	}
}

// newMemWALService returns a service logging to a fresh in-memory WAL.
func newMemWALService(t *testing.T, byProcs bool) (*Service, *wal.MemFS) {
	t.Helper()
	fs := wal.NewMemFS()
	w, err := wal.Open("wal", wal.Options{FS: fs, Mode: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	s := NewService(byProcs, WithSeed(1))
	if _, err := s.RecoverWAL(w); err != nil {
		t.Fatal(err)
	}
	return s, fs
}

// loggedRecords closes s's WAL on fs and returns every record it holds,
// timestamps zeroed (they come from a coarse wall clock).
func loggedRecords(t *testing.T, s *Service, fs *wal.MemFS) []wal.Record {
	t.Helper()
	if err := s.wal.Close(); err != nil {
		t.Fatal(err)
	}
	w, err := wal.Open("wal", wal.Options{FS: fs, Mode: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var out []wal.Record
	if _, err := w.Replay(func(r wal.Record) {
		out = append(out, wal.Record{Seq: r.Seq, Key: strings.Clone(r.Key), Wait: r.Wait})
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestObserveBatchValidation: an invalid wait anywhere in the batch rejects
// the whole batch up front — nothing applied, nothing logged — and the
// error pinpoints the offending index.
func TestObserveBatchValidation(t *testing.T) {
	svc := NewService(false, WithSeed(1))
	recs := []ObserveRecord{
		{Queue: "q", Procs: 1, WaitSeconds: 1},
		{Queue: "q", Procs: 1, WaitSeconds: -3},
	}
	applied, err := svc.ObserveBatch(recs)
	if applied != 0 || !errors.Is(err, ErrInvalidWait) {
		t.Fatalf("applied %d, err %v; want 0, ErrInvalidWait", applied, err)
	}
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 1 {
		t.Fatalf("error %v does not carry index 1", err)
	}
	if svc.Observations("q", 1) != 0 {
		t.Fatal("records applied despite validation failure")
	}

	if applied, err := svc.ObserveBatch(nil); applied != 0 || err != nil {
		t.Fatalf("empty batch: (%d, %v)", applied, err)
	}
}

// TestObserveBatchPartialFailure is the mid-batch read-only contract under
// fault injection: when the WAL is poisoned partway through a large batch,
// ObserveBatch reports exactly how many leading records were applied (a
// whole number of chunks), the error unwraps to ErrReadOnly and carries
// the first unapplied index, the applied prefix matches a per-record
// oracle, and after the disk heals the client retries the remainder to
// reach full-batch state.
func TestObserveBatchPartialFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	records := makeBatchRecords(rng, 700)

	sawPartial := false
	for n := 0; n < 40 && !sawPartial; n++ {
		fs := wal.NewFaultFS(wal.NewMemFS())
		w, err := wal.Open("wal", wal.Options{FS: fs, Mode: wal.SyncEachRecord})
		if err != nil {
			t.Fatal(err)
		}
		svc := NewService(false, WithSeed(1))
		if _, err := svc.RecoverWAL(w); err != nil {
			t.Fatal(err)
		}

		fs.FailWritesAfter(n, errors.New("disk full"), false)
		applied, err := svc.ObserveBatch(records)
		fs.Clear()

		if err == nil {
			if applied != len(records) {
				t.Fatalf("n=%d: nil error but only %d applied", n, applied)
			}
			break // fault budget outlasted the whole batch
		}
		if !errors.Is(err, ErrReadOnly) {
			t.Fatalf("n=%d: err = %v, want ErrReadOnly", n, err)
		}
		var be *BatchError
		if !errors.As(err, &be) || be.Index != applied {
			t.Fatalf("n=%d: error %v does not carry first unapplied index %d", n, err, applied)
		}
		if applied%observeBatchChunk != 0 {
			t.Fatalf("n=%d: applied %d is not a whole number of chunks", n, applied)
		}
		if !svc.ReadOnly() {
			t.Fatalf("n=%d: service not read-only after mid-batch failure", n)
		}
		if applied > 0 && applied < len(records) {
			sawPartial = true
		}

		// The applied prefix must be oracle-exact.
		oracle := NewService(false, WithSeed(1))
		for _, r := range records[:applied] {
			if err := oracle.Observe(r.Queue, r.Procs, r.WaitSeconds); err != nil {
				t.Fatal(err)
			}
		}
		assertSameState(t, svc, oracle, records)

		// Disk healed above (fs.Clear): the documented client move is to
		// retry the remainder, which must land in full-batch state.
		rest, err := svc.ObserveBatch(records[applied:])
		if err != nil {
			t.Fatalf("n=%d: retry after heal: %v", n, err)
		}
		if rest != len(records)-applied {
			t.Fatalf("n=%d: retry applied %d of %d", n, rest, len(records)-applied)
		}
		if svc.ReadOnly() {
			t.Fatalf("n=%d: read-only latch did not clear on successful retry", n)
		}
		full := NewService(false, WithSeed(1))
		for _, r := range records {
			if err := full.Observe(r.Queue, r.Procs, r.WaitSeconds); err != nil {
				t.Fatal(err)
			}
		}
		assertSameState(t, svc, full, records)
	}
	if !sawPartial {
		t.Fatal("no fault budget produced a genuine mid-batch partial failure")
	}
}

var recordIndexRe = regexp.MustCompile(`record (\d+)`)

// TestServerMidBatchReadOnlyRetry drives the same contract end to end over
// HTTP: a poisoned WAL mid-batch yields 503 with Retry-After and a body
// naming the first unapplied record, the observations counter reflects
// exactly the applied prefix, and retrying the remainder after the disk
// heals converges on the full-batch oracle state.
func TestServerMidBatchReadOnlyRetry(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	records := makeBatchRecords(rng, 700)
	body := func(recs []ObserveRecord) string {
		var sb strings.Builder
		sb.WriteByte('[')
		for i, r := range recs {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `{"queue":%q,"procs":%d,"wait_seconds":%g}`, r.Queue, r.Procs, r.WaitSeconds)
		}
		sb.WriteByte(']')
		return sb.String()
	}

	for n := 0; n < 40; n++ {
		fs := wal.NewFaultFS(wal.NewMemFS())
		w, err := wal.Open("wal", wal.Options{FS: fs, Mode: wal.SyncEachRecord})
		if err != nil {
			t.Fatal(err)
		}
		svc := NewService(false, WithSeed(1))
		if _, err := svc.RecoverWAL(w); err != nil {
			t.Fatal(err)
		}
		srv := NewServerWith(svc)
		hts := httptest.NewServer(srv)
		ts := hts.URL
		t.Cleanup(hts.Close)

		fs.FailWritesAfter(n, errors.New("disk full"), false)
		resp := postJSON(t, ts+"/v1/observe", body(records))
		fs.Clear()

		if resp.StatusCode == http.StatusNoContent {
			continue // fault budget outlasted the batch at this n
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("n=%d: status %d, want 503", n, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "1" {
			t.Fatalf("n=%d: Retry-After = %q, want \"1\"", n, ra)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		m := recordIndexRe.FindStringSubmatch(string(raw))
		if m == nil {
			t.Fatalf("n=%d: 503 body %q does not name the first unapplied record", n, raw)
		}
		applied, err := strconv.Atoi(m[1])
		if err != nil || applied < 0 || applied >= len(records) {
			t.Fatalf("n=%d: implausible unapplied index %q", n, m[1])
		}

		// The observations metric must count exactly the applied prefix.
		mresp, err := http.Get(ts + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		mraw, _ := io.ReadAll(mresp.Body)
		mresp.Body.Close()
		if want := fmt.Sprintf("qbets_observations_total %d", applied); !strings.Contains(string(mraw), want) {
			t.Fatalf("n=%d: metrics missing %q", n, want)
		}

		// Client contract: wait, then resend everything not yet applied.
		retry := postJSON(t, ts+"/v1/observe", body(records[applied:]))
		if retry.StatusCode != http.StatusNoContent {
			t.Fatalf("n=%d: retry status %d", n, retry.StatusCode)
		}
		oracle := NewService(false, WithSeed(1))
		for _, r := range records {
			if err := oracle.Observe(r.Queue, r.Procs, r.WaitSeconds); err != nil {
				t.Fatal(err)
			}
		}
		assertSameState(t, svc, oracle, records)
		return // one genuine mid-batch 503 exercised end to end
	}
	t.Fatal("no fault budget produced a mid-batch 503 over HTTP")
}
