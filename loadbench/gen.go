package main

import (
	"fmt"
	"math/rand"

	"repro/internal/trace"
	synth "repro/internal/workload"
	"repro/qbets"
)

// minBaseJobs is the shortest per-category queue trace that becomes a
// base stream. Shorter ones would cycle every few hundred records and
// repeat the same history at every site.
const minBaseJobs = 500

// base is one machine/queue × processor-category slice of the Table-1
// suite: the waits (and requested processor counts) of that category's
// jobs, in trace order.
type base struct {
	name   string // "machine/queue"
	bucket trace.ProcBucket
	waits  []float64
	procs  []int
}

// stream is one served series: a site reading a base trace from its own
// seeded offset. Record k of the stream is base record off+k, wrapping
// at the end of the trace, so the supply never runs out and keeps the
// trace's autocorrelation and regime shifts.
type stream struct {
	queue string
	procs int // a processor count inside the category, used for reads
	b     *base
	off   int
}

// record returns the stream's k-th observation.
func (s *stream) record(k int) qbets.ObserveRecord {
	i := (s.off + k) % len(s.b.waits)
	return qbets.ObserveRecord{Queue: s.queue, Procs: s.b.procs[i], WaitSeconds: s.b.waits[i]}
}

// wait returns the stream's k-th wait: the value the next job would see
// after k observations, which scores a bound served at that point.
func (s *stream) wait(k int) float64 {
	return s.b.waits[(s.off+k)%len(s.b.waits)]
}

// bases generates the Table-1 suite once for seed and cuts it into base
// streams, in Table 1 order and category order.
func bases(seed int64) []*base {
	var out []*base
	for _, tr := range synth.Suite(seed) {
		var byBucket [trace.NumProcBuckets]*base
		for _, j := range tr.Jobs {
			bk := trace.BucketOf(j.Procs)
			b := byBucket[bk]
			if b == nil {
				b = &base{name: tr.Name(), bucket: bk}
				byBucket[bk] = b
			}
			b.waits = append(b.waits, j.Wait)
			b.procs = append(b.procs, j.Procs)
		}
		for _, b := range byBucket {
			if b != nil && len(b.waits) >= minBaseJobs {
				out = append(out, b)
			}
		}
	}
	return out
}

// makeStreams lays n streams over the bases: stream i is base i mod
// len(bs) at site i / len(bs), so every site carries every base and n
// streams cost one suite generation. Offsets come from rng.
func makeStreams(bs []*base, n int, rng *rand.Rand) []*stream {
	out := make([]*stream, n)
	for i := range out {
		b := bs[i%len(bs)]
		lo, _ := b.bucket.Range()
		out[i] = &stream{
			queue: fmt.Sprintf("site%04d.%s", i/len(bs), b.name),
			procs: lo,
			b:     b,
			off:   rng.Intn(len(b.waits)),
		}
	}
	return out
}

// preload hands emit the first perStream records of every stream in
// chunks of at most chunk, interleaved the way a log shared by many
// sites holds them: round k carries record k of each stream, streams in
// a seeded order per round. emit must not keep the slice.
func preload(streams []*stream, perStream, chunk int, rng *rand.Rand, emit func([]qbets.ObserveRecord) error) error {
	buf := make([]qbets.ObserveRecord, 0, chunk)
	order := make([]int, len(streams))
	for i := range order {
		order[i] = i
	}
	for k := 0; k < perStream; k++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			buf = append(buf, streams[i].record(k))
			if len(buf) == chunk {
				if err := emit(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
	}
	if len(buf) == 0 {
		return nil
	}
	return emit(buf)
}
