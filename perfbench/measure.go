package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer samples moves with single outliers.
const minBeyond = 10

// quantile returns the nearest-rank p-quantile of xs (the smallest
// sample with at least p·n samples at or below it) and how many
// samples lie strictly beyond that rank. xs need not be sorted.
func quantile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// samplesFor is the smallest sample count whose p-quantile has at
// least minBeyond samples beyond it.
func samplesFor(p float64) int {
	n := minBeyond
	for {
		if _, beyond := quantile(make([]float64, n), p); beyond >= minBeyond {
			return n
		}
		n++
	}
}

// tail returns the p-quantile of xs, or an error when fewer than
// minBeyond samples lie beyond it.
func tail(xs []float64, p float64) (float64, error) {
	v, beyond := quantile(xs, p)
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g over %d samples has %d beyond it, need %d",
			100*p, len(xs), beyond, minBeyond)
	}
	return v, nil
}

func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5)
	return v
}

// failFrac is failed ÷ attempted operations.
func failFrac(failed, attempted int) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// span is one traced region: a stage of a workload, or the run itself
// (the root, Parent -1). Spans of one traced run share Run.
type span struct {
	Name   string
	Start  time.Time
	End    time.Time
	Parent int
	Run    string
}

// tracer keeps a run's spans in memory; they are written out once,
// after the run.
type tracer struct {
	mu    sync.Mutex
	run   string
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: time.Now(), Parent: parent, Run: t.run})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// stage runs fn inside a span under parent; a nil tracer just runs fn.
func (t *tracer) stage(name string, parent int, fn func() error) error {
	if t == nil {
		return fn()
	}
	id := t.begin(name, parent)
	defer t.end(id)
	return fn()
}

func (t *tracer) duration(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].End.Sub(t.spans[id].Start)
}

// selfTimes returns each span's duration minus the part of its
// interval that its children cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.End.Sub(s.Start) - covered(s, kids[i])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			total += curB.Sub(curA)
			curA, curB = v.a, v.b
			continue
		}
		if v.b.After(curB) {
			curB = v.b
		}
	}
	total += curB.Sub(curA)
	return total
}

// coverage is the summed self time of every non-root span divided by
// the untraced wall time of the same work.
func coverage(spans []span, untraced time.Duration) float64 {
	self := selfTimes(spans)
	var sum time.Duration
	for i, s := range spans {
		if s.Parent >= 0 {
			sum += self[i]
		}
	}
	return sum.Seconds() / untraced.Seconds()
}

// stageSeconds sums the durations of every span with the given name.
func stageSeconds(spans []span, name string) float64 {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.End.Sub(s.Start)
		}
	}
	return d.Seconds()
}

// rtStats is a runtime/metrics snapshot: cumulative heap allocation,
// completed GC cycles, and total stop-the-world GC pause time.
type rtStats struct {
	allocBytes uint64
	gcCycles   uint64
	gcPause    float64
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

func readRuntime() rtStats {
	s := make([]metrics.Sample, len(rtSamples))
	copy(s, rtSamples)
	metrics.Read(s)
	return rtStats{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcPause:    histSum(s[2].Value.Float64Histogram()),
	}
}

// histSum estimates a duration histogram's total from bucket midpoints
// (an unbounded edge bucket is taken at its finite boundary).
func histSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, n := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			lo = hi
		case math.IsInf(hi, 1):
			hi = lo
		}
		sum += float64(n) * (lo + hi) / 2
	}
	return sum
}

func (a rtStats) sub(b rtStats) rtStats {
	return rtStats{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcPause - b.gcPause}
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}
