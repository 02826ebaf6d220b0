package main

import (
	"math"
	"runtime/metrics"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: quantile must sort
	}
	return xs
}

func TestQuantileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct {
		p      float64
		v      float64
		beyond int
	}{
		{0.5, 50, 50},
		{0.9, 90, 10},
		{0.99, 99, 1},
		{1, 100, 0},
		{0, 1, 99},
	} {
		v, beyond := quantile(xs, c.p)
		if v != c.v || beyond != c.beyond {
			t.Errorf("quantile(1..100, %v) = %v with %d beyond, want %v with %d", c.p, v, beyond, c.v, c.beyond)
		}
	}
	if v, _ := quantile(nil, 0.5); !math.IsNaN(v) {
		t.Errorf("quantile of no samples = %v, want NaN", v)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	if _, err := tail(seq(99), 0.9); err == nil {
		t.Error("p90 over 99 samples (9 beyond) accepted")
	}
	if v, err := tail(seq(100), 0.9); err != nil || v != 90 {
		t.Errorf("p90 over 100 samples = %v, %v; want 90, nil", v, err)
	}
	if got := samplesFor(0.9); got != 100 {
		t.Errorf("samplesFor(0.9) = %d, want 100", got)
	}
	if got := samplesFor(0.5); got != 20 {
		t.Errorf("samplesFor(0.5) = %d, want 20", got)
	}
	if _, beyond := quantile(seq(samplesFor(0.99)), 0.99); beyond != minBeyond {
		t.Errorf("samplesFor(0.99) leaves %d beyond, want %d", beyond, minBeyond)
	}
}

func TestFailFrac(t *testing.T) {
	for _, c := range []struct {
		failed, attempted int
		want              float64
	}{
		{0, 10, 0},
		{3, 12, 0.25},
		{5, 5, 1},
		{0, 0, 1}, // nothing attempted is a failed run
	} {
		if got := failFrac(c.failed, c.attempted); got != c.want {
			t.Errorf("failFrac(%d, %d) = %v, want %v", c.failed, c.attempted, got, c.want)
		}
	}
}

// at builds a span from offsets in seconds.
func at(name string, parent int, from, to float64) span {
	t0 := time.Unix(0, 0)
	return span{
		Name: name, Parent: parent, Run: "r",
		Start: t0.Add(seconds(from)), End: t0.Add(seconds(to)),
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		at("root", -1, 0, 10),
		at("a", 0, 1, 4),
		at("b", 0, 3, 6), // overlaps a: the root's covered part counts once
		at("a.1", 1, 2, 3),
		at("late", 0, 9, 12), // clipped to the root's end
	}
	want := []float64{10 - 5 - 1, 3 - 1, 3, 1, 3}
	for i, got := range selfTimes(spans) {
		if math.Abs(got.Seconds()-want[i]) > 1e-9 {
			t.Errorf("self time of %s = %v, want %vs", spans[i].Name, got, want[i])
		}
	}
}

func TestCoverage(t *testing.T) {
	// Sequential stages covering 9 of the root's 10 seconds.
	spans := []span{
		at("root", -1, 0, 10),
		at("workload", 0, 0, 2),
		at("profile", 0, 2, 5),
		at("sim", 0, 5, 9),
		at("sim.cell", 3, 5, 8),
	}
	if got := coverage(spans, seconds(9)); math.Abs(got-1) > 1e-9 {
		t.Errorf("coverage over an untraced 9s = %v, want 1", got)
	}
	if got := coverage(spans, seconds(18)); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("coverage over an untraced 18s = %v, want 0.5", got)
	}
	if got := stageSeconds(spans, "sim"); got != 4 {
		t.Errorf("stageSeconds(sim) = %v, want 4", got)
	}
}

func TestHistSum(t *testing.T) {
	h := &metrics.Float64Histogram{
		Counts:  []uint64{2, 1, 3},
		Buckets: []float64{math.Inf(-1), 1, 3, math.Inf(1)},
	}
	// 2 at the finite edge 1, 1 at the midpoint 2, 3 at the edge 3.
	if got, want := histSum(h), 2*1.0+1*2.0+3*3.0; got != want {
		t.Errorf("histSum = %v, want %v", got, want)
	}
}
