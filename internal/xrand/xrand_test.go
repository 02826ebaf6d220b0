package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

// TestSplitMix64ReferenceVector checks the first three outputs for seed 0
// against the published reference implementation (Steele & Vigna).
func TestSplitMix64ReferenceVector(t *testing.T) {
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
	}
	var state uint64
	for i, w := range want {
		if got := SplitMix64(&state); got != w {
			t.Errorf("SplitMix64 output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestMix64MatchesSplitMix(t *testing.T) {
	// Mix64(x) must equal the splitmix64 step applied to state x.
	f := func(x uint64) bool {
		state := x
		return SplitMix64(&state) == Mix64(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverge at %d: %#x vs %#x", i, av, bv)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("seeds 42 and 43 coincide %d/1000 times", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(1)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(99)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	var sum float64
	const trials = 100000
	for i := 0; i < trials; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / trials; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean of Float64 = %v, want ~0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(11)
	const trials = 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / trials; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) hit rate = %v", p)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := New(8)
	s := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	seen := make(map[int]bool)
	for _, v := range s {
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Errorf("Shuffle lost elements: %v", s)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(6)
	seenLo, seenHi := false, false
	for i := 0; i < 1000; i++ {
		v := r.IntnRange(3, 9)
		if v < 3 || v > 9 {
			t.Fatalf("IntnRange(3,9) = %d", v)
		}
		seenLo = seenLo || v == 3
		seenHi = seenHi || v == 9
	}
	if !seenLo || !seenHi {
		t.Error("IntnRange never produced an endpoint in 1000 draws")
	}
	if v := r.IntnRange(4, 4); v != 4 {
		t.Errorf("IntnRange(4,4) = %d", v)
	}
}

func TestWeightedChoice(t *testing.T) {
	r := New(13)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const trials = 40000
	for i := 0; i < trials; i++ {
		counts[r.WeightedChoice(weights)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight bucket chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.3 {
		t.Errorf("weight ratio = %v, want ~3", ratio)
	}
}

func TestWeightedChoicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WeightedChoice(nil) did not panic")
		}
	}()
	New(1).WeightedChoice(nil)
}
