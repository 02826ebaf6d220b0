package profile

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vlp"
	"repro/internal/xrand"
)

// mixedCondTrace builds a trace with two kinds of branches: a shallow
// branch predictable from the immediately preceding (random) block, and a
// trip-T loop branch needing a long path. The right per-branch lengths are
// 1 and >= T.
func mixedCondTrace(seed uint64, iters int) *trace.Buffer {
	rng := xrand.New(seed)
	buf := &trace.Buffer{}
	preA, preB := arch.Addr(0x1004), arch.Addr(0x2008)
	const shallowPC, leadPC, loopPC = 0x5028, 0xa004, 0x600c
	for i := 0; i < iters; i++ {
		pre := preA
		if rng.Bool(0.5) {
			pre = preB
		}
		buf.Append(trace.Record{PC: leadPC, Kind: arch.Cond, Taken: true, Next: pre})
		want := pre == preA
		next := arch.Addr(shallowPC).FallThrough()
		if want {
			next = 0xb024
		}
		buf.Append(trace.Record{PC: shallowPC, Kind: arch.Cond, Taken: want, Next: next})
		for j := 0; j < 6; j++ {
			taken := j < 5
			n := arch.Addr(loopPC).FallThrough()
			if taken {
				n = 0x7010
			}
			buf.Append(trace.Record{PC: loopPC, Kind: arch.Cond, Taken: taken, Next: n})
		}
	}
	return buf
}

func TestConfigValidation(t *testing.T) {
	src := trace.NewBuffer(nil)
	if _, _, err := Cond(src, Config{}); err == nil {
		t.Error("zero TableBits accepted")
	}
	if _, _, err := Cond(src, Config{TableBits: 40}); err == nil {
		t.Error("oversize TableBits accepted")
	}
	if _, _, err := Cond(src, Config{TableBits: 10, Lengths: []int{0}}); err == nil {
		t.Error("candidate length 0 accepted")
	}
	if _, _, err := Cond(src, Config{TableBits: 10, Lengths: []int{}}); err == nil {
		t.Error("empty candidate set accepted")
	}
	ones := make([]int, 257)
	for i := range ones {
		ones[i] = 1
	}
	if _, _, err := Cond(src, Config{TableBits: 10, Lengths: ones}); err == nil {
		t.Error("candidate set beyond 256 lengths accepted")
	}
	if _, _, err := Cond(src, Config{TableBits: 10, Lengths: []int{40}}); err == nil {
		t.Error("candidate length beyond THB accepted")
	}
	if _, _, err := Cond(src, Config{TableBits: 10, Candidates: 3, Iterations: 2}); err == nil {
		t.Error("iterations < candidates accepted")
	}
	if _, _, err := Indirect(src, Config{TableBits: 0}); err == nil {
		t.Error("indirect zero TableBits accepted")
	}
}

func TestCondAssignsSensibleLengths(t *testing.T) {
	profSrc := mixedCondTrace(1, 800)
	p, agg, err := Cond(profSrc, Config{TableBits: 12})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Total == 0 || len(agg.Lengths) != 32 {
		t.Fatalf("step1 aggregate malformed: %+v", agg)
	}
	// The shallow branch should get a short length; the loop branch a
	// length long enough to see past the trip count.
	shallow, ok := p.Lengths[0x5028]
	if !ok {
		t.Fatal("shallow branch not profiled")
	}
	loop, ok := p.Lengths[0x600c]
	if !ok {
		t.Fatal("loop branch not profiled")
	}
	if shallow > 4 {
		t.Errorf("shallow branch assigned length %d, want short", shallow)
	}
	if loop < 5 {
		t.Errorf("loop branch assigned length %d, want >= 5", loop)
	}
}

// TestProfileGeneralises is the end-to-end claim of §3.5/§5: a profile
// gathered on one input must improve a *different* input over the best
// fixed length.
func TestProfileGeneralises(t *testing.T) {
	profSrc := mixedCondTrace(1, 800)
	testSrc := mixedCondTrace(2, 800)

	p, _, err := Cond(profSrc, Config{TableBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	vlpPred, err := vlp.NewCondBits(8, p.Selector(), vlp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vlpRes := sim.RunCond(context.Background(), vlpPred, testSrc, sim.Options{})

	bestFixed := 1.0
	for _, l := range []int{1, 2, 4, 8, 16} {
		fp, err := vlp.NewCondBits(8, vlp.Fixed{L: l}, vlp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r := sim.RunCond(context.Background(), fp, testSrc, sim.Options{}).Rate(); r < bestFixed {
			bestFixed = r
		}
	}
	if vlpRes.Rate() > bestFixed+0.005 {
		t.Errorf("profiled VLP rate %.4f worse than best fixed %.4f on unseen input",
			vlpRes.Rate(), bestFixed)
	}
}

func indirectMarkovTrace(seed uint64, n int) *trace.Buffer {
	// Order-2 deterministic handler sequence at one dispatch site.
	buf := &trace.Buffer{}
	targets := []arch.Addr{0x5004, 0x6008, 0x700c}
	seq := []int{0, 1, 2, 0, 2, 1}
	for i := 0; i < n; i++ {
		buf.Append(trace.Record{PC: 0x1004, Kind: arch.Indirect, Taken: true, Next: targets[seq[i%len(seq)]]})
	}
	_ = seed
	return buf
}

func TestIndirectAssignsDeepLength(t *testing.T) {
	src := indirectMarkovTrace(1, 3000)
	p, agg, err := Indirect(src, Config{TableBits: 9})
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != "indirect" {
		t.Errorf("Kind = %q", p.Kind)
	}
	l, ok := p.Lengths[0x1004]
	if !ok {
		t.Fatal("dispatch site not profiled")
	}
	// Needs at least 2 targets of context; length 1 cannot disambiguate.
	if l < 2 {
		t.Errorf("dispatch assigned length %d, want >= 2", l)
	}
	if agg.BestLength() < 2 {
		t.Errorf("aggregate best length %d, want >= 2", agg.BestLength())
	}
}

func TestBestFixedLengthAndMerge(t *testing.T) {
	src := mixedCondTrace(3, 400)
	l, agg, err := BestFixedLength(src, Config{TableBits: 10}, false)
	if err != nil {
		t.Fatal(err)
	}
	if l < 1 || l > 32 {
		t.Errorf("BestFixedLength = %d", l)
	}
	merged, err := MergeStep1([]Step1Result{agg, agg})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Total != 2*agg.Total {
		t.Errorf("merged total = %d, want %d", merged.Total, 2*agg.Total)
	}
	if merged.BestLength() != agg.BestLength() {
		t.Errorf("merging identical results changed the best length")
	}
	if _, err := MergeStep1(nil); err == nil {
		t.Error("merging nothing did not error")
	}
	other := Step1Result{Lengths: []int{1, 2}, Correct: []int64{0, 0}}
	if _, err := MergeStep1([]Step1Result{agg, other}); err == nil {
		t.Error("merging mismatched length sets did not error")
	}
}

func TestTopCandidates(t *testing.T) {
	lengths := []int{1, 2, 3, 4}
	correct := []int64{10, 40, 40, 5}
	got := topCandidates(lengths, correct, 3)
	// 2 and 3 tie at 40; stable sort keeps 2 first.
	want := []int{2, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("topCandidates = %v, want %v", got, want)
		}
	}
}

func TestArgmin(t *testing.T) {
	if argmin([]int64{3, 1, 1, 5}) != 1 {
		t.Error("argmin tie-break wrong")
	}
	if argmin([]int64{7}) != 0 {
		t.Error("argmin singleton wrong")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	p := &Profile{
		Kind:      "cond",
		TableBits: 14,
		Lengths:   map[arch.Addr]int{0x1004: 3, 0x2008: 17},
		Default:   9,
	}
	path := filepath.Join(t.TempDir(), "p.json")
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != p.Kind || got.TableBits != p.TableBits || got.Default != p.Default {
		t.Errorf("round trip lost fields: %+v", got)
	}
	if len(got.Lengths) != 2 || got.Lengths[0x1004] != 3 || got.Lengths[0x2008] != 17 {
		t.Errorf("round trip lost lengths: %v", got.Lengths)
	}
}

func TestLoadRejectsInvalid(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]*Profile{
		"kind.json":    {Kind: "bogus", TableBits: 10, Default: 1},
		"bits.json":    {Kind: "cond", TableBits: 0, Default: 1},
		"default.json": {Kind: "cond", TableBits: 10, Default: 0},
		"length.json":  {Kind: "cond", TableBits: 10, Default: 1, Lengths: map[arch.Addr]int{4: 0}},
	}
	for name, p := range cases {
		path := filepath.Join(dir, name)
		if err := p.Save(path); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Errorf("%s: invalid profile loaded without error", name)
		}
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file loaded")
	}
}

func TestPatternCondProfile(t *testing.T) {
	// An alternating branch needs pattern history; a noisy-biased branch
	// is best at zero bits. The elastic profile should separate them.
	buf := &trace.Buffer{}
	rng := xrand.New(9)
	for i := 0; i < 4000; i++ {
		alt := i%2 == 0
		next := arch.Addr(0x1004).FallThrough()
		if alt {
			next = 0x9004
		}
		buf.Append(trace.Record{PC: 0x1004, Kind: arch.Cond, Taken: alt, Next: next})
		b := rng.Bool(0.9)
		next = arch.Addr(0x2008).FallThrough()
		if b {
			next = 0x9108
		}
		buf.Append(trace.Record{PC: 0x2008, Kind: arch.Cond, Taken: b, Next: next})
	}
	prof, agg, err := PatternCond(buf, Config{TableBits: 10})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Total != 8000 {
		t.Errorf("Total = %d", agg.Total)
	}
	if got := prof.Bits[0x1004]; got < 1 {
		t.Errorf("alternating branch assigned %d history bits, want >= 1", got)
	}
	sel := prof.Selector()
	if sel.Bits(0x1004) != prof.Bits[0x1004] {
		t.Error("selector does not reflect profile")
	}
}

func TestPatternCondValidation(t *testing.T) {
	src := trace.NewBuffer(nil)
	if _, _, err := PatternCond(src, Config{}); err == nil {
		t.Error("zero TableBits accepted")
	}
	if _, _, err := PatternCond(src, Config{TableBits: 10, Lengths: []int{-1}}); err == nil {
		t.Error("negative history bits accepted")
	}
	if _, _, err := PatternCond(src, Config{TableBits: 10, Lengths: []int{11}}); err == nil {
		t.Error("history bits beyond index accepted")
	}
	if _, _, err := PatternCond(src, Config{TableBits: 10, Candidates: 3, Iterations: 1}); err == nil {
		t.Error("iterations < candidates accepted")
	}
	if _, _, err := PatternCond(src, Config{TableBits: 10, Lengths: make([]int, 257)}); err == nil {
		t.Error("candidate set beyond 256 history lengths accepted")
	}
}

// TestProfileDeterministic guards against map-iteration-order
// nondeterminism in the two-step heuristic: the same input must always
// produce the identical assignment, or archived profiles and experiment
// results would not be reproducible.
func TestProfileDeterministic(t *testing.T) {
	src := mixedCondTrace(5, 600)
	a, _, err := Cond(src, Config{TableBits: 10})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Cond(src, Config{TableBits: 10})
	if err != nil {
		t.Fatal(err)
	}
	if a.Default != b.Default || len(a.Lengths) != len(b.Lengths) {
		t.Fatalf("profiles differ structurally")
	}
	for pc, l := range a.Lengths {
		if b.Lengths[pc] != l {
			t.Fatalf("branch %v assigned %d then %d", pc, l, b.Lengths[pc])
		}
	}
	ia, _, err := Indirect(indirectMarkovTrace(1, 2000), Config{TableBits: 9})
	if err != nil {
		t.Fatal(err)
	}
	ib, _, err := Indirect(indirectMarkovTrace(1, 2000), Config{TableBits: 9})
	if err != nil {
		t.Fatal(err)
	}
	for pc, l := range ia.Lengths {
		if ib.Lengths[pc] != l {
			t.Fatalf("indirect branch %v assigned %d then %d", pc, l, ib.Lengths[pc])
		}
	}
}
