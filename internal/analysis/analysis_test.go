package analysis

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/arch"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/vlp"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// correlatedTrace: branch A's outcome equals the identity of the random
// block that preceded it (depth-1 information); branch B is a pure coin
// flip (no depth helps).
func correlatedTrace(seed uint64, n int) *trace.Buffer {
	rng := xrand.New(seed)
	buf := &trace.Buffer{}
	preA, preB := arch.Addr(0x1004), arch.Addr(0x2008)
	for i := 0; i < n; i++ {
		pre := preA
		if rng.Bool(0.5) {
			pre = preB
		}
		buf.Append(trace.Record{PC: 0xa004, Kind: arch.Cond, Taken: true, Next: pre})
		want := pre == preA
		next := arch.Addr(0x5028).FallThrough()
		if want {
			next = 0xb024
		}
		buf.Append(trace.Record{PC: 0x5028, Kind: arch.Cond, Taken: want, Next: next})
		coin := rng.Bool(0.5)
		next = arch.Addr(0x600c).FallThrough()
		if coin {
			next = 0xc010
		}
		buf.Append(trace.Record{PC: 0x600c, Kind: arch.Cond, Taken: coin, Next: next})
	}
	return buf
}

func TestAnalyzeValidation(t *testing.T) {
	in := profile.NewInput(nil)
	if _, err := Analyze(in, Config{Depths: []int{-1}}); err == nil {
		t.Error("negative depth accepted")
	}
	if _, err := Analyze(in, Config{Depths: []int{40}}); err == nil {
		t.Error("depth beyond THB accepted")
	}
}

func TestCurvesSeparateInformationFromNoise(t *testing.T) {
	rep, err := Analyze(profile.NewInput(correlatedTrace(1, 3000).Records), Config{Depths: []int{0, 1, 2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	byPC := map[arch.Addr]*BranchCurve{}
	for _, b := range rep.Branches {
		byPC[b.PC] = b
	}
	corr := byPC[0x5028]
	if corr == nil {
		t.Fatal("correlated branch missing")
	}
	// Depth 0: ~50%; depth >= 1: ~100%.
	if a := corr.Accuracy(0); a > 0.65 {
		t.Errorf("correlated branch depth-0 accuracy %.3f, want ~0.5", a)
	}
	if a := corr.Accuracy(1); a < 0.95 {
		t.Errorf("correlated branch depth-1 accuracy %.3f, want ~1", a)
	}
	// Its sufficient depth is 1.
	if i := corr.BestDepthIndex(rep.Depths, 0.01); rep.Depths[i] != 1 {
		t.Errorf("sufficient depth = %d, want 1", rep.Depths[i])
	}

	coin := byPC[0x600c]
	if coin == nil {
		t.Fatal("coin branch missing")
	}
	for i := range rep.Depths {
		if a := coin.Accuracy(i); a > 0.65 {
			t.Errorf("coin branch accuracy %.3f at depth %d — leak?", a, rep.Depths[i])
		}
	}
	// Context counts grow with depth for the coin branch (random
	// surroundings), and collapse to 2 at depth 1 for the correlated one.
	if corr.Contexts[1] != 2 {
		t.Errorf("correlated branch has %d depth-1 contexts, want 2", corr.Contexts[1])
	}
	if coin.Contexts[3] <= coin.Contexts[1] {
		t.Errorf("coin branch contexts did not grow with depth: %v", coin.Contexts)
	}
}

func TestMinExecutionsFilter(t *testing.T) {
	buf := &trace.Buffer{}
	buf.Append(trace.Record{PC: 0x1004, Kind: arch.Cond, Taken: true, Next: 0x9000})
	rep, err := Analyze(profile.NewInput(buf.Records), Config{MinExecutions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Branches) != 0 {
		t.Errorf("singleton branch survived the filter")
	}
	if rep.TotalExecuted != 1 {
		t.Errorf("TotalExecuted = %d", rep.TotalExecuted)
	}
}

func TestHistogramAndMeans(t *testing.T) {
	rep, err := Analyze(profile.NewInput(correlatedTrace(2, 2000).Records), Config{Depths: []int{0, 1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	depths, weight := rep.SufficientDepthHistogram()
	var sum float64
	for _, w := range weight {
		sum += w
	}
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("histogram weights sum to %.2f", sum)
	}
	if len(depths) != 3 {
		t.Errorf("depths = %v", depths)
	}
	means := rep.MeanAccuracyAt()
	if means[1] <= means[0] {
		t.Errorf("mean accuracy did not improve with depth: %v", means)
	}
}

// TestSuiteBranchesMostlyShallow reproduces the Evers et al. qualitative
// finding on our suite: most dynamic weight needs only a shallow path.
func TestSuiteBranchesMostlyShallow(t *testing.T) {
	b, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(profile.NewInput(trace.Collect(b.TestSource(60000)).Records), Config{})
	if err != nil {
		t.Fatal(err)
	}
	depths, weight := rep.SufficientDepthHistogram()
	shallow := 0.0
	for i, d := range depths {
		if d <= 4 {
			shallow += weight[i]
		}
	}
	if shallow < 50 {
		t.Errorf("only %.1f%% of dynamic weight satisfied by depth <= 4", shallow)
	}
}

// refAnalyze is the map-based ideal-predictor sweep: one map of
// counters per (branch, depth), keyed by the path key alone. Analyze
// must match it exactly.
func refAnalyze(src trace.Source, cfg Config) (*Report, error) {
	depths := cfg.depths()
	maxDepth := 0
	for _, d := range depths {
		if d < 0 || d > vlp.DefaultMaxPath {
			return nil, fmt.Errorf("analysis: depth %d out of range 0..%d", d, vlp.DefaultMaxPath)
		}
		if d > maxDepth {
			maxDepth = d
		}
	}
	if maxDepth == 0 {
		maxDepth = 1
	}
	// One uncompressed path hash per depth; 64-bit mixing makes
	// collisions negligible at trace scale.
	hs, err := vlp.NewHashSet(32, maxDepth)
	if err != nil {
		return nil, err
	}

	type slot struct{ counters map[uint64]uint8 }
	perPC := map[arch.Addr]*struct {
		curve *BranchCurve
		slots []slot
	}{}

	src.Reset()
	var r trace.Record
	var total int64
	for src.Next(&r) {
		if r.Kind == arch.Cond {
			st := perPC[r.PC]
			if st == nil {
				st = &struct {
					curve *BranchCurve
					slots []slot
				}{
					curve: &BranchCurve{
						PC:       r.PC,
						Correct:  make([]int64, len(depths)),
						Contexts: make([]int64, len(depths)),
					},
					slots: make([]slot, len(depths)),
				}
				for i := range st.slots {
					st.slots[i].counters = map[uint64]uint8{}
				}
				perPC[r.PC] = st
			}
			st.curve.Executed++
			total++
			for i, d := range depths {
				key := pathKey(hs, d)
				ctr, seen := st.slots[i].counters[key]
				if !seen {
					st.curve.Contexts[i]++
					ctr = 1 // weakly not-taken, matching the predictors
				}
				if (ctr >= 2) == r.Taken {
					st.curve.Correct[i]++
				}
				if r.Taken && ctr < 3 {
					ctr++
				} else if !r.Taken && ctr > 0 {
					ctr--
				}
				st.slots[i].counters[key] = ctr
			}
		}
		if r.Kind.RecordsInTHB() {
			hs.Insert(r.Next)
		}
	}

	rep := &Report{Depths: depths, TotalExecuted: total}
	for _, st := range perPC {
		if st.curve.Executed >= cfg.minExec() {
			rep.Branches = append(rep.Branches, st.curve)
		}
	}
	sort.Slice(rep.Branches, func(i, j int) bool { return rep.Branches[i].PC < rep.Branches[j].PC })
	return rep, nil
}

// analyzeTraces are the benchmark traces the differential runs on.
func analyzeTraces(t *testing.T) map[string]*trace.Buffer {
	t.Helper()
	out := map[string]*trace.Buffer{}
	for _, name := range []string{"gcc", "li", "perl", "go"} {
		b, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = trace.Collect(b.ProfileSource(6000))
	}
	return out
}

// TestAnalyzeMatchesMapReference pins the flat per-depth context tables
// to the per-branch maps: every BranchCurve field and TotalExecuted,
// over several benchmarks, depth sets (the default, the shallowest and
// deepest alone, and an unsorted set) and execution floors.
func TestAnalyzeMatchesMapReference(t *testing.T) {
	for name, buf := range analyzeTraces(t) {
		// One input serves every configuration, as a suite's memoized
		// input does.
		in := profile.NewInput(buf.Records)
		for _, depths := range [][]int{nil, {0}, {32}, {8, 0, 32, 2, 1}} {
			for _, minExec := range []int64{1, 0} {
				cfg := Config{Depths: depths, MinExecutions: minExec}
				got, err := Analyze(in, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refAnalyze(trace.NewBuffer(buf.Records), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(want.Branches) == 0 {
					t.Fatalf("%s %+v: the reference scored no branch", name, cfg)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s depths=%v minExec=%d: flat analysis diverges from the map reference", name, depths, minExec)
				}
			}
		}
	}
}

// TestAnalyzePoisonedPool runs Analyze with the context-table pool
// filled with garbage before every call: a table taken from the pool
// must be cleared before its first lookup, or the result departs from
// the map reference. One slot in 16 is occupied, so a table that is not
// cleared still has empty slots and the lookup ends.
func TestAnalyzePoisonedPool(t *testing.T) {
	buf := analyzeTraces(t)["gcc"]
	in := profile.NewInput(buf.Records)
	for _, depths := range [][]int{nil, {0}, {8, 0, 32, 2, 1}} {
		cfg := Config{Depths: depths, MinExecutions: 1}
		for c := 10; c <= 16; c++ {
			s := make([]ctxSlot, 1<<c)
			for i := 0; i < len(s); i += 16 {
				s[i] = ctxSlot{key: uint64(i), id: int32(i%7) + 1, ctr: 3}
			}
			ctxSlots.Put(s)
		}
		got, err := Analyze(in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refAnalyze(trace.NewBuffer(buf.Records), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("depths=%v: analysis on a poisoned pool diverges from the map reference", depths)
		}
	}
}
