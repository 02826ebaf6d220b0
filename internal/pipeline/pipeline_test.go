package pipeline

import (
	"context"
	"testing"

	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/bpred/bimodal"
	"repro/internal/bpred/gshare"
	"repro/internal/bpred/ras"
	"repro/internal/bpred/targetcache"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vlp"
	"repro/internal/workload"
)

// refRun is the single-pass front-end model: it predicts and trains
// both predictors itself while it walks the trace. Either predictor may
// be nil, in which case that branch class is always predicted correctly.
// Run plus a sim replay per predictor plus Charge must match it.
func refRun(src trace.Source, cond bpred.CondPredictor, ind bpred.IndirectPredictor, p Params) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	stack, err := ras.New(p.rasDepth())
	if err != nil {
		return Result{}, err
	}
	width, penalty := int64(p.width()), int64(p.penalty())

	var res Result
	src.Reset()
	var r trace.Record
	prevNext := arch.Addr(0)
	for src.Next(&r) {
		instrs := int64(1)
		if prevNext != 0 && r.PC >= prevNext {
			instrs = int64(r.PC-prevNext)/arch.InstrBytes + 1
		}
		if instrs < 1 || instrs > 64 {
			instrs = 1
		}
		prevNext = r.Next

		res.Instructions += instrs
		res.Cycles += (instrs + width - 1) / width
		res.Branches++

		miss := false
		switch {
		case r.Kind == arch.Cond:
			res.CondBranches++
			if cond != nil && cond.Predict(r.PC) != r.Taken {
				res.CondMiss++
				miss = true
			}
		case r.Kind.IndirectTarget():
			res.IndBranches++
			if ind != nil && ind.Predict(r.PC) != r.Next {
				res.IndMiss++
				miss = true
			}
		case r.Kind == arch.Return:
			if stack.Predict() != r.Next {
				res.RetMiss++
				miss = true
			}
		}
		if miss {
			res.Mispredicts++
			res.Cycles += penalty
		}
		if cond != nil {
			cond.Update(r)
		}
		if ind != nil {
			ind.Update(r)
		}
		stack.Update(r)
	}
	return res, nil
}

// front is the two-part model: one trace-only Run, one sim replay per
// non-nil predictor, and Charge for their misses.
func front(t *testing.T, recs []trace.Record, cond bpred.CondPredictor, ind bpred.IndirectPredictor, p Params) Result {
	t.Helper()
	res, err := Run(trace.NewBuffer(recs), p)
	if err != nil {
		t.Fatal(err)
	}
	var cm, im int64
	if cond != nil {
		r := sim.RunCond(context.Background(), cond, trace.NewBuffer(recs), sim.Options{})
		if r.Branches != res.CondBranches {
			t.Fatalf("sim scored %d conditionals, Run counted %d", r.Branches, res.CondBranches)
		}
		cm = r.Mispredicts
	}
	if ind != nil {
		r := sim.RunIndirect(context.Background(), ind, trace.NewBuffer(recs), sim.Options{})
		if r.Branches != res.IndBranches {
			t.Fatalf("sim scored %d indirects, Run counted %d", r.Branches, res.IndBranches)
		}
		im = r.Mispredicts
	}
	return res.Charge(p, cm, im)
}

func TestParamsValidation(t *testing.T) {
	src := trace.NewBuffer(nil)
	if _, err := Run(src, Params{Width: -1}); err == nil {
		t.Error("negative width accepted")
	}
	if _, err := Run(src, Params{Penalty: -1}); err == nil {
		t.Error("negative penalty accepted")
	}
	if _, err := Run(src, Params{RASDepth: -1}); err == nil {
		t.Error("negative RAS depth accepted")
	}
}

func TestDeterministicAccounting(t *testing.T) {
	// Two blocks: 4 instructions ending in a taken cond (predicted by a
	// warm bimodal), then 8 instructions ending in a return (RAS empty:
	// one miss).
	recs := []trace.Record{
		{PC: 0x100c, Kind: arch.Cond, Taken: true, Next: 0x2000},
		{PC: 0x201c, Kind: arch.Return, Taken: true, Next: 0x1010},
	}
	p := bimodal.NewBits(8)
	// Warm the counter to predict taken at 0x100c.
	p.Update(recs[0])
	p.Update(recs[0])
	res := front(t, recs, p, nil, Params{Width: 4, Penalty: 10})
	// Block 1: first block clamps to 1 instr -> 1 cycle. Block 2:
	// (0x201c-0x2000)/4+1 = 8 instrs -> 2 cycles at width 4.
	if res.Instructions != 9 {
		t.Errorf("Instructions = %d, want 9", res.Instructions)
	}
	if res.RetMiss != 1 || res.CondMiss != 0 {
		t.Errorf("misses = %d cond, %d ret", res.CondMiss, res.RetMiss)
	}
	if res.CondBranches != 1 || res.IndBranches != 0 {
		t.Errorf("scored branches = %d cond, %d ind", res.CondBranches, res.IndBranches)
	}
	// Cycles: 1 + 2 + 10 penalty = 13.
	if res.Cycles != 13 {
		t.Errorf("Cycles = %d, want 13", res.Cycles)
	}
	if res.IPC() <= 0 || res.MPKI() <= 0 {
		t.Errorf("IPC/MPKI = %v/%v", res.IPC(), res.MPKI())
	}
	// Two conditional and three indirect misses cost 50 cycles more.
	if c := res.Charge(Params{Penalty: 10}, 2, 3); c.Cycles != 63 || c.Mispredicts != 6 ||
		c.CondMiss != 2 || c.IndMiss != 3 || c.RetMiss != 1 {
		t.Errorf("Charge(2, 3) = %+v", c)
	}
}

// TestRunChargeMatchesSinglePass pins the two-part model to the
// single-pass reference field for field, over several benchmarks,
// predictor pairs (nil included) and front-end shapes.
func TestRunChargeMatchesSinglePass(t *testing.T) {
	check := func(errs ...error) {
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	pairs := []struct {
		name string
		mk   func() (bpred.CondPredictor, bpred.IndirectPredictor)
	}{
		{"nil+nil", func() (bpred.CondPredictor, bpred.IndirectPredictor) { return nil, nil }},
		{"bimodal+nil", func() (bpred.CondPredictor, bpred.IndirectPredictor) { return bimodal.NewBits(6), nil }},
		{"nil+btb", func() (bpred.CondPredictor, bpred.IndirectPredictor) {
			btb, err := targetcache.NewBTBBudget(64)
			check(err)
			return nil, btb
		}},
		{"gshare+pattern", func() (bpred.CondPredictor, bpred.IndirectPredictor) {
			g, err1 := gshare.New(16 * 1024)
			pat, err2 := targetcache.NewPatternBudget(2048)
			check(err1, err2)
			return g, pat
		}},
		{"flp+flp", func() (bpred.CondPredictor, bpred.IndirectPredictor) {
			c, err1 := vlp.NewCond(16*1024, vlp.Fixed{L: 4}, vlp.Options{})
			i, err2 := vlp.NewIndirect(2048, vlp.Fixed{L: 3}, vlp.Options{})
			check(err1, err2)
			return c, i
		}},
	}
	for _, name := range []string{"gcc", "go", "compress"} {
		bench, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		recs := trace.Collect(bench.TestSource(20000)).Records
		for _, p := range []Params{{}, {Width: 2, Penalty: 17, RASDepth: 4}} {
			for _, pr := range pairs {
				c, i := pr.mk()
				want, err := refRun(trace.NewBuffer(recs), c, i, p)
				check(err)
				c, i = pr.mk()
				if got := front(t, recs, c, i, p); got != want {
					t.Errorf("%s %s %+v:\n got %+v\nwant %+v", name, pr.name, p, got, want)
				}
			}
		}
	}
}

// TestBetterPredictorFasterPipeline: the end-to-end claim — a predictor
// with fewer mispredictions yields strictly more IPC on the same stream.
func TestBetterPredictorFasterPipeline(t *testing.T) {
	bench, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	buf := trace.Collect(bench.TestSource(60000))

	weak := bimodal.NewBits(4) // tiny, heavily aliased
	weakInd, _ := targetcache.NewBTBBudget(64)
	weakRes := front(t, buf.Records, weak, weakInd, Params{})

	// The path predictors avoid gshare's long cold start at this trace
	// scale, making the contrast robust.
	strong, err := vlp.NewCond(16*1024, vlp.Fixed{L: 4}, vlp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	strongInd, _ := targetcache.NewPathBudget(2048)
	strongRes := front(t, buf.Records, strong, strongInd, Params{})

	if strongRes.Instructions != weakRes.Instructions {
		t.Fatalf("instruction streams differ: %d vs %d", strongRes.Instructions, weakRes.Instructions)
	}
	if strongRes.Mispredicts >= weakRes.Mispredicts {
		t.Errorf("strong predictor missed more: %d vs %d", strongRes.Mispredicts, weakRes.Mispredicts)
	}
	if sp := strongRes.Speedup(weakRes); sp <= 1 {
		t.Errorf("speedup = %.3f, want > 1", sp)
	}
	if strongRes.IPC() <= weakRes.IPC() {
		t.Errorf("IPC did not improve: %.3f vs %.3f", strongRes.IPC(), weakRes.IPC())
	}
}

func TestNilPredictorsPerfect(t *testing.T) {
	bench, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(bench.TestSource(20000), Params{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CondMiss != 0 || res.IndMiss != 0 {
		t.Errorf("Run recorded %d/%d predictor misses", res.CondMiss, res.IndMiss)
	}
	// Returns are still predicted by the RAS (nearly perfectly on
	// balanced code).
	if res.Branches == 0 || res.Cycles == 0 || res.CondBranches == 0 {
		t.Error("empty accounting")
	}
}

func TestHigherPenaltyCostsMore(t *testing.T) {
	bench, _ := workload.ByName("go")
	buf := trace.Collect(bench.TestSource(30000))
	r1 := front(t, buf.Records, bimodal.NewBits(10), nil, Params{Penalty: 5})
	r2 := front(t, buf.Records, bimodal.NewBits(10), nil, Params{Penalty: 20})
	if r2.Cycles <= r1.Cycles {
		t.Errorf("deeper pipeline not slower: %d vs %d cycles", r2.Cycles, r1.Cycles)
	}
	if r1.Mispredicts != r2.Mispredicts {
		t.Errorf("penalty changed miss counts: %d vs %d", r1.Mispredicts, r2.Mispredicts)
	}
}
