package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/bpred/cascaded"
	"repro/internal/bpred/gshare"
	"repro/internal/bpred/hybrid"
	"repro/internal/bpred/targetcache"
	"repro/internal/runx"
	"repro/internal/trace"
	"repro/internal/vlp"
)

// syntheticRecords is a small deterministic trace with both branch
// classes, enough for scheduling tests that only care about counters
// and result identity, not statistics.
func syntheticRecords(n int) []trace.Record {
	recs := make([]trace.Record, 0, 2*n)
	for i := 0; i < n; i++ {
		taken := i%3 != 0
		next := arch.Addr(0x2000)
		if !taken {
			next = arch.Addr(0x1004).FallThrough()
		}
		recs = append(recs, trace.Record{PC: 0x1004, Kind: arch.Cond, Taken: taken, Next: next})
		recs = append(recs, trace.Record{PC: 0x3000, Kind: arch.Indirect, Taken: true,
			Next: arch.Addr(0x5000 + 16*arch.Addr(i%4))})
	}
	return recs
}

func syntheticEngine(cfg Config) *Engine {
	recs := syntheticRecords(5000)
	cfg.Source = func(bench string) (trace.Source, error) {
		if bench == "missing" {
			return nil, fmt.Errorf("no trace for %s", bench)
		}
		return trace.NewBuffer(recs), nil
	}
	return New(cfg)
}

func condCellGshare(budget int) CondCell {
	return func() (bpred.CondPredictor, error) { return gshare.New(budget) }
}

// TestKeyRoundTrip pins Key.String's "class|trace|column-id" form: the
// rendered key carries every field back out, so errors name a cell
// unambiguously and the grid digests hash the whole identity.
func TestKeyRoundTrip(t *testing.T) {
	for k, want := range map[Key]string{
		{Class: ClassCond, Trace: "gcc", ColumnID: "fig9"}:                  "cond|gcc|fig9",
		{Class: ClassIndirect, Trace: "perl", ColumnID: "compare-ind-2048"}: "indirect|perl|compare-ind-2048",
	} {
		s := k.String()
		if s != want {
			t.Errorf("%+v.String() = %q, want %q", k, s, want)
		}
		parts := strings.SplitN(s, "|", 3)
		if len(parts) != 3 || parts[0] != k.Class.String() || parts[1] != k.Trace || parts[2] != k.ColumnID {
			t.Errorf("%q does not split back into %+v", s, k)
		}
	}
}

func TestCellClassAndKey(t *testing.T) {
	c := Cell{Trace: "gcc", ColumnID: "x", Cond: []CondCell{condCellGshare(1024)}}
	if c.Class() != ClassCond || c.Key().String() != "cond|gcc|x" {
		t.Errorf("cond cell key = %q", c.Key())
	}
	ic := Cell{Trace: "gcc", ColumnID: "y", Indirect: []IndirectCell{nil}}
	if ic.Class() != ClassIndirect || ic.Key().String() != "indirect|gcc|y" {
		t.Errorf("indirect cell key = %q", ic.Key())
	}
}

// TestColumnDedupsAcrossSubmissions pins the scheduler's core promise:
// the same key submitted twice replays once, and both callers see the
// same rates.
func TestColumnDedupsAcrossSubmissions(t *testing.T) {
	e := syntheticEngine(Config{})
	ctx := context.Background()
	cell := Cell{Trace: "gcc", ColumnID: "dup", Cond: []CondCell{condCellGshare(1024), condCellGshare(4096)}}
	first, err := e.Column(ctx, cell)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Column(ctx, cell)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("rate %d: %v then %v", i, first[i], second[i])
		}
	}
	c := e.Counters()
	if c.Submitted != 2 || c.Executed != 1 || c.Deduped != 1 {
		t.Errorf("counters = %+v, want submitted 2 / executed 1 / deduped 1", c)
	}
}

// TestExecuteDedupsWithinPlan: a plan listing the same cell under two
// experiments' positions runs it once and fills both positions.
func TestExecuteDedupsWithinPlan(t *testing.T) {
	e := syntheticEngine(Config{})
	cells := []CondCell{condCellGshare(1024)}
	p := NewPlan()
	p.Cond("gcc", "shared", cells)
	p.Cond("perl", "other", cells)
	p.Cond("gcc", "shared", cells) // the duplicate
	out, err := e.Execute(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("Execute returned %d results for 3 cells", len(out))
	}
	if out[0][0] != out[2][0] {
		t.Errorf("duplicate positions disagree: %v vs %v", out[0], out[2])
	}
	c := e.Counters()
	if c.Submitted != 3 || c.Executed != 2 || c.Deduped != 1 {
		t.Errorf("counters = %+v, want submitted 3 / executed 2 / deduped 1", c)
	}
}

// TestExecuteFailingCellFailsAlone: one cell with a broken source must
// not take the others' results down, and the sweep error names it.
func TestExecuteFailingCellFailsAlone(t *testing.T) {
	e := syntheticEngine(Config{})
	p := NewPlan()
	p.Cond("gcc", "ok", []CondCell{condCellGshare(1024)})
	p.Cond("missing", "bad", []CondCell{condCellGshare(1024)})
	out, err := e.Execute(context.Background(), p)
	var sw *runx.SweepError
	if !errors.As(err, &sw) || len(sw.Jobs) != 1 {
		t.Fatalf("Execute = %v, want a SweepError naming one job", err)
	}
	if out[0] == nil || out[1] != nil {
		t.Errorf("results = %v, want the healthy cell filled and the broken one nil", out)
	}
}

// TestColumnReplaysAfterCanceledRun: a replay cut short by a canceled
// context is refused and not memoized, so the next live submission of
// the same key replays and returns rates — a missed deadline must not
// fail every later experiment that shares the column.
func TestColumnReplaysAfterCanceledRun(t *testing.T) {
	// Long enough to cross the kernel's first cancellation check.
	recs := syntheticRecords(40000)
	e := New(Config{Source: func(string) (trace.Source, error) { return trace.NewBuffer(recs), nil }})
	cell := Cell{Trace: "gcc", ColumnID: "cut", Cond: []CondCell{condCellGshare(1024)}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if rates, err := e.Column(ctx, cell); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Column = %v, %v; want context.Canceled", rates, err)
	}
	rates, err := e.Column(context.Background(), cell)
	if err != nil || len(rates) != 1 {
		t.Fatalf("live Column after a canceled one = %v, %v; want one rate", rates, err)
	}
	if c := e.Counters(); c.Submitted != 2 || c.Executed != 2 || c.Deduped != 0 {
		t.Errorf("counters = %+v, want submitted 2 / executed 2 / deduped 0", c)
	}
}

// TestStrategiesAgree: the two replay paths — per-cell (each
// predictor alone) and fused — produce identical rates for a column of
// path predictors at one table size, and ReplayCond honours PerCell
// with the same rates in predictor order.
func TestStrategiesAgree(t *testing.T) {
	cells := []CondCell{condCellGshare(1024)}
	for _, l := range []int{3, 5, 9} {
		l := l
		cells = append(cells, func() (bpred.CondPredictor, error) {
			return vlp.NewCond(2048, vlp.Fixed{L: l}, vlp.Options{})
		})
	}
	cells = append(cells, condCellGshare(4096))
	ctx := context.Background()
	column := func(cfg Config) []float64 {
		t.Helper()
		rates, err := syntheticEngine(cfg).Column(ctx, Cell{Trace: "gcc", ColumnID: "agree", Cond: cells})
		if err != nil {
			t.Fatal(err)
		}
		return rates
	}
	replay := func(cfg Config) []float64 {
		t.Helper()
		preds := make([]bpred.CondPredictor, len(cells))
		for i, c := range cells {
			p, err := c()
			if err != nil {
				t.Fatal(err)
			}
			preds[i] = p
		}
		res, err := syntheticEngine(cfg).ReplayCond(ctx, preds, trace.NewBuffer(syntheticRecords(5000)))
		if err != nil {
			t.Fatal(err)
		}
		return percents(res)
	}
	want := column(Config{PerCell: true})
	for name, got := range map[string][]float64{
		"fused":          column(Config{}),
		"replay-fused":   replay(Config{}),
		"replay-percell": replay(Config{PerCell: true}),
	} {
		if len(got) != len(want) {
			t.Fatalf("%s: %d rates, want %d", name, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Errorf("%s: cell %d rate %v, per-cell %v", name, i, got[i], want[i])
			}
		}
	}
}

// TestColumnRefusesAmbiguousCell: a cell with both classes (or neither)
// is a caller bug, reported as an error rather than mis-scheduled.
func TestColumnRefusesAmbiguousCell(t *testing.T) {
	e := syntheticEngine(Config{})
	if _, err := e.Column(context.Background(), Cell{Trace: "gcc", ColumnID: "none"}); err == nil {
		t.Error("empty cell accepted")
	}
	both := Cell{Trace: "gcc", ColumnID: "both",
		Cond:     []CondCell{condCellGshare(1024)},
		Indirect: []IndirectCell{nil}}
	if _, err := e.Column(context.Background(), both); err == nil {
		t.Error("two-class cell accepted")
	}
}

// TestColumnReleasesBuiltPredictors: the engine releases every
// predictor a cell built once its replay ends — a released predictor's
// tables are gone, so it reports a zero size — and fresh predictors
// built on the tables it handed back replay to the same rates.
func TestColumnReleasesBuiltPredictors(t *testing.T) {
	var built []bpred.Predictor
	record := func(p bpred.Predictor) { built = append(built, p) }
	cond := []CondCell{
		func() (bpred.CondPredictor, error) {
			p, err := gshare.New(1024)
			record(p)
			return p, err
		},
		func() (bpred.CondPredictor, error) {
			p, err := vlp.NewCond(2048, vlp.Fixed{L: 5}, vlp.Options{})
			record(p)
			return p, err
		},
		func() (bpred.CondPredictor, error) {
			p, err := vlp.NewDynCond(2048, nil, 8, 4)
			record(p)
			return p, err
		},
		func() (bpred.CondPredictor, error) {
			g, err := gshare.New(512)
			if err != nil {
				return nil, err
			}
			p := hybrid.New(g, mustCond(t, 1024, 3), 8)
			record(p)
			return p, nil
		},
	}
	ind := []IndirectCell{
		func() (bpred.IndirectPredictor, error) {
			p, err := vlp.NewIndirect(2048, vlp.Fixed{L: 3}, vlp.Options{})
			record(p)
			return p, err
		},
		func() (bpred.IndirectPredictor, error) {
			p, err := cascaded.NewBudget(2048)
			record(p)
			return p, err
		},
		func() (bpred.IndirectPredictor, error) {
			p := targetcache.NewBTB(9)
			record(p)
			return p, nil
		},
	}
	ctx := context.Background()
	for _, perCell := range []bool{false, true} {
		var first [][]float64
		for pass := 0; pass < 2; pass++ {
			built = built[:0]
			e := syntheticEngine(Config{PerCell: perCell})
			var rates [][]float64
			for _, c := range []Cell{
				{Trace: "gcc", ColumnID: "cond", Cond: cond},
				{Trace: "gcc", ColumnID: "ind", Indirect: ind},
			} {
				r, err := e.Column(ctx, c)
				if err != nil {
					t.Fatal(err)
				}
				rates = append(rates, r)
			}
			if len(built) != len(cond)+len(ind) {
				t.Fatalf("built %d predictors, want %d", len(built), len(cond)+len(ind))
			}
			for _, p := range built {
				if n := p.SizeBytes(); n != 0 {
					t.Errorf("PerCell=%v: %s still holds %d bytes of tables after its cell", perCell, p.Name(), n)
				}
			}
			if pass == 0 {
				first = rates
				continue
			}
			if fmt.Sprint(rates) != fmt.Sprint(first) {
				t.Errorf("PerCell=%v: rates on reused tables %v, first pass %v", perCell, rates, first)
			}
		}
	}
}

// TestReplayCondLeavesPredictorsToCaller: ReplayCond releases nothing,
// so the caller reads its instrumented predictors' counters afterwards,
// and they stay readable after the caller releases the predictors.
func TestReplayCondLeavesPredictorsToCaller(t *testing.T) {
	inst, err := vlp.NewInstrumentedCond(2048, vlp.Fixed{L: 4}, vlp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := vlp.NewHFNT(mustCond(t, 2048, 6), 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := syntheticEngine(Config{}).ReplayCond(context.Background(),
		[]bpred.CondPredictor{inst, h}, trace.NewBuffer(syntheticRecords(5000)))
	if err != nil {
		t.Fatal(err)
	}
	if inst.SizeBytes() == 0 || h.SizeBytes() == 0 {
		t.Fatal("ReplayCond released the caller's predictors")
	}
	stats, lookups := inst.Stats, h.Lookups
	if stats.Branches != res[0].Branches || stats.Misses != res[0].Mispredicts || lookups != res[1].Branches {
		t.Fatalf("stats %+v, %d lookups; replay results %+v", stats, lookups, res)
	}
	inst.Release()
	h.Release()
	if inst.Stats != stats || h.Lookups != lookups {
		t.Errorf("Release changed the counters: %+v, %d lookups", inst.Stats, h.Lookups)
	}
}

// mustCond builds a fixed-length conditional path predictor.
func mustCond(t *testing.T, budget, l int) *vlp.Cond {
	t.Helper()
	p, err := vlp.NewCond(budget, vlp.Fixed{L: l}, vlp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}
