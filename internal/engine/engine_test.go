package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/bpred/gshare"
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

func TestKeyRoundTrip(t *testing.T) {
	for _, k := range []Key{
		{Class: ClassCond, Trace: "gcc", ColumnID: "fig9"},
		{Class: ClassIndirect, Trace: "perl", ColumnID: "compare-ind-2048"},
	} {
		got, err := ParseKey(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKey(%q) = %+v, %v; want %+v", k.String(), got, err, k)
		}
	}
	for _, bad := range []string{"", "cond|gcc", "weird|gcc|fig9", "cond||fig9", "cond|gcc|"} {
		if _, err := ParseKey(bad); err == nil {
			t.Errorf("ParseKey(%q) accepted", bad)
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
	if keys := p.Keys(); len(keys) != 3 || keys[0].String() != "cond|gcc|shared" {
		t.Errorf("Plan.Keys = %v", keys)
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

// TestNoDedupReplaysEverySubmission covers the benchmark escape hatch.
func TestNoDedupReplaysEverySubmission(t *testing.T) {
	e := syntheticEngine(Config{NoDedup: true})
	ctx := context.Background()
	cell := Cell{Trace: "gcc", ColumnID: "dup", Cond: []CondCell{condCellGshare(1024)}}
	for i := 0; i < 3; i++ {
		if _, err := e.Column(ctx, cell); err != nil {
			t.Fatal(err)
		}
	}
	c := e.Counters()
	if c.Submitted != 3 || c.Executed != 3 || c.Deduped != 0 {
		t.Errorf("counters = %+v, want 3 executions under NoDedup", c)
	}
}

// TestStrategiesAgree: the three replay paths — per-cell (each
// predictor alone, no shared history), fused, and segmented with
// checkpoints under SnapDir — produce identical rates for a column
// with shared path histories, and ReplayCond honours PerCell with the
// same rates in predictor order.
func TestStrategiesAgree(t *testing.T) {
	old := checkpointStride
	checkpointStride = 999
	defer func() { checkpointStride = old }()
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
		"fused":             column(Config{}),
		"segmented":         column(Config{SnapDir: t.TempDir()}),
		"replay-fused":      replay(Config{}),
		"replay-percell":    replay(Config{PerCell: true}),
		"percell-with-snap": column(Config{PerCell: true, SnapDir: t.TempDir()}),
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
