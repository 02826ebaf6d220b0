package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bpred"
	"repro/internal/bpred/gshare"
	"repro/internal/engine"
)

func condCellGshare(budget int) engine.CondCell {
	return func() (bpred.CondPredictor, error) { return gshare.New(budget) }
}

// newPerCellSuite returns a suite whose engine replays every predictor
// alone (engine.Config.PerCell: K=1) — the
// reference the fused columns are checked against.
func newPerCellSuite(cfg Config) *Suite {
	s := NewSuite(cfg)
	s.eng = engine.New(engine.Config{Source: s.TestSource, PerCell: true})
	return s
}

// TestFusedMatchesPerCellOracle is the experiment-level differential
// gate across both replay paths: a fused suite and a per-cell reference
// suite at the same scale must render byte-identical artifact text for every
// column-driven experiment shape — the per-benchmark comparisons, the
// size-sweep grids, the variant
// ablations, the indirect field, and the experiments that keep their
// predictors for post-run state (HFNT, interference, stability), which
// replay through Engine.ReplayCond.
func TestFusedMatchesPerCellOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("two full small-scale suites")
	}
	const scale = 60000
	fused := NewSuite(Config{BaseRecords: scale})
	oracle := newPerCellSuite(Config{BaseRecords: scale})
	ctx := context.Background()
	for _, id := range []string{
		"fig5", "fig7", "fig9", "fig10", "headline",
		"ablation-dynsel", "ablation-indfield",
		"ablation-hfnt", "ablation-interference", "ablation-stability",
	} {
		e, err := Find(id)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := e.Run(fused, ctx)
		if err != nil {
			t.Fatalf("%s fused: %v", id, err)
		}
		or, err := e.Run(oracle, ctx)
		if err != nil {
			t.Fatalf("%s per-cell: %v", id, err)
		}
		if fr.Text != or.Text {
			t.Errorf("%s: fused and per-cell artifacts differ\n--- fused ---\n%s\n--- per-cell ---\n%s",
				id, fr.Text, or.Text)
		}
		if strings.TrimSpace(fr.Text) == "" {
			t.Errorf("%s rendered empty text", id)
		}
	}
	if n := fused.Engine().Counters().Executed; n == 0 {
		t.Error("fused suite never exercised the column kernel")
	}
}

// TestColumnMemoized pins the (benchmark, column id) memoization: two
// calls with the same key replay once, a different id replays again.
func TestColumnMemoized(t *testing.T) {
	s := testSuite()
	ctx := context.Background()
	executed := func() int64 { return s.Engine().Counters().Executed }
	base := executed()
	cells := []engine.CondCell{condCellGshare(1024), condCellGshare(4096)}
	a, err := s.Engine().Column(ctx, engine.Cell{Trace: "go", ColumnID: "memo-test", Cond: cells})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Engine().Column(ctx, engine.Cell{Trace: "go", ColumnID: "memo-test", Cond: cells})
	if err != nil {
		t.Fatal(err)
	}
	if executed() != base+1 {
		t.Errorf("same key computed %d times, want 1", executed()-base)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("memoized column returned different rates: %v vs %v", a, b)
		}
	}
	if _, err := s.Engine().Column(ctx, engine.Cell{Trace: "go", ColumnID: "memo-test-2", Cond: cells}); err != nil {
		t.Fatal(err)
	}
	if executed() != base+2 {
		t.Errorf("distinct id did not recompute (computed %d, want 2)", executed()-base)
	}
}
