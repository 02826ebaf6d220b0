package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
)

// gridSuite builds a dedicated small suite so engine counter deltas are
// not perturbed by the package's shared testSuite.
func gridSuite() *Suite {
	return NewSuite(Config{BaseRecords: 30000, ProfileRecords: 15000})
}

// sharedIndirectBenches are the benchmarks both fig7 (SPEC) and table3
// (indirect-heavy) replay: the cross-experiment dedup surface.
func sharedIndirectBenches(t *testing.T) int {
	t.Helper()
	spec := map[string]bool{}
	for _, b := range workload.SPEC() {
		spec[b.Name()] = true
	}
	shared := 0
	for _, b := range workload.IndirectHeavy() {
		if spec[b.Name()] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no benchmark is both SPEC and indirect-heavy; the dedup test exercises nothing")
	}
	return shared
}

// TestCrossExperimentCellDedup is the engine's scheduling acceptance
// test: fig7 and table3 both plan compare-ind-2048 cells for the
// benchmarks in SPEC ∩ indirect-heavy, so running both on one suite
// must replay each shared cell exactly once — and the deduped
// experiment's artifact must still be byte-identical to a run that
// computed every cell itself.
func TestCrossExperimentCellDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two real experiments twice")
	}
	shared := sharedIndirectBenches(t)
	ctx := context.Background()

	s := gridSuite()
	if _, err := s.Figure7(ctx); err != nil {
		t.Fatal(err)
	}
	after7 := s.Engine().Counters()
	if after7.Deduped != 0 {
		t.Fatalf("fig7 alone deduped %d cells; its plan should be all-unique", after7.Deduped)
	}
	rep, err := s.Table3(ctx)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Engine().Counters()
	heavy := len(workload.IndirectHeavy())
	if got := c.Deduped - after7.Deduped; got != int64(shared) {
		t.Errorf("table3 after fig7 deduped %d cells, want %d (the shared benchmarks)", got, shared)
	}
	if got := c.Executed - after7.Executed; got != int64(heavy-shared) {
		t.Errorf("table3 after fig7 executed %d cells, want %d (only the unshared benchmarks)", got, heavy-shared)
	}

	// The deduped run's artifact matches an isolated suite that executed
	// every table3 cell itself.
	iso := gridSuite()
	isoRep, err := iso.Table3(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Text != isoRep.Text {
		t.Errorf("deduped table3 artifact differs from the isolated run\n--- deduped ---\n%s\n--- isolated ---\n%s",
			rep.Text, isoRep.Text)
	}
	if isoC := iso.Engine().Counters(); isoC.Deduped != 0 {
		t.Errorf("isolated suite deduped %d cells; reference run must compute everything", isoC.Deduped)
	}
}

// TestGridKeysShape pins the static cell enumeration the replay-grid
// benchmark lays out its cells by: keys are classed correctly, and
// experiments whose work is not cell-shaped enumerate nothing.
func TestGridKeysShape(t *testing.T) {
	keys := GridKeys("fig7")
	if len(keys) != len(workload.SPEC()) {
		t.Fatalf("fig7 enumerates %d keys, want one per SPEC benchmark (%d)", len(keys), len(workload.SPEC()))
	}
	for _, k := range keys {
		if k.Class != engine.ClassIndirect || k.ColumnID != "compare-ind-2048" {
			t.Errorf("fig7 key %v, want indirect compare-ind-2048", k)
		}
	}
	// headline plans one conditional and one indirect column on gcc.
	hk := GridKeys("headline")
	if len(hk) != 2 || hk[0].Class != engine.ClassCond || hk[1].Class != engine.ClassIndirect {
		t.Errorf("headline keys %v, want one cond and one indirect column", hk)
	}
	// ablation-speedup reads the Figures 5-8 comparison columns of its
	// four benchmarks, cells those figures already enumerate.
	figs := map[engine.Key]bool{}
	for _, id := range []string{"fig5", "fig6", "fig7", "fig8"} {
		for _, k := range GridKeys(id) {
			figs[k] = true
		}
	}
	sk := GridKeys("ablation-speedup")
	if len(sk) != 2*len(ablationBenches) {
		t.Errorf("ablation-speedup enumerates %d keys, want %d", len(sk), 2*len(ablationBenches))
	}
	for _, k := range sk {
		if !figs[k] {
			t.Errorf("ablation-speedup key %v is not a Figures 5-8 cell", k)
		}
	}
	// Workload summaries and the ideal-predictor analysis are not
	// cell-shaped.
	for _, id := range []string{"table1", "table2", "ablation-pathinfo", "nonesuch"} {
		if got := GridKeys(id); got != nil {
			t.Errorf("GridKeys(%q) = %v, want nil", id, got)
		}
	}
}

// TestColumnCellResolvesGridKeys checks the column table end to end:
// every key an experiment enumerates resolves through ColumnCell to a
// buildable cell carrying the same canonical key, with one entry per
// variant its column declares; every declared column is reached by
// some registry experiment; and unknown column ids fail with an error
// naming them.
func TestColumnCellResolvesGridKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("builds profiled cells for every enumerable experiment")
	}
	s := gridSuite()
	ctx := context.Background()
	resolved := 0
	reached := map[string]bool{}
	for _, e := range Registry() {
		for _, k := range GridKeys(e.ID) {
			reached[k.ColumnID] = true
			cell, err := s.ColumnCell(ctx, k)
			if err != nil {
				t.Fatalf("%s: ColumnCell(%v): %v", e.ID, k, err)
			}
			if cell.Key() != k {
				t.Errorf("%s: resolved cell has key %v, want %v", e.ID, cell.Key(), k)
			}
			if n, want := len(cell.Cond)+len(cell.Indirect), len(columns[k.ColumnID].variants); n != want || n == 0 {
				t.Errorf("%s: resolved cell %v has %d entries, its column declares %d variants", e.ID, k, n, want)
			}
			resolved++
		}
	}
	if resolved == 0 {
		t.Fatal("no experiment enumerated any cells")
	}
	for id := range columns {
		if !reached[id] {
			t.Errorf("column %q is declared but no registry experiment's GridKeys reaches it", id)
		}
	}
	for id, want := range map[string]int{"fig9": 4 * len(CondSizesKB), "fig10": 5 * len(IndSizesBytes)} {
		if n := len(columns[id].variants); n != want {
			t.Errorf("%s declares %d variants, want %d (one per size and predictor)", id, n, want)
		}
	}

	if _, err := s.ColumnCell(ctx, engine.Key{Class: engine.ClassCond, Trace: "gcc", ColumnID: "nonesuch"}); err == nil || !strings.Contains(err.Error(), `unknown conditional column "nonesuch"`) {
		t.Errorf("unknown conditional column error = %v", err)
	}
	if _, err := s.ColumnCell(ctx, engine.Key{Class: engine.ClassIndirect, Trace: "gcc", ColumnID: "nonesuch"}); err == nil || !strings.Contains(err.Error(), `unknown indirect column "nonesuch"`) {
		t.Errorf("unknown indirect column error = %v", err)
	}
}

// TestSkippedBenchmarkDroppedFromGrids: a benchmark skipped at
// ingestion drops out of every grid — the conditional ablations over
// the ablation benchmarks as much as the indirect field — while
// ablation-speedup, which reads all four ablation benchmarks' front
// ends, fails naming it.
func TestSkippedBenchmarkDroppedFromGrids(t *testing.T) {
	s := NewSuite(Config{BaseRecords: 4000})
	s.Skip("perl", "corrupt trace perl.vlpt: test")
	ctx := context.Background()
	for _, run := range []func(*Suite, context.Context) (*Report, error){
		(*Suite).AblationRotation, (*Suite).AblationIndField,
	} {
		rep, err := run(s, ctx)
		if err != nil {
			t.Fatal(err)
		}
		res := rep.Data.(*AblationResult)
		if len(res.Benchmarks) == 0 || index(res.Benchmarks, "perl") >= 0 {
			t.Errorf("%s benchmarks = %v, want every benchmark but perl", rep.ID, res.Benchmarks)
		}
		if strings.Contains(rep.Text, "perl") {
			t.Errorf("%s renders a perl row:\n%s", rep.ID, rep.Text)
		}
	}
	if _, err := s.AblationSpeedup(ctx); err == nil || !strings.Contains(err.Error(), "perl") {
		t.Errorf("ablation-speedup with perl skipped: err = %v, want one naming perl", err)
	}
}
