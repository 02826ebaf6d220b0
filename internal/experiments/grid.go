package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bpred"
	"repro/internal/bpred/agree"
	"repro/internal/bpred/bimodal"
	"repro/internal/bpred/bimode"
	"repro/internal/bpred/dhlf"
	"repro/internal/bpred/gshare"
	"repro/internal/bpred/gskew"
	"repro/internal/bpred/hybrid"
	"repro/internal/bpred/twolevel"
	"repro/internal/bpred/varhist"
	"repro/internal/engine"
	"repro/internal/factory"
	"repro/internal/profile"
	"repro/internal/vlp"
	"repro/internal/workload"
)

// This file is the declarative half of the experiment layer: every
// memoized column the experiments replay is DECLARED here — as a
// variants grid (condGrids / indGrids) or a parameterized builder
// (ColumnCell's switch) — and the experiments only decide which grids
// to run and how to render the results. Declaring columns in one place
// buys two things:
//
//   - ColumnCell can rebuild any column from its canonical engine.Key,
//     which is what lets the sweep service's /v1/jobs workers execute
//     single cells (finer work-stealing than whole experiments);
//   - GridKeys can enumerate an experiment's cells statically, without
//     executing anything, which the distributed coordinator uses to
//     pre-warm shared cells before fanning out experiment jobs.
//
// The invariant carried over from the engine's memoization contract:
// a column id names the column's CONTENT, so the cells built here for
// an id must be identical to the cells any experiment builds for it.

// condGrid declares one conditional variants grid: the variant names
// and the per-(variant, benchmark) predictor constructor. Grids run
// over ablationBenches as one engine cell per benchmark.
type condGrid struct {
	variants []string
	mk       func(s *Suite, v int, bench string) (bpred.CondPredictor, error)
}

// abBudget is the ablation grids' shared hardware budget (16 KB).
const abBudget = 16 * 1024

// condGrids maps a column id to its grid declaration. Every entry runs
// over ablationBenches at abBudget.
var condGrids = map[string]condGrid{
	"ablation-rotation": {
		variants: []string{"VLP (rotated)", "VLP (no rotation)"},
		mk: func(s *Suite, v int, bench string) (bpred.CondPredictor, error) {
			prof, err := s.Profile(bench, false, condK(abBudget))
			if err != nil {
				return nil, err
			}
			return vlp.NewCond(abBudget, prof.Selector(), vlp.Options{NoRotation: v == 1})
		},
	},
	"ablation-returns": {
		variants: []string{"returns excluded", "returns stored"},
		mk: func(s *Suite, v int, bench string) (bpred.CondPredictor, error) {
			prof, err := s.Profile(bench, false, condK(abBudget))
			if err != nil {
				return nil, err
			}
			return vlp.NewCond(abBudget, prof.Selector(), vlp.Options{StoreReturns: v == 1})
		},
	},
	"ablation-subset": {
		variants: []string{"all 32 hash functions", "subset {1,2,4,8,16,32}"},
		mk: func(s *Suite, v int, bench string) (bpred.CondPredictor, error) {
			k := condK(abBudget)
			if v == 0 {
				prof, err := s.Profile(bench, false, k)
				if err != nil {
					return nil, err
				}
				return vlp.NewCond(abBudget, prof.Selector(), vlp.Options{})
			}
			prof, err := s.profileFor(bench, false, profile.Config{TableBits: k, Lengths: []int{1, 2, 4, 8, 16, 32}})
			if err != nil {
				return nil, err
			}
			return vlp.NewCond(abBudget, prof.Selector(), vlp.Options{})
		},
	},
	"ablation-heuristic": {
		variants: []string{"1 cand / 1 iter", "3 cand / 3 iter", "3 cand / 7 iter", "5 cand / 7 iter"},
		mk: func(s *Suite, v int, bench string) (bpred.CondPredictor, error) {
			settings := [...]struct{ cands, iters int }{{1, 1}, {3, 3}, {3, 7}, {5, 7}}
			prof, err := s.profileFor(bench, false, profile.Config{
				TableBits: condK(abBudget), Candidates: settings[v].cands, Iterations: settings[v].iters,
			})
			if err != nil {
				return nil, err
			}
			return vlp.NewCond(abBudget, prof.Selector(), vlp.Options{})
		},
	},
	"ablation-dynsel": {
		variants: []string{"fixed length path", "dynamic selection (hw)", "variable length path (profiled)"},
		mk: func(s *Suite, v int, bench string) (bpred.CondPredictor, error) {
			k := condK(abBudget)
			switch v {
			case 0:
				fixedLen, err := s.suiteFixedLength(false, k)
				if err != nil {
					return nil, err
				}
				return vlp.NewCond(abBudget, vlp.Fixed{L: fixedLen}, vlp.Options{})
			case 1:
				return vlp.NewDynCond(abBudget, nil, 12, 4)
			default:
				prof, err := s.Profile(bench, false, k)
				if err != nil {
					return nil, err
				}
				return vlp.NewCond(abBudget, prof.Selector(), vlp.Options{})
			}
		},
	},
	"ablation-histstack": {
		variants: []string{"flat history", "stack (restore)", "stack (combine 2)"},
		mk: func(s *Suite, v int, bench string) (bpred.CondPredictor, error) {
			prof, err := s.Profile(bench, false, condK(abBudget))
			if err != nil {
				return nil, err
			}
			opts := vlp.Options{HistoryStack: v >= 1}
			if v == 2 {
				opts.HistoryCombine = 2
			}
			return vlp.NewCond(abBudget, prof.Selector(), opts)
		},
	},
	"ablation-competitors": {
		variants: []string{"bimodal", "GAs", "PAs", "gshare", "agree", "bi-mode", "gskew", "hybrid", "FLP(tuned)", "VLP"},
		mk: func(s *Suite, v int, bench string) (bpred.CondPredictor, error) {
			k := condK(abBudget)
			switch v {
			case 0:
				return bimodal.New(abBudget)
			case 1:
				return twolevel.NewGAsBudget(abBudget, 12)
			case 2:
				return twolevel.NewPAs(k, 10, 8)
			case 3:
				return gshare.New(abBudget)
			case 4:
				return agree.New(abBudget, 12)
			case 5:
				return bimode.New(abBudget)
			case 6:
				return gskew.New(abBudget)
			case 7:
				g, err := gshare.New(abBudget / 2)
				if err != nil {
					return nil, err
				}
				b, err := bimodal.New(abBudget / 4)
				if err != nil {
					return nil, err
				}
				return hybrid.New(g, b, 13), nil // 2^13 chooser counters = 2KB
			case 8:
				l, err := s.TunedFixedLength(bench, false, k)
				if err != nil {
					return nil, err
				}
				return vlp.NewCond(abBudget, vlp.Fixed{L: l}, vlp.Options{})
			default:
				prof, err := s.Profile(bench, false, k)
				if err != nil {
					return nil, err
				}
				return vlp.NewCond(abBudget, prof.Selector(), vlp.Options{})
			}
		},
	},
	"ablation-adaptivity": {
		variants: []string{"gshare", "DHLF [12]", "elastic pattern [21]", "FLP", "VLP"},
		mk: func(s *Suite, v int, bench string) (bpred.CondPredictor, error) {
			k := condK(abBudget)
			switch v {
			case 0:
				return gshare.New(abBudget)
			case 1:
				return dhlf.New(abBudget, 0)
			case 2:
				prof, err := s.patternProfile(bench, k)
				if err != nil {
					return nil, err
				}
				return varhist.New(abBudget, prof.Selector())
			case 3:
				fixedLen, err := s.suiteFixedLength(false, k)
				if err != nil {
					return nil, err
				}
				return vlp.NewCond(abBudget, vlp.Fixed{L: fixedLen}, vlp.Options{})
			default:
				prof, err := s.Profile(bench, false, k)
				if err != nil {
					return nil, err
				}
				return vlp.NewCond(abBudget, prof.Selector(), vlp.Options{})
			}
		},
	},
	"ablation-isabits": {
		variants: []string{"full number (5 bits)", "bucket hint + hw refine (2 bits)", "hardware only (0 bits)"},
		mk: func(s *Suite, v int, bench string) (bpred.CondPredictor, error) {
			k := condK(abBudget)
			switch v {
			case 0:
				prof, err := s.Profile(bench, false, k)
				if err != nil {
					return nil, err
				}
				return vlp.NewCond(abBudget, prof.Selector(), vlp.Options{})
			case 1:
				prof, err := s.Profile(bench, false, k)
				if err != nil {
					return nil, err
				}
				return vlp.NewCoarseCond(abBudget, nil, prof.Lengths, prof.Default, 12)
			default:
				return vlp.NewDynCond(abBudget, nil, 12, 4)
			}
		},
	},
}

// indGrid is condGrid for indirect columns; grids run over the
// indirect-heavy benchmarks.
type indGrid struct {
	variants []string
	budget   int
	mk       func(s *Suite, v int, bench string) (bpred.IndirectPredictor, error)
}

var indGrids = map[string]indGrid{
	"ablation-indfield": {
		variants: []string{"btb", "pattern", "path", "path-peraddr", "cascaded", "FLP", "VLP"},
		budget:   2048,
		mk: func(s *Suite, v int, bench string) (bpred.IndirectPredictor, error) {
			const budget = 2048
			names := []string{"btb", "pattern", "path", "path-peraddr", "cascaded", "FLP", "VLP"}
			k := indK(budget)
			spec := factory.Spec{Name: names[v], BudgetBytes: budget}
			switch names[v] {
			case "FLP":
				fixedLen, err := s.suiteFixedLength(true, k)
				if err != nil {
					return nil, err
				}
				spec = factory.Spec{Name: "flp", BudgetBytes: budget, FixedLength: fixedLen}
			case "VLP":
				prof, err := s.Profile(bench, true, k)
				if err != nil {
					return nil, err
				}
				spec = factory.Spec{Name: "vlp", BudgetBytes: budget, Profile: prof}
			}
			return spec.Indirect()
		},
	},
}

// condGridCells builds the column for one (grid, benchmark) pair.
func condGridCells(s *Suite, id, bench string) []engine.CondCell {
	g := condGrids[id]
	return condVariantCells(bench, len(g.variants),
		func(v int, bench string) (bpred.CondPredictor, error) { return g.mk(s, v, bench) })
}

// indGridCells is condGridCells for indirect grids.
func indGridCells(s *Suite, id, bench string) []engine.IndirectCell {
	g := indGrids[id]
	cells := make([]engine.IndirectCell, len(g.variants))
	for v := range cells {
		v := v
		cells[v] = func() (bpred.IndirectPredictor, error) { return g.mk(s, v, bench) }
	}
	return cells
}

// runCondGrid executes a declared conditional grid as a plan — one
// engine cell per ablation benchmark — and tabulates the rates.
func (s *Suite) runCondGrid(ctx context.Context, id string) (*AblationResult, error) {
	g, ok := condGrids[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown grid %q", id)
	}
	return s.runCondVariants(ctx, id, ablationBenches, g.variants,
		func(v int, bench string) (bpred.CondPredictor, error) { return g.mk(s, v, bench) })
}

// runIndGrid executes a declared indirect grid as a plan over the
// indirect-heavy benchmarks (minus any the suite skipped).
func (s *Suite) runIndGrid(ctx context.Context, id string) (*AblationResult, error) {
	g, ok := indGrids[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown grid %q", id)
	}
	heavy, err := s.benches(workload.IndirectHeavy())
	if err != nil {
		return nil, err
	}
	res := &AblationResult{
		Benchmarks: names(heavy),
		Variants:   g.variants,
		Rates:      newRates(len(g.variants), len(heavy)),
	}
	plan := engine.NewPlan()
	for _, b := range heavy {
		plan.Indirect(b.Name(), id, indGridCells(s, id, b.Name()))
	}
	cols, err := s.eng.Execute(ctx, plan)
	if err != nil {
		return nil, err
	}
	for b := range heavy {
		for v := range g.variants {
			res.Rates[v][b] = cols[b][v]
		}
	}
	return res, nil
}

// compareBudget parses the budget out of a parameterized comparison
// column id ("compare-cond-16384" → 16384).
func compareBudget(id, prefix string) (int, bool) {
	if !strings.HasPrefix(id, prefix) {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimPrefix(id, prefix))
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// ColumnCell rebuilds the engine cell for a canonical key: the
// server-side half of cell jobs. Any column id an experiment memoizes —
// a variants grid, a parameterized comparison, a figure sweep — resolves
// here to cells identical to the ones the experiment itself would
// build, so a cell executed for a remote job and the same cell executed
// locally share one replay and one result.
func (s *Suite) ColumnCell(ctx context.Context, key engine.Key) (engine.Cell, error) {
	id := key.ColumnID
	if key.Class == engine.ClassCond {
		if _, ok := condGrids[id]; ok {
			return engine.Cell{Trace: key.Trace, ColumnID: id, Cond: condGridCells(s, id, key.Trace)}, nil
		}
		if budget, ok := compareBudget(id, "compare-cond-"); ok {
			k := condK(budget)
			fixedLen, err := s.suiteFixedLength(false, k)
			if err != nil {
				return engine.Cell{}, err
			}
			return engine.Cell{Trace: key.Trace, ColumnID: id,
				Cond: s.condCompareCells(key.Trace, budget, fixedLen, k)}, nil
		}
		switch id {
		case "headline-cond":
			return engine.Cell{Trace: key.Trace, ColumnID: id, Cond: s.headlineCondCells()}, nil
		case "fig9":
			cells, err := s.figure9Cells(ctx)
			if err != nil {
				return engine.Cell{}, err
			}
			return engine.Cell{Trace: key.Trace, ColumnID: id, Cond: cells}, nil
		}
		return engine.Cell{}, fmt.Errorf("experiments: unknown conditional column %q", id)
	}
	if _, ok := indGrids[id]; ok {
		return engine.Cell{Trace: key.Trace, ColumnID: id, Indirect: indGridCells(s, id, key.Trace)}, nil
	}
	if budget, ok := compareBudget(id, "compare-ind-"); ok {
		k := indK(budget)
		fixedLen, err := s.suiteFixedLength(true, k)
		if err != nil {
			return engine.Cell{}, err
		}
		return engine.Cell{Trace: key.Trace, ColumnID: id,
			Indirect: s.indCompareCells(key.Trace, budget, fixedLen, k)}, nil
	}
	switch id {
	case "headline-ind":
		return engine.Cell{Trace: key.Trace, ColumnID: id, Indirect: s.headlineIndCells()}, nil
	case "fig10":
		cells, err := s.figure10Cells(ctx)
		if err != nil {
			return engine.Cell{}, err
		}
		return engine.Cell{Trace: key.Trace, ColumnID: id, Indirect: cells}, nil
	}
	return engine.Cell{}, fmt.Errorf("experiments: unknown indirect column %q", id)
}

// GridKeys enumerates the engine cells an experiment's plan will
// contain, without executing anything — benchmarks come from the static
// workload lists, so no suite (and no trace generation) is needed. The
// distributed coordinator uses it to pre-warm cells shared between
// experiments; experiments whose work is not cell-shaped (workload
// summaries, pipeline models, instrumented predictors) return nil.
func GridKeys(expID string) []engine.Key {
	condOver := func(id string, benchNames []string) []engine.Key {
		out := make([]engine.Key, len(benchNames))
		for i, b := range benchNames {
			out[i] = engine.Key{Class: engine.ClassCond, Trace: b, ColumnID: id}
		}
		return out
	}
	indOver := func(id string, benchNames []string) []engine.Key {
		out := make([]engine.Key, len(benchNames))
		for i, b := range benchNames {
			out[i] = engine.Key{Class: engine.ClassIndirect, Trace: b, ColumnID: id}
		}
		return out
	}
	switch expID {
	case "fig5":
		return condOver("compare-cond-16384", names(workload.SPEC()))
	case "fig6":
		return condOver("compare-cond-16384", names(workload.NonSPEC()))
	case "fig7":
		return indOver("compare-ind-2048", names(workload.SPEC()))
	case "fig8":
		return indOver("compare-ind-2048", names(workload.NonSPEC()))
	case "table3":
		return indOver("compare-ind-2048", names(workload.IndirectHeavy()))
	case "fig9":
		return condOver("fig9", []string{"gcc"})
	case "fig10":
		return indOver("fig10", []string{"gcc"})
	case "headline":
		return append(condOver("headline-cond", []string{"gcc"}),
			indOver("headline-ind", []string{"gcc"})...)
	}
	if _, ok := condGrids[expID]; ok {
		return condOver(expID, ablationBenches)
	}
	if _, ok := indGrids[expID]; ok {
		return indOver(expID, names(workload.IndirectHeavy()))
	}
	return nil
}
