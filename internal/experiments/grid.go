package experiments

import (
	"context"
	"fmt"

	"repro/internal/bpred"
	"repro/internal/bpred/agree"
	"repro/internal/bpred/bimodal"
	"repro/internal/bpred/bimode"
	"repro/internal/bpred/dhlf"
	"repro/internal/bpred/gshare"
	"repro/internal/bpred/gskew"
	"repro/internal/bpred/hybrid"
	"repro/internal/bpred/targetcache"
	"repro/internal/bpred/twolevel"
	"repro/internal/bpred/varhist"
	"repro/internal/engine"
	"repro/internal/engine/pool"
	"repro/internal/factory"
	"repro/internal/profile"
	"repro/internal/vlp"
	"repro/internal/workload"
)

// This file is the experiment layer's one column table. Every memoized
// column the experiments replay is declared once, in columns: its
// class, its variant names in cell order, and one builder from a
// benchmark to the engine cell. experimentColumns declares which
// columns each experiment replays over which benchmarks. Three readers
// share the two tables:
//
//   - GridKeys enumerates an experiment's cells without executing
//     anything, which is how perfbench lays out its cells;
//   - ColumnCell rebuilds any column from its canonical engine.Key;
//   - runColumns, the experiments' one run helper, takes an
//     experiment's keys from GridKeys, builds each cell with ColumnCell
//     and executes them all as one plan.
//
// So the cells an experiment runs are by construction the cells any
// other caller rebuilds for the same key, which is the engine's
// memoization contract: a column id names the column's content.
// TestColumnCellResolvesGridKeys and TestGridDigests pin it.

// column declares one memoized column.
type column struct {
	class engine.Class
	// variants names the column's predictors in cell order.
	variants []string
	// build returns the column's cell on one benchmark; ColumnCell
	// sets its key. Builders leave the profiling a predictor needs to
	// its constructor where they can, so it runs inside the engine's
	// pool rather than while the plan is built.
	build func(ctx context.Context, s *Suite, bench string) (engine.Cell, error)
}

// abBudget is the ablation grids' shared hardware budget (16 KB).
const abBudget = 16 * 1024

// The Chang-Hao-Patt target caches' variant names.
const (
	pathCacheName    = "path (Chang, Hao, and Patt)"
	patternCacheName = "pattern (Chang, Hao, and Patt)"
)

// fig9Predictors and fig10Predictors are the predictors at each size of
// Figures 9 and 10. Their columns lay the (size, predictor) grid out
// size-major.
var (
	fig9Predictors  = []string{"gshare", "fixed length path", "fixed length path (tuned)", "variable length path"}
	fig10Predictors = []string{pathCacheName, patternCacheName,
		"fixed length path", "fixed length path (tuned)", "variable length path"}
	condSweepBytes = kbToBytes(CondSizesKB)
)

// columns maps each column id to its declaration.
var columns = map[string]column{
	"compare-cond-16384": {
		class:    engine.ClassCond,
		variants: []string{"gshare", "fixed length path", "variable length path"},
		build: func(_ context.Context, s *Suite, bench string) (engine.Cell, error) {
			const budget = 16 * 1024
			l, err := s.suiteFixedLength(false, condK(budget))
			if err != nil {
				return engine.Cell{}, err
			}
			return engine.Cell{Cond: []engine.CondCell{gshareCell(budget), pathCond(budget, vlp.Fixed{L: l}),
				s.profiledCond(bench, budget, profile.Config{}, vlp.Options{})}}, nil
		},
	},
	"compare-ind-2048": {
		class:    engine.ClassIndirect,
		variants: []string{pathCacheName, patternCacheName, "fixed length path", "variable length path"},
		build: func(_ context.Context, s *Suite, bench string) (engine.Cell, error) {
			const budget = 2048
			l, err := s.suiteFixedLength(true, indK(budget))
			if err != nil {
				return engine.Cell{}, err
			}
			return engine.Cell{Indirect: []engine.IndirectCell{pathCache(budget), patternCache(budget),
				pathInd(budget, vlp.Fixed{L: l}), s.profiledInd(bench, budget)}}, nil
		},
	},
	"fig9": {
		class:    engine.ClassCond,
		variants: sweepVariants(fig9Predictors, condSweepBytes),
		build: func(ctx context.Context, s *Suite, bench string) (engine.Cell, error) {
			sizes, err := s.sweepSizes(ctx, bench, false, condSweepBytes)
			if err != nil {
				return engine.Cell{}, err
			}
			var c engine.Cell
			for _, z := range sizes {
				c.Cond = append(c.Cond, gshareCell(z.budget), pathCond(z.budget, vlp.Fixed{L: z.suiteLen}),
					pathCond(z.budget, vlp.Fixed{L: z.tunedLen}), pathCond(z.budget, z.sel))
			}
			return c, nil
		},
	},
	"fig10": {
		class:    engine.ClassIndirect,
		variants: sweepVariants(fig10Predictors, IndSizesBytes),
		build: func(ctx context.Context, s *Suite, bench string) (engine.Cell, error) {
			sizes, err := s.sweepSizes(ctx, bench, true, IndSizesBytes)
			if err != nil {
				return engine.Cell{}, err
			}
			var c engine.Cell
			for _, z := range sizes {
				c.Indirect = append(c.Indirect, pathCache(z.budget), patternCache(z.budget),
					pathInd(z.budget, vlp.Fixed{L: z.suiteLen}), pathInd(z.budget, vlp.Fixed{L: z.tunedLen}),
					pathInd(z.budget, z.sel))
			}
			return c, nil
		},
	},
	"headline-cond": {
		class:    engine.ClassCond,
		variants: []string{"gshare", "variable length path"},
		build: func(_ context.Context, s *Suite, bench string) (engine.Cell, error) {
			const budget = 4 * 1024
			return engine.Cell{Cond: []engine.CondCell{gshareCell(budget),
				s.profiledCond(bench, budget, profile.Config{}, vlp.Options{})}}, nil
		},
	},
	"headline-ind": {
		class:    engine.ClassIndirect,
		variants: []string{pathCacheName, patternCacheName, "variable length path"},
		build: func(_ context.Context, s *Suite, bench string) (engine.Cell, error) {
			const budget = 512
			return engine.Cell{Indirect: []engine.IndirectCell{pathCache(budget), patternCache(budget),
				s.profiledInd(bench, budget)}}, nil
		},
	},
	"ablation-rotation": {
		class:    engine.ClassCond,
		variants: []string{"VLP (rotated)", "VLP (no rotation)"},
		build: func(_ context.Context, s *Suite, bench string) (engine.Cell, error) {
			return engine.Cell{Cond: []engine.CondCell{
				s.profiledCond(bench, abBudget, profile.Config{}, vlp.Options{}),
				s.profiledCond(bench, abBudget, profile.Config{}, vlp.Options{NoRotation: true}),
			}}, nil
		},
	},
	"ablation-returns": {
		class:    engine.ClassCond,
		variants: []string{"returns excluded", "returns stored"},
		build: func(_ context.Context, s *Suite, bench string) (engine.Cell, error) {
			return engine.Cell{Cond: []engine.CondCell{
				s.profiledCond(bench, abBudget, profile.Config{}, vlp.Options{}),
				s.profiledCond(bench, abBudget, profile.Config{}, vlp.Options{StoreReturns: true}),
			}}, nil
		},
	},
	"ablation-subset": {
		class:    engine.ClassCond,
		variants: []string{"all 32 hash functions", "subset {1,2,4,8,16,32}"},
		build: func(_ context.Context, s *Suite, bench string) (engine.Cell, error) {
			return engine.Cell{Cond: []engine.CondCell{
				s.profiledCond(bench, abBudget, profile.Config{}, vlp.Options{}),
				s.profiledCond(bench, abBudget, profile.Config{Lengths: []int{1, 2, 4, 8, 16, 32}}, vlp.Options{}),
			}}, nil
		},
	},
	"ablation-heuristic": {
		class:    engine.ClassCond,
		variants: []string{"1 cand / 1 iter", "3 cand / 3 iter", "3 cand / 7 iter", "5 cand / 7 iter"},
		build: func(_ context.Context, s *Suite, bench string) (engine.Cell, error) {
			var c engine.Cell
			for _, h := range [...]struct{ cands, iters int }{{1, 1}, {3, 3}, {3, 7}, {5, 7}} {
				c.Cond = append(c.Cond, s.profiledCond(bench, abBudget,
					profile.Config{Candidates: h.cands, Iterations: h.iters}, vlp.Options{}))
			}
			return c, nil
		},
	},
	"ablation-dynsel": {
		class:    engine.ClassCond,
		variants: []string{"fixed length path", "dynamic selection (hw)", "variable length path (profiled)"},
		build: func(_ context.Context, s *Suite, bench string) (engine.Cell, error) {
			return engine.Cell{Cond: []engine.CondCell{s.suiteFixedCond(abBudget), dynCond(abBudget),
				s.profiledCond(bench, abBudget, profile.Config{}, vlp.Options{})}}, nil
		},
	},
	"ablation-histstack": {
		class:    engine.ClassCond,
		variants: []string{"flat history", "stack (restore)", "stack (combine 2)"},
		build: func(_ context.Context, s *Suite, bench string) (engine.Cell, error) {
			var c engine.Cell
			for _, opts := range []vlp.Options{{}, {HistoryStack: true}, {HistoryStack: true, HistoryCombine: 2}} {
				c.Cond = append(c.Cond, s.profiledCond(bench, abBudget, profile.Config{}, opts))
			}
			return c, nil
		},
	},
	"ablation-competitors": {
		class:    engine.ClassCond,
		variants: []string{"bimodal", "GAs", "PAs", "gshare", "agree", "bi-mode", "gskew", "hybrid", "FLP(tuned)", "VLP"},
		build: func(_ context.Context, s *Suite, bench string) (engine.Cell, error) {
			return engine.Cell{Cond: []engine.CondCell{
				func() (bpred.CondPredictor, error) { return bimodal.New(abBudget) },
				func() (bpred.CondPredictor, error) { return twolevel.NewGAsBudget(abBudget, 12) },
				func() (bpred.CondPredictor, error) { return twolevel.NewPAs(condK(abBudget), 10, 8) },
				gshareCell(abBudget),
				func() (bpred.CondPredictor, error) { return agree.New(abBudget, 12) },
				func() (bpred.CondPredictor, error) { return bimode.New(abBudget) },
				func() (bpred.CondPredictor, error) { return gskew.New(abBudget) },
				func() (bpred.CondPredictor, error) {
					g, err := gshare.New(abBudget / 2)
					if err != nil {
						return nil, err
					}
					b, err := bimodal.New(abBudget / 4)
					if err != nil {
						return nil, err
					}
					return hybrid.New(g, b, 13), nil // 2^13 chooser counters = 2KB
				},
				func() (bpred.CondPredictor, error) {
					l, err := s.TunedFixedLength(bench, false, condK(abBudget))
					if err != nil {
						return nil, err
					}
					return vlp.NewCond(abBudget, vlp.Fixed{L: l}, vlp.Options{})
				},
				s.profiledCond(bench, abBudget, profile.Config{}, vlp.Options{}),
			}}, nil
		},
	},
	"ablation-adaptivity": {
		class:    engine.ClassCond,
		variants: []string{"gshare", "DHLF [12]", "elastic pattern [21]", "FLP", "VLP"},
		build: func(_ context.Context, s *Suite, bench string) (engine.Cell, error) {
			return engine.Cell{Cond: []engine.CondCell{
				gshareCell(abBudget),
				func() (bpred.CondPredictor, error) { return dhlf.New(abBudget, 0) },
				func() (bpred.CondPredictor, error) {
					prof, err := s.patternProfile(bench, condK(abBudget))
					if err != nil {
						return nil, err
					}
					return varhist.New(abBudget, prof.Selector())
				},
				s.suiteFixedCond(abBudget),
				s.profiledCond(bench, abBudget, profile.Config{}, vlp.Options{}),
			}}, nil
		},
	},
	"ablation-isabits": {
		class:    engine.ClassCond,
		variants: []string{"full number (5 bits)", "bucket hint + hw refine (2 bits)", "hardware only (0 bits)"},
		build: func(_ context.Context, s *Suite, bench string) (engine.Cell, error) {
			return engine.Cell{Cond: []engine.CondCell{
				s.profiledCond(bench, abBudget, profile.Config{}, vlp.Options{}),
				func() (bpred.CondPredictor, error) {
					prof, err := s.Profile(bench, false, condK(abBudget))
					if err != nil {
						return nil, err
					}
					return vlp.NewCoarseCond(abBudget, nil, prof.Lengths, prof.Default, 12)
				},
				dynCond(abBudget),
			}}, nil
		},
	},
	"ablation-indfield": {
		class:    engine.ClassIndirect,
		variants: []string{"btb", "pattern", "path", "path-peraddr", "cascaded", "FLP", "VLP"},
		build: func(_ context.Context, s *Suite, bench string) (engine.Cell, error) {
			const budget = 2048
			var c engine.Cell
			for _, name := range []string{"btb", "pattern", "path", "path-peraddr", "cascaded"} {
				c.Indirect = append(c.Indirect, factory.Spec{Name: name, BudgetBytes: budget}.Indirect)
			}
			c.Indirect = append(c.Indirect,
				func() (bpred.IndirectPredictor, error) {
					l, err := s.suiteFixedLength(true, indK(budget))
					if err != nil {
						return nil, err
					}
					return factory.Spec{Name: "flp", BudgetBytes: budget, FixedLength: l}.Indirect()
				},
				func() (bpred.IndirectPredictor, error) {
					prof, err := s.Profile(bench, true, indK(budget))
					if err != nil {
						return nil, err
					}
					return factory.Spec{Name: "vlp", BudgetBytes: budget, Profile: prof}.Indirect()
				})
			return c, nil
		},
	},
}

// use is one column an experiment replays, over a list of benchmarks.
type use struct {
	column  string
	benches []string
}

var (
	specNames    = names(workload.SPEC())
	nonSPECNames = names(workload.NonSPEC())
	heavyNames   = names(workload.IndirectHeavy())
	gccOnly      = []string{"gcc"}
)

// experimentColumns maps each cell-shaped experiment to the columns it
// replays, in plan order. Experiments whose work is not cell-shaped
// (workload summaries, the ideal-predictor analysis, instrumented
// predictors) have no entry.
var experimentColumns = map[string][]use{
	"fig5":                 {{"compare-cond-16384", specNames}},
	"fig6":                 {{"compare-cond-16384", nonSPECNames}},
	"fig7":                 {{"compare-ind-2048", specNames}},
	"fig8":                 {{"compare-ind-2048", nonSPECNames}},
	"table3":               {{"compare-ind-2048", heavyNames}},
	"fig9":                 {{"fig9", gccOnly}},
	"fig10":                {{"fig10", gccOnly}},
	"headline":             {{"headline-cond", gccOnly}, {"headline-ind", gccOnly}},
	"ablation-speedup":     {{"compare-cond-16384", ablationBenches}, {"compare-ind-2048", ablationBenches}},
	"ablation-rotation":    {{"ablation-rotation", ablationBenches}},
	"ablation-returns":     {{"ablation-returns", ablationBenches}},
	"ablation-subset":      {{"ablation-subset", ablationBenches}},
	"ablation-heuristic":   {{"ablation-heuristic", ablationBenches}},
	"ablation-dynsel":      {{"ablation-dynsel", ablationBenches}},
	"ablation-histstack":   {{"ablation-histstack", ablationBenches}},
	"ablation-competitors": {{"ablation-competitors", ablationBenches}},
	"ablation-adaptivity":  {{"ablation-adaptivity", ablationBenches}},
	"ablation-isabits":     {{"ablation-isabits", ablationBenches}},
	"ablation-indfield":    {{"ablation-indfield", heavyNames}},
}

// GridKeys enumerates the engine cells an experiment's plan will
// contain, without executing anything — benchmarks come from the static
// workload lists, so no suite (and no trace generation) is needed.
// Experiments whose work is not cell-shaped return nil.
func GridKeys(expID string) []engine.Key {
	var keys []engine.Key
	for _, u := range experimentColumns[expID] {
		for _, b := range u.benches {
			keys = append(keys, engine.Key{Class: columns[u.column].class, Trace: b, ColumnID: u.column})
		}
	}
	return keys
}

// ColumnCell builds the engine cell for a canonical key from its
// column's declaration, so a cell executed on its own and the same cell
// executed by its experiment share one replay and one result.
func (s *Suite) ColumnCell(ctx context.Context, key engine.Key) (engine.Cell, error) {
	col, ok := columns[key.ColumnID]
	if !ok || col.class != key.Class {
		kind := "indirect"
		if key.Class == engine.ClassCond {
			kind = "conditional"
		}
		return engine.Cell{}, fmt.Errorf("experiments: unknown %s column %q", kind, key.ColumnID)
	}
	c, err := col.build(ctx, s, key.Trace)
	if err != nil {
		return engine.Cell{}, err
	}
	c.Trace, c.ColumnID = key.Trace, key.ColumnID
	return c, nil
}

// runColumns executes an experiment's cells (GridKeys), minus those on
// benchmarks skipped at ingestion, as one plan. It returns one result
// per column the experiment declares, in order: Rates[v][b] is variant
// v's misprediction percentage on Benchmarks[b].
func (s *Suite) runColumns(ctx context.Context, expID string) ([]*AblationResult, error) {
	var res []*AblationResult
	var last string
	plan := engine.NewPlan()
	for _, k := range GridKeys(expID) {
		if k.ColumnID != last {
			res = append(res, &AblationResult{Variants: columns[k.ColumnID].variants})
			last = k.ColumnID
		}
		if _, skip := s.skipReason(k.Trace); skip {
			continue
		}
		c, err := s.ColumnCell(ctx, k)
		if err != nil {
			return nil, err
		}
		plan.Add(c)
		r := res[len(res)-1]
		r.Benchmarks = append(r.Benchmarks, k.Trace)
	}
	for _, r := range res {
		if len(r.Benchmarks) == 0 {
			return nil, fmt.Errorf("experiments: every benchmark of %s was skipped", expID)
		}
	}
	cols, err := s.eng.Execute(ctx, plan)
	if err != nil {
		return nil, err
	}
	for _, r := range res {
		r.Rates = newRates(len(r.Variants), len(r.Benchmarks))
		for b := range r.Benchmarks {
			for v := range r.Variants {
				r.Rates[v][b] = cols[0][v]
			}
			cols = cols[1:]
		}
	}
	return res, nil
}

// gshareCell is a gshare predictor at budget.
func gshareCell(budget int) engine.CondCell {
	return func() (bpred.CondPredictor, error) { return gshare.New(budget) }
}

// dynCond is the §3.4 hardware-selected path predictor at budget.
func dynCond(budget int) engine.CondCell {
	return func() (bpred.CondPredictor, error) { return vlp.NewDynCond(budget, nil, 12, 4) }
}

// pathCond is the conditional path predictor at budget under sel.
func pathCond(budget int, sel vlp.Selector) engine.CondCell {
	return func() (bpred.CondPredictor, error) { return vlp.NewCond(budget, sel, vlp.Options{}) }
}

// pathInd is pathCond for indirect branches.
func pathInd(budget int, sel vlp.Selector) engine.IndirectCell {
	return func() (bpred.IndirectPredictor, error) { return vlp.NewIndirect(budget, sel, vlp.Options{}) }
}

// pathCache and patternCache are the Chang-Hao-Patt target caches at
// budget.
func pathCache(budget int) engine.IndirectCell {
	return func() (bpred.IndirectPredictor, error) { return targetcache.NewPathBudget(budget) }
}

func patternCache(budget int) engine.IndirectCell {
	return func() (bpred.IndirectPredictor, error) { return targetcache.NewPatternBudget(budget) }
}

// profiledCond is the variable length path predictor on bench's
// two-step profile under cfg, its index width set by budget. The
// profile is fetched when the predictor is built; it is memoized per
// configuration.
func (s *Suite) profiledCond(bench string, budget int, cfg profile.Config, opts vlp.Options) engine.CondCell {
	cfg.TableBits = condK(budget)
	return func() (bpred.CondPredictor, error) {
		prof, err := s.profileFor(bench, false, cfg)
		if err != nil {
			return nil, err
		}
		return vlp.NewCond(budget, prof.Selector(), opts)
	}
}

// profiledInd is profiledCond for indirect branches, on the default
// profile configuration.
func (s *Suite) profiledInd(bench string, budget int) engine.IndirectCell {
	return func() (bpred.IndirectPredictor, error) {
		prof, err := s.Profile(bench, true, indK(budget))
		if err != nil {
			return nil, err
		}
		return vlp.NewIndirect(budget, prof.Selector(), vlp.Options{})
	}
}

// suiteFixedCond is the conditional path predictor at the suite-wide
// tuned length, resolved when the predictor is built.
func (s *Suite) suiteFixedCond(budget int) engine.CondCell {
	return func() (bpred.CondPredictor, error) {
		l, err := s.suiteFixedLength(false, condK(budget))
		if err != nil {
			return nil, err
		}
		return vlp.NewCond(budget, vlp.Fixed{L: l}, vlp.Options{})
	}
}

// sweepSize is one size of a Figure 9/10 sweep with the artifacts its
// cells need: the suite-wide and the per-benchmark tuned fixed lengths,
// and the benchmark's profiled selector.
type sweepSize struct {
	budget, suiteLen, tunedLen int
	sel                        vlp.Selector
}

// sweepSizes warms the per-size artifacts of bench's size sweep in
// parallel, so its fused column is laid out without further profiling.
func (s *Suite) sweepSizes(ctx context.Context, bench string, indirect bool, budgets []int) ([]sweepSize, error) {
	all, err := s.benches(workload.All())
	if err != nil {
		return nil, err
	}
	out := make([]sweepSize, len(budgets))
	err = pool.ForEach(ctx, len(budgets), func(i int) error {
		z := &out[i]
		z.budget = budgets[i]
		k := condK(z.budget)
		if indirect {
			k = indK(z.budget)
		}
		var err error
		if z.suiteLen, err = s.SuiteFixedLength(all, indirect, k); err != nil {
			return err
		}
		if z.tunedLen, err = s.TunedFixedLength(bench, indirect, k); err != nil {
			return err
		}
		prof, err := s.Profile(bench, indirect, k)
		if err != nil {
			return err
		}
		z.sel = prof.Selector()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sweepVariants names a size sweep's variants, size-major.
func sweepVariants(predictors []string, sizes []int) []string {
	var out []string
	for _, label := range kbLabels(sizes) {
		for _, p := range predictors {
			out = append(out, p+" @ "+label)
		}
	}
	return out
}

func kbToBytes(kbs []int) []int {
	out := make([]int, len(kbs))
	for i, kb := range kbs {
		out[i] = kb * 1024
	}
	return out
}
