package experiments

import (
	"context"
	"fmt"

	"repro/internal/bpred"
	"repro/internal/engine"
	"repro/internal/engine/pool"
	"repro/internal/tablefmt"
	"repro/internal/vlp"
)

// ablationBenches is the subset used for ablation studies: a compiler-like
// benchmark, an interpreter, a noisy search program, and a call-heavy
// formatter — the corners of the suite's behaviour space.
var ablationBenches = []string{"gcc", "perl", "go", "groff"}

// AblationResult is a generic benchmarks-by-variants percentage table.
type AblationResult struct {
	Benchmarks []string
	Variants   []string
	// Rates[v][b] is variant v's misprediction percentage on benchmark b.
	Rates [][]float64
}

func (r *AblationResult) table() string {
	tb := tablefmt.New(append([]string{"Benchmark"}, r.Variants...)...)
	for bi, b := range r.Benchmarks {
		cells := []interface{}{b}
		for vi := range r.Variants {
			cells = append(cells, fmt.Sprintf("%.2f%%", r.Rates[vi][bi]))
		}
		tb.Row(cells...)
	}
	return tb.String()
}

// condVariantCells builds the per-benchmark column of a variants grid:
// one cell per variant, each deferring to the shared constructor.
func condVariantCells(bench string, n int,
	mk func(variant int, bench string) (bpred.CondPredictor, error)) []engine.CondCell {
	cells := make([]engine.CondCell, n)
	for v := range cells {
		v := v
		cells[v] = func() (bpred.CondPredictor, error) { return mk(v, bench) }
	}
	return cells
}

// runCondVariants measures conditional misprediction for one predictor
// constructor per variant, across the ablation benchmarks, as a
// declarative plan: one engine cell per benchmark (all variants fused
// into one trace pass), scheduled by the engine's pool. The id names
// the variant set for the engine's cell memoization.
func (s *Suite) runCondVariants(ctx context.Context, id string, benchNames []string, variants []string,
	mk func(variant int, bench string) (bpred.CondPredictor, error)) (*AblationResult, error) {
	res := &AblationResult{
		Benchmarks: benchNames,
		Variants:   variants,
		Rates:      newRates(len(variants), len(benchNames)),
	}
	plan := engine.NewPlan()
	for _, bench := range benchNames {
		plan.Cond(bench, id, condVariantCells(bench, len(variants), mk))
	}
	cols, err := s.eng.Execute(ctx, plan)
	if err != nil {
		return res, err
	}
	for b := range benchNames {
		for v := range variants {
			res.Rates[v][b] = cols[b][v]
		}
	}
	return res, nil
}

// AblationRotation measures the §3.3 design choice: rotating each target
// by its depth before XOR (order-preserving) versus a plain XOR fold.
func (s *Suite) AblationRotation(ctx context.Context) (*Report, error) {
	res, err := s.runCondGrid(ctx, "ablation-rotation")
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:    "ablation-rotation",
		Title: "Ablation: hash rotation (order encoding, paper §3.3), conditional 16KB",
		Text:  res.table(),
		Data:  res,
	}, nil
}

// AblationReturns measures the §3.2 claim that storing return targets in
// the THB does not strongly matter.
func (s *Suite) AblationReturns(ctx context.Context) (*Report, error) {
	res, err := s.runCondGrid(ctx, "ablation-returns")
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:    "ablation-returns",
		Title: "Ablation: return targets in the THB (paper §3.2), conditional 16KB",
		Text:  res.table(),
		Data:  res,
	}, nil
}

// AblationSubset profiles with only the hash functions {1,2,4,8,16,32}
// implemented (§3.1's reduced-cost implementation) versus all 32.
func (s *Suite) AblationSubset(ctx context.Context) (*Report, error) {
	res, err := s.runCondGrid(ctx, "ablation-subset")
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:    "ablation-subset",
		Title: "Ablation: implemented hash-function subset (paper §3.1), conditional 16KB",
		Text:  res.table(),
		Data:  res,
	}, nil
}

// AblationHeuristic varies the profiling heuristic's candidate and
// iteration counts around the paper's 3-candidates/7-iterations setting.
func (s *Suite) AblationHeuristic(ctx context.Context) (*Report, error) {
	res, err := s.runCondGrid(ctx, "ablation-heuristic")
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:    "ablation-heuristic",
		Title: "Ablation: profiling heuristic candidates/iterations (paper §3.5), conditional 16KB",
		Text:  res.table(),
		Data:  res,
	}, nil
}

// HFNTResult carries the §4.3 pipelining measurements.
type HFNTResult struct {
	Benchmarks []string
	EntryBits  []uint
	// RepredictPct[j][b] is the re-prediction percentage with 2^EntryBits[j]
	// HFNT entries on benchmark b.
	RepredictPct [][]float64
}

// AblationHFNT measures how often the pipelined predictor's hash function
// number prediction misses, forcing the two-cycle re-predict path (§4.3).
func (s *Suite) AblationHFNT(ctx context.Context) (*Report, error) {
	const budget = 16 * 1024
	k := condK(budget)
	res := &HFNTResult{Benchmarks: ablationBenches, EntryBits: []uint{6, 8, 10, 12}}
	res.RepredictPct = newRates(len(res.EntryBits), len(res.Benchmarks))
	// The measurement lives on the predictor (RepredictRate), not in the
	// replay counts, so this experiment keeps its predictors and uses
	// the non-memoized column runner: one fused pass per benchmark over
	// all four HFNT sizes.
	err := pool.ForEach(ctx, len(res.Benchmarks), func(b int) error {
		bench := res.Benchmarks[b]
		prof, err := s.Profile(bench, false, k)
		if err != nil {
			return err
		}
		hfnts := make([]*vlp.HFNT, len(res.EntryBits))
		preds := make([]bpred.CondPredictor, len(res.EntryBits))
		for j, bits := range res.EntryBits {
			inner, err := vlp.NewCond(budget, prof.Selector(), vlp.Options{})
			if err != nil {
				return err
			}
			if hfnts[j], err = vlp.NewHFNT(inner, bits); err != nil {
				return err
			}
			preds[j] = hfnts[j]
		}
		test, err := s.TestSource(bench)
		if err != nil {
			return err
		}
		if _, err := s.eng.ReplayCond(ctx, preds, test); err != nil {
			return err
		}
		for j, h := range hfnts {
			res.RepredictPct[j][b] = 100 * h.RepredictRate()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tb := tablefmt.New(append([]string{"HFNT entries"}, res.Benchmarks...)...)
	for j, bits := range res.EntryBits {
		cells := []interface{}{fmt.Sprintf("2^%d", bits)}
		for b := range res.Benchmarks {
			cells = append(cells, fmt.Sprintf("%.2f%%", res.RepredictPct[j][b]))
		}
		tb.Row(cells...)
	}
	return &Report{
		ID:    "ablation-hfnt",
		Title: "Ablation: HFNT re-prediction rate (paper §4.3), conditional 16KB VLP",
		Text:  tb.String(),
		Data:  res,
	}, nil
}

// AblationDynSel compares the §3.4 hardware-selection alternative with the
// profiled predictor and the fixed length baseline.
func (s *Suite) AblationDynSel(ctx context.Context) (*Report, error) {
	res, err := s.runCondGrid(ctx, "ablation-dynsel")
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:    "ablation-dynsel",
		Title: "Ablation: hardware hash-function selection (paper §3.4), conditional 16KB",
		Text:  res.table(),
		Data:  res,
	}, nil
}

// AblationHistStack measures the §6 future-work history stack: saving the
// path registers across calls and restoring them on returns.
func (s *Suite) AblationHistStack(ctx context.Context) (*Report, error) {
	res, err := s.runCondGrid(ctx, "ablation-histstack")
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:    "ablation-histstack",
		Title: "Ablation: history stack across calls (paper §6), conditional 16KB",
		Text:  res.table(),
		Data:  res,
	}, nil
}

// AblationCompetitors situates the path predictors in the wider
// conditional-predictor field the paper's related work describes: bimodal,
// GAs, PAs, gshare, and a gshare+bimodal hybrid, all near the 16 KB
// budget. (The hybrid splits its budget across components and chooser, as
// McFarling's design must.)
func (s *Suite) AblationCompetitors(ctx context.Context) (*Report, error) {
	res, err := s.runCondGrid(ctx, "ablation-competitors")
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:    "ablation-competitors",
		Title: "Extension: wider conditional predictor field near 16KB",
		Text:  res.table(),
		Data:  res,
	}, nil
}
