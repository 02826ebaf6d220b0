package experiments

import (
	"context"
	"fmt"

	"repro/internal/bpred"
	"repro/internal/bpred/gshare"
	"repro/internal/engine/pool"
	"repro/internal/stats"
	"repro/internal/tablefmt"
	"repro/internal/trace"
	"repro/internal/vlp"
	"repro/internal/workload"
)

// InterferenceResult breaks each predictor's misses into cold, inter-
// branch interference, and intrinsic components.
type InterferenceResult struct {
	Benchmarks []string
	// Rows[b][v] is the breakdown for variant v (0 = FLP, 1 = VLP) on
	// benchmark b.
	Rows [][]vlp.MissBreakdown
}

// AblationInterference measures §5.3's mechanism directly: the variable
// length path predictor should convert interference and cold misses into
// hits by giving each branch only as much history as it needs ("shorter
// training times and less interference"). Every predictor-table entry is
// tagged with the static branch that last trained it, and each miss is
// classified by what it hit.
func (s *Suite) AblationInterference(ctx context.Context) (*Report, error) {
	const budget = 16 * 1024
	k := condK(budget)
	all, err := s.benches(workload.All())
	if err != nil {
		return nil, err
	}
	fixedLen, err := s.SuiteFixedLength(all, false, k)
	if err != nil {
		return nil, err
	}
	res := &InterferenceResult{
		Benchmarks: ablationBenches,
		Rows:       make([][]vlp.MissBreakdown, len(ablationBenches)),
	}
	err = pool.ForEach(ctx, len(res.Benchmarks), func(i int) error {
		bench := res.Benchmarks[i]
		test, err := s.TestSource(bench)
		if err != nil {
			return err
		}
		flp, err := vlp.NewInstrumentedCond(budget, vlp.Fixed{L: fixedLen}, vlp.Options{})
		if err != nil {
			return err
		}
		prof, err := s.Profile(bench, false, k)
		if err != nil {
			return err
		}
		vp, err := vlp.NewInstrumentedCond(budget, prof.Selector(), vlp.Options{})
		if err != nil {
			return err
		}
		// The breakdown lives on the predictors, so run the fused column
		// directly (non-memoized) and read Stats afterwards.
		if _, err := s.eng.ReplayCond(ctx, []bpred.CondPredictor{flp, vp}, test); err != nil {
			return err
		}
		res.Rows[i] = []vlp.MissBreakdown{flp.Stats, vp.Stats}
		flp.Release()
		vp.Release()
		return nil
	})
	if err != nil {
		return nil, err
	}
	tb := tablefmt.New("Benchmark", "FLP", "VLP")
	for b, name := range res.Benchmarks {
		tb.Row(name, res.Rows[b][0].String(), res.Rows[b][1].String())
	}
	return &Report{
		ID:    "ablation-interference",
		Title: "Extension: misprediction breakdown — cold / interference / intrinsic (paper §5.3), conditional 16KB",
		Text:  tb.String(),
		Data:  res,
	}, nil
}

// StabilityResult carries cross-input variability of the headline
// comparison.
type StabilityResult struct {
	Inputs int
	// GshareRates and VLPRates are gcc misprediction percentages per
	// input data set.
	GshareRates, VLPRates []float64
}

// AblationStability reruns the gcc 16 KB conditional comparison on five
// independent input data sets (the profile stays fixed to the profile
// input, as deployment would) and reports mean ± 95% CI. The paper's
// single-input numbers are meaningful only if this spread is small.
func (s *Suite) AblationStability(ctx context.Context) (*Report, error) {
	const budget = 16 * 1024
	const inputs = 5
	k := condK(budget)
	bench, err := s.bench("gcc")
	if err != nil {
		return nil, err
	}
	prof, err := s.Profile("gcc", false, k)
	if err != nil {
		return nil, err
	}
	res := &StabilityResult{
		Inputs:      inputs,
		GshareRates: make([]float64, inputs),
		VLPRates:    make([]float64, inputs),
	}
	err = pool.ForEach(ctx, inputs, func(i int) error {
		// Inputs 0 and 2..5: skip 1, which is the profiling input.
		input := uint64(i)
		if input >= 1 {
			input++
		}
		src := trace.Collect(bench.InputSource(s.Cfg.base(), input))
		g, err := gshare.New(budget)
		if err != nil {
			return err
		}
		vp, err := vlp.NewCond(budget, prof.Selector(), vlp.Options{})
		if err != nil {
			return err
		}
		// These traces are per-input, not the suite's cached test trace,
		// so the column runs non-memoized over the collected buffer.
		results, err := s.eng.ReplayCond(ctx, []bpred.CondPredictor{g, vp}, src)
		if err != nil {
			return err
		}
		res.GshareRates[i], res.VLPRates[i] = results[0].Percent(), results[1].Percent()
		g.Release()
		vp.Release()
		return nil
	})
	if err != nil {
		return nil, err
	}
	text := fmt.Sprintf("gcc conditional @ 16KB over %d independent inputs (profile held fixed):\n"+
		"  gshare: %s %%\n  VLP:    %s %%\n",
		inputs, stats.Summary(res.GshareRates), stats.Summary(res.VLPRates))
	return &Report{
		ID:    "ablation-stability",
		Title: "Extension: cross-input stability of the headline comparison",
		Text:  text,
		Data:  res,
	}, nil
}
