package experiments

import (
	"context"
	"fmt"

	"repro/internal/bpred"
	"repro/internal/bpred/gshare"
	"repro/internal/bpred/targetcache"
	"repro/internal/engine/pool"
	"repro/internal/pipeline"
	"repro/internal/tablefmt"
	"repro/internal/vlp"
)

// SpeedupResult carries the front-end timing comparison.
type SpeedupResult struct {
	Benchmarks []string
	// BaseIPC / VLPIPC are instructions-per-cycle with the baseline
	// (gshare + pattern cache) and path (VLP cond + VLP indirect)
	// front ends.
	BaseIPC, VLPIPC   []float64
	BaseMPKI, VLPMPKI []float64
	Speedup           []float64
}

// AblationSpeedup translates the predictors' misprediction differences
// into front-end cycles with the pipeline model (paper §1's motivation):
// a 4-wide fetch engine with a 10-cycle redirect penalty, comparing the
// gshare + pattern-cache baseline against the profiled variable length
// path predictors, with a return address stack in both configurations.
func (s *Suite) AblationSpeedup(ctx context.Context) (*Report, error) {
	const condBudget, indBudget = 16 * 1024, 2 * 1024
	kc, ki := condK(condBudget), indK(indBudget)
	benches := ablationBenches
	res := &SpeedupResult{
		Benchmarks: benches,
		BaseIPC:    make([]float64, len(benches)),
		VLPIPC:     make([]float64, len(benches)),
		BaseMPKI:   make([]float64, len(benches)),
		VLPMPKI:    make([]float64, len(benches)),
		Speedup:    make([]float64, len(benches)),
	}
	err := pool.ForEach(ctx, len(benches), func(i int) error {
		bench := benches[i]
		// mk runs one front end over the benchmark and then releases
		// its predictors' tables.
		mk := func(cond bpred.CondPredictor, ind bpred.IndirectPredictor) (pipeline.Result, error) {
			defer bpred.Release(cond)
			defer bpred.Release(ind)
			src, err := s.TestSource(bench)
			if err != nil {
				return pipeline.Result{}, err
			}
			return pipeline.Run(src, cond, ind, pipeline.Params{Width: 4, Penalty: 10})
		}

		g, err := gshare.New(condBudget)
		if err != nil {
			return err
		}
		pat, err := targetcache.NewPatternBudget(indBudget)
		if err != nil {
			return err
		}
		base, err := mk(g, pat)
		if err != nil {
			return err
		}

		cprof, err := s.Profile(bench, false, kc)
		if err != nil {
			return err
		}
		iprof, err := s.Profile(bench, true, ki)
		if err != nil {
			return err
		}
		vc, err := vlp.NewCond(condBudget, cprof.Selector(), vlp.Options{})
		if err != nil {
			return err
		}
		vi, err := vlp.NewIndirect(indBudget, iprof.Selector(), vlp.Options{})
		if err != nil {
			return err
		}
		vres, err := mk(vc, vi)
		if err != nil {
			return err
		}

		res.BaseIPC[i], res.VLPIPC[i] = base.IPC(), vres.IPC()
		res.BaseMPKI[i], res.VLPMPKI[i] = base.MPKI(), vres.MPKI()
		res.Speedup[i] = vres.Speedup(base)
		return nil
	})
	if err != nil {
		return nil, err
	}
	tb := tablefmt.New("Benchmark", "base IPC", "base MPKI", "VLP IPC", "VLP MPKI", "speedup")
	for i, b := range res.Benchmarks {
		tb.Row(b, res.BaseIPC[i], res.BaseMPKI[i], res.VLPIPC[i], res.VLPMPKI[i],
			fmt.Sprintf("%.3fx", res.Speedup[i]))
	}
	return &Report{
		ID:    "ablation-speedup",
		Title: "Extension: front-end cycles (4-wide, 10-cycle redirect): gshare+pattern vs VLP",
		Text:  tb.String(),
		Data:  res,
	}, nil
}

// AblationISABits measures §4.2's degradation path as the ISA carries
// fewer hash-number bits: the full profiled number, a coarse bucket hint
// refined by hardware, and no hint at all (pure hardware selection).
func (s *Suite) AblationISABits(ctx context.Context) (*Report, error) {
	res, err := s.runCondGrid(ctx, "ablation-isabits")
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:    "ablation-isabits",
		Title: "Ablation: ISA bits for the hash number (paper §4.2), conditional 16KB",
		Text:  res.table(),
		Data:  res,
	}, nil
}
