package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/engine/pool"
	"repro/internal/pipeline"
	"repro/internal/tablefmt"
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
// All four predictors are entries of the Figures 5-8 comparison columns,
// so their misses come from those (memoized) columns, and each benchmark
// takes one trace-only front-end pass.
func (s *Suite) AblationSpeedup(ctx context.Context) (*Report, error) {
	benches := ablationBenches
	// Unlike the grids, this experiment fails on a skipped benchmark
	// rather than dropping it.
	for _, name := range benches {
		if _, err := s.bench(name); err != nil {
			return nil, err
		}
	}
	cols, err := s.runColumns(ctx, "ablation-speedup")
	if err != nil {
		return nil, err
	}
	cond, ind := cols[0], cols[1]
	res := &SpeedupResult{
		Benchmarks: benches,
		BaseIPC:    make([]float64, len(benches)),
		VLPIPC:     make([]float64, len(benches)),
		BaseMPKI:   make([]float64, len(benches)),
		VLPMPKI:    make([]float64, len(benches)),
		Speedup:    make([]float64, len(benches)),
	}
	params := pipeline.Params{Width: 4, Penalty: 10}
	err = pool.ForEach(ctx, len(benches), func(i int) error {
		src, err := s.TestSource(benches[i])
		if err != nil {
			return err
		}
		fe, err := pipeline.Run(src, params)
		if err != nil {
			return err
		}
		// gshare (conditional entry 0) + pattern cache (indirect entry
		// 1) against VLP for both classes (entries 2 and 3).
		base := fe.Charge(params, missCount(cond.Rates[0][i], fe.CondBranches),
			missCount(ind.Rates[1][i], fe.IndBranches))
		vres := fe.Charge(params, missCount(cond.Rates[2][i], fe.CondBranches),
			missCount(ind.Rates[3][i], fe.IndBranches))
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

// missCount recovers a miss count m from a column's percentage over n
// branches. The percentage is 100·m/n in float64; each of the four
// float64 steps from m to the percentage and back (divide, scale,
// multiply, divide) is off by at most half an ulp, so pct·n/100 is
// within m·2^-51 of m and rounds back to it exactly while m < 2^50.
func missCount(pct float64, n int64) int64 { return int64(math.Round(pct * float64(n) / 100)) }

// AblationISABits measures §4.2's degradation path as the ISA carries
// fewer hash-number bits: the full profiled number, a coarse bucket hint
// refined by hardware, and no hint at all (pure hardware selection).
func (s *Suite) AblationISABits(ctx context.Context) (*Report, error) {
	return s.gridReport(ctx, "ablation-isabits",
		"Ablation: ISA bits for the hash number (paper §4.2), conditional 16KB")
}
