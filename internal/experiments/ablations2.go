package experiments

import (
	"context"
	"fmt"

	"repro/internal/bpred/ras"
	"repro/internal/engine/pool"
	"repro/internal/tablefmt"
	"repro/internal/workload"
)

// AblationIndField pits the full indirect predictor field against each
// other at the 2 KB budget on the indirect-heavy benchmarks: BTB,
// pattern/path target caches, the Driesen-Hölzle-style cascaded predictor
// ("the best competing predictor" family the paper references), and the
// fixed/variable length path predictors.
func (s *Suite) AblationIndField(ctx context.Context) (*Report, error) {
	res, err := s.runIndGrid(ctx, "ablation-indfield")
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:    "ablation-indfield",
		Title: "Extension: full indirect predictor field at 2KB (indirect-heavy benchmarks)",
		Text:  res.table(),
		Data:  res,
	}, nil
}

// RASResult carries per-benchmark return statistics.
type RASResult struct {
	Benchmarks []string
	Depths     []int
	// HitPct[d][b] is the return hit percentage at Depths[d] on
	// benchmark b.
	HitPct  [][]float64
	Returns []int64
}

// AblationRAS quantifies the premise behind the paper's exclusion of
// returns from the indirect counts (§5.1): a return address stack predicts
// them, nearly perfectly once deep enough for the program's call nesting.
func (s *Suite) AblationRAS(ctx context.Context) (*Report, error) {
	bs, err := s.benches(workload.All())
	if err != nil {
		return nil, err
	}
	res := &RASResult{
		Benchmarks: names(bs),
		Depths:     []int{1, 4, 16, 64},
		Returns:    make([]int64, len(bs)),
	}
	res.HitPct = newRates(len(res.Depths), len(bs))
	type job struct{ d, b int }
	var jobs []job
	for d := range res.Depths {
		for b := range bs {
			jobs = append(jobs, job{d, b})
		}
	}
	err = pool.ForEach(ctx, len(jobs), func(i int) error {
		j := jobs[i]
		src, err := s.TestSource(bs[j.b].Name())
		if err != nil {
			return err
		}
		st, err := ras.Run(src, res.Depths[j.d])
		if err != nil {
			return err
		}
		res.HitPct[j.d][j.b] = 100 * st.HitRate()
		// Every depth counts the same returns; one job per benchmark
		// writes the count, so no two workers share a slot.
		if j.d == 0 {
			res.Returns[j.b] = st.Returns
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	header := []string{"Benchmark", "returns"}
	for _, d := range res.Depths {
		header = append(header, fmt.Sprintf("depth %d", d))
	}
	tb := tablefmt.New(header...)
	for b, name := range res.Benchmarks {
		cells := []interface{}{name, res.Returns[b]}
		for d := range res.Depths {
			cells = append(cells, fmt.Sprintf("%.2f%%", res.HitPct[d][b]))
		}
		tb.Row(cells...)
	}
	return &Report{
		ID:    "ablation-ras",
		Title: "Extension: return address stack hit rates (paper §5.1's exclusion of returns)",
		Text:  tb.String(),
		Data:  res,
	}, nil
}
