package experiments

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/engine/pool"
	"repro/internal/tablefmt"
)

// PathInfoResult carries the ideal predictability-by-depth analysis.
type PathInfoResult struct {
	Benchmarks []string
	Depths     []int
	// Weight[b][i] is the percentage of benchmark b's dynamic
	// conditional weight whose sufficient path depth is Depths[i].
	Weight [][]float64
	// MeanAcc[b][i] is the execution-weighted ideal accuracy at
	// Depths[i] on benchmark b.
	MeanAcc [][]float64
}

// AblationPathInfo reproduces the Evers-et-al.-style measurement behind
// §5.3: for each benchmark, how much of the dynamic conditional-branch
// weight is satisfied by each path depth, using an unbounded ideal
// predictor that isolates path *information* from table capacity. The
// concentration of weight at shallow depths — with a long tail needing
// deep paths — is exactly the distribution that makes per-branch length
// selection profitable.
func (s *Suite) AblationPathInfo(ctx context.Context) (*Report, error) {
	// The depth axis is the same for every benchmark, so it is fixed
	// here, before the workers start, rather than written by each.
	res := &PathInfoResult{Benchmarks: ablationBenches, Depths: []int{0, 1, 2, 4, 8, 16, 32}}
	res.Weight = make([][]float64, len(res.Benchmarks))
	res.MeanAcc = make([][]float64, len(res.Benchmarks))
	err := pool.ForEach(ctx, len(res.Benchmarks), func(i int) error {
		in, err := s.input(res.Benchmarks[i], false)
		if err != nil {
			return err
		}
		rep, err := analysis.Analyze(in, analysis.Config{Depths: res.Depths})
		if err != nil {
			return err
		}
		_, res.Weight[i] = rep.SufficientDepthHistogram()
		res.MeanAcc[i] = rep.MeanAccuracyAt()
		return nil
	})
	if err != nil {
		return nil, err
	}

	header := []string{"Benchmark"}
	for _, d := range res.Depths {
		header = append(header, fmt.Sprintf("d=%d", d))
	}
	tb := tablefmt.New(header...)
	for b, name := range res.Benchmarks {
		cells := []interface{}{name}
		for i := range res.Depths {
			cells = append(cells, fmt.Sprintf("%.1f%%", res.Weight[b][i]))
		}
		tb.Row(cells...)
	}
	text := "Dynamic weight by sufficient path depth (ideal, unbounded tables):\n" +
		tb.String()

	tb2 := tablefmt.New(header...)
	for b, name := range res.Benchmarks {
		cells := []interface{}{name}
		for i := range res.Depths {
			cells = append(cells, fmt.Sprintf("%.2f%%", 100*res.MeanAcc[b][i]))
		}
		tb2.Row(cells...)
	}
	text += "\nIdeal accuracy by depth:\n" + tb2.String()

	return &Report{
		ID:    "ablation-pathinfo",
		Title: "Extension: how much path information branches need (paper §5.3, after Evers et al. [8])",
		Text:  text,
		Data:  res,
	}, nil
}
