package experiments

import (
	"context"
	"fmt"
)

// Figure5 reproduces the paper's Figure 5: conditional branch
// misprediction rates on the SPEC benchmarks with a 16 KB predictor, for
// gshare, the fixed length path predictor, and the variable length path
// predictor.
func (s *Suite) Figure5(ctx context.Context) (*Report, error) {
	series, err := s.compare(ctx, "fig5")
	if err != nil {
		return nil, err
	}
	red, err := series.MeanReduction("gshare", "variable length path")
	if err != nil {
		return nil, err
	}
	footer := fmt.Sprintf("\nVLP mean misprediction reduction vs gshare: %.1f%% (paper, all 16: 28.6%%)\n", red)
	return &Report{
		ID:    "fig5",
		Title: "Figure 5: Misprediction Rates for Conditional Branches with a 16K byte Predictor (SPEC)",
		Text:  series.Chart("Conditional, 16KB, SPEC") + footer,
		Data:  series,
	}, nil
}

// Figure6 is Figure 5 for the non-SPEC benchmarks.
func (s *Suite) Figure6(ctx context.Context) (*Report, error) {
	series, err := s.compare(ctx, "fig6")
	if err != nil {
		return nil, err
	}
	red, err := series.MeanReduction("gshare", "variable length path")
	if err != nil {
		return nil, err
	}
	footer := fmt.Sprintf("\nVLP mean misprediction reduction vs gshare: %.1f%% (paper, all 16: 28.6%%)\n", red)
	return &Report{
		ID:    "fig6",
		Title: "Figure 6: Misprediction Rates for Conditional Branches with a 16K byte Predictor (Non-SPEC)",
		Text:  series.Chart("Conditional, 16KB, non-SPEC") + footer,
		Data:  series,
	}, nil
}

// Figure7 reproduces the paper's Figure 7: indirect branch misprediction
// rates on the SPEC benchmarks with a 2 KB predictor, for the Chang, Hao
// and Patt path and pattern target caches and the fixed/variable length
// path predictors. Benchmarks that execute no indirect branches under the
// configured trace length report 0% for every predictor, mirroring the
// near-empty bars the paper shows for compress.
func (s *Suite) Figure7(ctx context.Context) (*Report, error) {
	series, err := s.compare(ctx, "fig7")
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:    "fig7",
		Title: "Figure 7: Misprediction Rates for Indirect Branches with a 2K byte Predictor (SPEC)",
		Text:  series.Chart("Indirect, 2KB, SPEC"),
		Data:  series,
	}, nil
}

// Figure8 is Figure 7 for the non-SPEC benchmarks.
func (s *Suite) Figure8(ctx context.Context) (*Report, error) {
	series, err := s.compare(ctx, "fig8")
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:    "fig8",
		Title: "Figure 8: Misprediction Rates for Indirect Branches with a 2K byte Predictor (Non-SPEC)",
		Text:  series.Chart("Indirect, 2KB, non-SPEC"),
		Data:  series,
	}, nil
}
