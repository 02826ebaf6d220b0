package experiments

import (
	"context"
	"fmt"

	"repro/internal/tablefmt"
	"repro/internal/textplot"
)

// SweepResult is a misprediction-rate-versus-size dataset (Figures 9-10).
type SweepResult struct {
	Benchmark  string
	SizesBytes []int
	Predictors []string
	// Rates[p][s] is predictor p's misprediction percentage at size s.
	Rates [][]float64
}

// Rate returns the percentage for a (predictor, size) pair.
func (r *SweepResult) Rate(predictor string, sizeBytes int) (float64, error) {
	pi := index(r.Predictors, predictor)
	if pi < 0 {
		return 0, &NotFoundError{Kind: "predictor", Key: predictor}
	}
	si := -1
	for i, s := range r.SizesBytes {
		if s == sizeBytes {
			si = i
			break
		}
	}
	if si < 0 {
		return 0, &NotFoundError{Kind: "size", Key: fmt.Sprintf("%d bytes", sizeBytes)}
	}
	return r.Rates[pi][si], nil
}

func (r *SweepResult) chart(title string) string {
	xs := make([]float64, len(r.SizesBytes))
	for i, b := range r.SizesBytes {
		xs[i] = float64(b) / 1024
	}
	series := make([]textplot.Series, len(r.Predictors))
	for i, p := range r.Predictors {
		series[i] = textplot.Series{Name: p, Values: r.Rates[i]}
	}
	c := &textplot.LineChart{
		Title: title, XLabel: "Predictor Size (K bytes)", X: xs, LogX: true, Series: series,
	}
	tb := tablefmt.New(append([]string{"Predictor"}, kbLabels(r.SizesBytes)...)...)
	for i, p := range r.Predictors {
		cells := []interface{}{p}
		for _, v := range r.Rates[i] {
			cells = append(cells, fmt.Sprintf("%.2f%%", v))
		}
		tb.Row(cells...)
	}
	return c.String() + "\n" + tb.String()
}

func kbLabels(sizes []int) []string {
	out := make([]string, len(sizes))
	for i, s := range sizes {
		out[i] = fmt.Sprintf("%gKB", float64(s)/1024)
	}
	return out
}

// Figure9 reproduces the paper's Figure 9: gcc conditional branch
// misprediction versus predictor size (1 KB to 256 KB) for gshare, the
// fixed length path predictor (suite-wide length), the per-benchmark
// tuned fixed length path predictor, and the variable length path
// predictor.
func (s *Suite) Figure9(ctx context.Context) (*Report, error) {
	res, err := s.sweep(ctx, "fig9", fig9Predictors, condSweepBytes)
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:    "fig9",
		Title: "Figure 9: Misprediction Rates for Conditional Branches in Gcc",
		Text:  res.chart("gcc conditional vs size"),
		Data:  res,
	}, nil
}

// Figure10 reproduces the paper's Figure 10: gcc indirect branch
// misprediction versus predictor size (0.5 KB to 32 KB) for the Chang,
// Hao and Patt path and pattern caches and the fixed, tuned-fixed, and
// variable length path predictors.
func (s *Suite) Figure10(ctx context.Context) (*Report, error) {
	res, err := s.sweep(ctx, "fig10", fig10Predictors, IndSizesBytes)
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:    "fig10",
		Title: "Figure 10: Misprediction Rates for Indirect Branches in Gcc",
		Text:  res.chart("gcc indirect vs size"),
		Data:  res,
	}, nil
}

// sweep runs a Figure 9/10 size sweep, the experiment's one column, and
// lays its size-major cells out as one series per predictor.
func (s *Suite) sweep(ctx context.Context, expID string, predictors []string, sizes []int) (*SweepResult, error) {
	cols, err := s.runColumns(ctx, expID)
	if err != nil {
		return nil, err
	}
	col := cols[0]
	res := &SweepResult{
		Benchmark:  col.Benchmarks[0],
		SizesBytes: append([]int(nil), sizes...),
		Predictors: predictors,
		Rates:      newRates(len(predictors), len(sizes)),
	}
	for i := range sizes {
		for p := range predictors {
			res.Rates[p][i] = col.Rates[i*len(predictors)+p][0]
		}
	}
	return res, nil
}

// HeadlineResult carries the paper's abstract numbers: gcc conditional at
// a 4 KB budget (VLP vs gshare) and gcc indirect at 512 bytes (VLP vs the
// best competing predictor).
type HeadlineResult struct {
	CondGshare, CondVLP  float64 // percent, 4 KB
	IndBestCompeting     float64 // percent, 512 B (min of path/pattern)
	IndBestCompetingName string
	IndVLP               float64
}

// Headline reproduces the abstract's gcc numbers (paper: 4.3% vs 8.8%
// conditional at 4 KB; 27.7% vs 44.2% indirect at 512 bytes).
func (s *Suite) Headline(ctx context.Context) (*Report, error) {
	res := &HeadlineResult{}
	// Both headline columns go into one plan, so the conditional and
	// indirect replays run concurrently under the engine's pool.
	cols, err := s.runColumns(ctx, "headline")
	if err != nil {
		return nil, err
	}
	cond, ind := cols[0].Rates, cols[1].Rates
	res.CondGshare, res.CondVLP = cond[0][0], cond[1][0]
	res.IndBestCompeting, res.IndBestCompetingName = ind[0][0], "path"
	if ind[1][0] < ind[0][0] {
		res.IndBestCompeting, res.IndBestCompetingName = ind[1][0], "pattern"
	}
	res.IndVLP = ind[2][0]

	text := fmt.Sprintf(
		"gcc conditional @ 4KB:  VLP %.2f%%  vs  gshare %.2f%%   (paper: 4.3%% vs 8.8%%)\n"+
			"gcc indirect    @ 512B: VLP %.2f%%  vs  best competing (%s) %.2f%%   (paper: 27.7%% vs 44.2%%)\n",
		res.CondVLP, res.CondGshare, res.IndVLP, res.IndBestCompetingName, res.IndBestCompeting)
	return &Report{
		ID:    "headline",
		Title: "Headline: the abstract's gcc numbers",
		Text:  text,
		Data:  res,
	}, nil
}
