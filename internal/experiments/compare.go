package experiments

import (
	"context"
	"fmt"

	"repro/internal/textplot"
	"repro/internal/workload"
)

// BenchSeries is the data behind the paper's per-benchmark bar figures:
// one misprediction-rate series (percent) per predictor over a shared
// benchmark list.
type BenchSeries struct {
	Benchmarks []string
	Predictors []string
	// Rates[p][b] is predictor p's misprediction percentage on benchmark b.
	Rates [][]float64
}

// Rate returns the percentage for a (predictor, benchmark) pair.
func (r *BenchSeries) Rate(predictor, bench string) (float64, error) {
	pi := index(r.Predictors, predictor)
	if pi < 0 {
		return 0, &NotFoundError{Kind: "predictor", Key: predictor}
	}
	bi := index(r.Benchmarks, bench)
	if bi < 0 {
		return 0, &NotFoundError{Kind: "benchmark", Key: bench}
	}
	return r.Rates[pi][bi], nil
}

// Chart renders the series as the paper's grouped bar figure.
func (r *BenchSeries) Chart(title string) string {
	series := make([]textplot.Series, len(r.Predictors))
	for i, p := range r.Predictors {
		series[i] = textplot.Series{Name: p, Values: r.Rates[i]}
	}
	c := &textplot.BarChart{Title: title, Unit: "%", Labels: r.Benchmarks, Series: series}
	return c.String()
}

// MeanReduction returns the average relative misprediction reduction (in
// percent) of predictor `to` versus predictor `from` across benchmarks —
// the statistic behind the paper's "28.6% fewer mispredictions than
// gshare on average".
func (r *BenchSeries) MeanReduction(from, to string) (float64, error) {
	fi := index(r.Predictors, from)
	if fi < 0 {
		return 0, &NotFoundError{Kind: "predictor", Key: from}
	}
	ti := index(r.Predictors, to)
	if ti < 0 {
		return 0, &NotFoundError{Kind: "predictor", Key: to}
	}
	var sum float64
	n := 0
	for b := range r.Benchmarks {
		if r.Rates[fi][b] == 0 {
			continue
		}
		sum += 1 - r.Rates[ti][b]/r.Rates[fi][b]
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("experiments: no comparable benchmarks")
	}
	return 100 * sum / float64(n), nil
}

// suiteFixedLength resolves the suite-wide tuned fixed length for a
// class and index width: tuned over the *whole* suite's profile inputs
// (§5.1), not just one figure's benchmark half.
func (s *Suite) suiteFixedLength(indirect bool, k uint) (int, error) {
	all, err := s.benches(workload.All())
	if err != nil {
		return 0, err
	}
	return s.SuiteFixedLength(all, indirect, k)
}

// compare runs a Figures 5-8 / Table 3 comparison, the experiment's one
// column, as a BenchSeries.
func (s *Suite) compare(ctx context.Context, expID string) (*BenchSeries, error) {
	cols, err := s.runColumns(ctx, expID)
	if err != nil {
		return nil, err
	}
	c := cols[0]
	return &BenchSeries{Benchmarks: c.Benchmarks, Predictors: c.Variants, Rates: c.Rates}, nil
}

func names(bs []*workload.Benchmark) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name()
	}
	return out
}

func newRates(p, b int) [][]float64 {
	out := make([][]float64, p)
	for i := range out {
		out[i] = make([]float64, b)
	}
	return out
}
