package experiments

import (
	"context"
	"fmt"

	"repro/internal/bpred"
	"repro/internal/bpred/gshare"
	"repro/internal/bpred/targetcache"
	"repro/internal/engine"
	"repro/internal/textplot"
	"repro/internal/vlp"
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

// condCompareCells builds the Figures 5-6 comparison column for one
// benchmark: gshare, fixed length path, variable length path at one
// hardware budget. The profile fetch lives inside the VLP cell (it is
// memoized per benchmark) so it runs inside the engine's pooled
// execution rather than serializing plan construction.
func (s *Suite) condCompareCells(bench string, budgetBytes, fixedLen int, k uint) []engine.CondCell {
	return []engine.CondCell{
		func() (bpred.CondPredictor, error) { return gshare.New(budgetBytes) },
		func() (bpred.CondPredictor, error) {
			return vlp.NewCond(budgetBytes, vlp.Fixed{L: fixedLen}, vlp.Options{})
		},
		func() (bpred.CondPredictor, error) {
			prof, err := s.Profile(bench, false, k)
			if err != nil {
				return nil, err
			}
			return vlp.NewCond(budgetBytes, prof.Selector(), vlp.Options{})
		},
	}
}

// indCompareCells builds the Figures 7-8 comparison column for one
// benchmark: Chang-Hao-Patt path and pattern target caches plus the
// fixed and variable length path predictors.
func (s *Suite) indCompareCells(bench string, budgetBytes, fixedLen int, k uint) []engine.IndirectCell {
	return []engine.IndirectCell{
		func() (bpred.IndirectPredictor, error) { return targetcache.NewPathBudget(budgetBytes) },
		func() (bpred.IndirectPredictor, error) { return targetcache.NewPatternBudget(budgetBytes) },
		func() (bpred.IndirectPredictor, error) {
			return vlp.NewIndirect(budgetBytes, vlp.Fixed{L: fixedLen}, vlp.Options{})
		},
		func() (bpred.IndirectPredictor, error) {
			prof, err := s.Profile(bench, true, k)
			if err != nil {
				return nil, err
			}
			return vlp.NewIndirect(budgetBytes, prof.Selector(), vlp.Options{})
		},
	}
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

// condComparison produces the gshare / fixed length path / variable length
// path comparison of Figures 5-6 for the given benchmarks and hardware
// budget: one engine cell per benchmark, executed as a plan.
func (s *Suite) condComparison(ctx context.Context, bs []*workload.Benchmark, budgetBytes int) (*BenchSeries, error) {
	bs, err := s.benches(bs)
	if err != nil {
		return nil, err
	}
	k := condK(budgetBytes)
	fixedLen, err := s.suiteFixedLength(false, k)
	if err != nil {
		return nil, err
	}

	out := &BenchSeries{
		Predictors: []string{"gshare", "fixed length path", "variable length path"},
		Benchmarks: names(bs),
		Rates:      newRates(3, len(bs)),
	}
	id := fmt.Sprintf("compare-cond-%d", budgetBytes)
	plan := engine.NewPlan()
	for _, b := range bs {
		plan.Cond(b.Name(), id, s.condCompareCells(b.Name(), budgetBytes, fixedLen, k))
	}
	cols, err := s.eng.Execute(ctx, plan)
	if err != nil {
		return nil, err
	}
	for i := range bs {
		for p := range out.Predictors {
			out.Rates[p][i] = cols[i][p]
		}
	}
	return out, nil
}

// indirectComparison produces the Chang-Hao-Patt path & pattern versus
// fixed/variable length path comparison of Figures 7-8.
func (s *Suite) indirectComparison(ctx context.Context, bs []*workload.Benchmark, budgetBytes int) (*BenchSeries, error) {
	bs, err := s.benches(bs)
	if err != nil {
		return nil, err
	}
	k := indK(budgetBytes)
	fixedLen, err := s.suiteFixedLength(true, k)
	if err != nil {
		return nil, err
	}

	out := &BenchSeries{
		Predictors: []string{"path (Chang, Hao, and Patt)", "pattern (Chang, Hao, and Patt)",
			"fixed length path", "variable length path"},
		Benchmarks: names(bs),
		Rates:      newRates(4, len(bs)),
	}
	id := fmt.Sprintf("compare-ind-%d", budgetBytes)
	plan := engine.NewPlan()
	for _, b := range bs {
		plan.Indirect(b.Name(), id, s.indCompareCells(b.Name(), budgetBytes, fixedLen, k))
	}
	cols, err := s.eng.Execute(ctx, plan)
	if err != nil {
		return nil, err
	}
	for i := range bs {
		for p := range out.Predictors {
			out.Rates[p][i] = cols[i][p]
		}
	}
	return out, nil
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
