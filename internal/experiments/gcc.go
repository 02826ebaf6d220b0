package experiments

import (
	"context"
	"fmt"

	"repro/internal/bpred"
	"repro/internal/bpred/gshare"
	"repro/internal/bpred/targetcache"
	"repro/internal/engine"
	"repro/internal/engine/pool"
	"repro/internal/tablefmt"
	"repro/internal/textplot"
	"repro/internal/vlp"
	"repro/internal/workload"
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

// figure9Cells builds Figure 9's column: the whole (size, predictor)
// grid — gshare, suite fixed length, tuned fixed length, and VLP at
// every conditional sweep size — fused into one pass over gcc's test
// trace. The per-size profiling artifacts warm in parallel first; the
// many fixed-length cells at each size then share one path history
// inside the kernel, which is where the sweep's speedup comes from.
func (s *Suite) figure9Cells(ctx context.Context) ([]engine.CondCell, error) {
	const bench = "gcc"
	all, err := s.benches(workload.All())
	if err != nil {
		return nil, err
	}
	sizes := make([]int, len(CondSizesKB))
	for i, kb := range CondSizesKB {
		sizes[i] = kb * 1024
	}
	type sizing struct {
		suiteLen, tunedLen int
		sel                vlp.Selector
	}
	sizings := make([]sizing, len(sizes))
	err = pool.ForEach(ctx, len(sizes), func(i int) error {
		k := condK(sizes[i])
		var err error
		if sizings[i].suiteLen, err = s.SuiteFixedLength(all, false, k); err != nil {
			return err
		}
		if sizings[i].tunedLen, err = s.TunedFixedLength(bench, false, k); err != nil {
			return err
		}
		prof, err := s.Profile(bench, false, k)
		if err != nil {
			return err
		}
		sizings[i].sel = prof.Selector()
		return nil
	})
	if err != nil {
		return nil, err
	}
	var cells []engine.CondCell
	for i := range sizes {
		budget, sz := sizes[i], sizings[i]
		cells = append(cells,
			func() (bpred.CondPredictor, error) { return gshare.New(budget) },
			func() (bpred.CondPredictor, error) {
				return vlp.NewCond(budget, vlp.Fixed{L: sz.suiteLen}, vlp.Options{})
			},
			func() (bpred.CondPredictor, error) {
				return vlp.NewCond(budget, vlp.Fixed{L: sz.tunedLen}, vlp.Options{})
			},
			func() (bpred.CondPredictor, error) { return vlp.NewCond(budget, sz.sel, vlp.Options{}) },
		)
	}
	return cells, nil
}

// Figure9 reproduces the paper's Figure 9: gcc conditional branch
// misprediction versus predictor size (1 KB to 256 KB) for gshare, the
// fixed length path predictor (suite-wide length), the per-benchmark
// tuned fixed length path predictor, and the variable length path
// predictor.
func (s *Suite) Figure9(ctx context.Context) (*Report, error) {
	const bench = "gcc"
	res := &SweepResult{
		Benchmark:  bench,
		Predictors: []string{"gshare", "fixed length path", "fixed length path (tuned)", "variable length path"},
	}
	for _, kb := range CondSizesKB {
		res.SizesBytes = append(res.SizesBytes, kb*1024)
	}
	res.Rates = newRates(len(res.Predictors), len(res.SizesBytes))

	cells, err := s.figure9Cells(ctx)
	if err != nil {
		return nil, err
	}
	pct, err := s.eng.Column(ctx, engine.Cell{Trace: bench, ColumnID: "fig9", Cond: cells})
	if err != nil {
		return nil, err
	}
	for i := range res.SizesBytes {
		for p := range res.Predictors {
			res.Rates[p][i] = pct[i*len(res.Predictors)+p]
		}
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
// figure10Cells builds Figure 10's fused indirect column, same shape as
// figure9Cells: warm the per-size artifacts in parallel, then lay the
// whole (size, predictor) grid out as one column.
func (s *Suite) figure10Cells(ctx context.Context) ([]engine.IndirectCell, error) {
	const bench = "gcc"
	all, err := s.benches(workload.All())
	if err != nil {
		return nil, err
	}
	sizes := append([]int(nil), IndSizesBytes...)
	type sizing struct {
		suiteLen, tunedLen int
		sel                vlp.Selector
	}
	sizings := make([]sizing, len(sizes))
	err = pool.ForEach(ctx, len(sizes), func(i int) error {
		k := indK(sizes[i])
		var err error
		if sizings[i].suiteLen, err = s.SuiteFixedLength(all, true, k); err != nil {
			return err
		}
		if sizings[i].tunedLen, err = s.TunedFixedLength(bench, true, k); err != nil {
			return err
		}
		prof, err := s.Profile(bench, true, k)
		if err != nil {
			return err
		}
		sizings[i].sel = prof.Selector()
		return nil
	})
	if err != nil {
		return nil, err
	}
	var cells []engine.IndirectCell
	for i := range sizes {
		budget, sz := sizes[i], sizings[i]
		cells = append(cells,
			func() (bpred.IndirectPredictor, error) { return targetcache.NewPathBudget(budget) },
			func() (bpred.IndirectPredictor, error) { return targetcache.NewPatternBudget(budget) },
			func() (bpred.IndirectPredictor, error) {
				return vlp.NewIndirect(budget, vlp.Fixed{L: sz.suiteLen}, vlp.Options{})
			},
			func() (bpred.IndirectPredictor, error) {
				return vlp.NewIndirect(budget, vlp.Fixed{L: sz.tunedLen}, vlp.Options{})
			},
			func() (bpred.IndirectPredictor, error) {
				return vlp.NewIndirect(budget, sz.sel, vlp.Options{})
			},
		)
	}
	return cells, nil
}

func (s *Suite) Figure10(ctx context.Context) (*Report, error) {
	const bench = "gcc"
	res := &SweepResult{
		Benchmark: bench,
		Predictors: []string{"path (Chang, Hao, and Patt)", "pattern (Chang, Hao, and Patt)",
			"fixed length path", "fixed length path (tuned)", "variable length path"},
		SizesBytes: append([]int(nil), IndSizesBytes...),
	}
	res.Rates = newRates(len(res.Predictors), len(res.SizesBytes))

	cells, err := s.figure10Cells(ctx)
	if err != nil {
		return nil, err
	}
	pct, err := s.eng.Column(ctx, engine.Cell{Trace: bench, ColumnID: "fig10", Indirect: cells})
	if err != nil {
		return nil, err
	}
	for i := range res.SizesBytes {
		for p := range res.Predictors {
			res.Rates[p][i] = pct[i*len(res.Predictors)+p]
		}
	}
	return &Report{
		ID:    "fig10",
		Title: "Figure 10: Misprediction Rates for Indirect Branches in Gcc",
		Text:  res.chart("gcc indirect vs size"),
		Data:  res,
	}, nil
}

// headlineCondCells is the abstract's conditional column: gshare vs the
// profiled VLP at a 4 KB budget on gcc.
func (s *Suite) headlineCondCells() []engine.CondCell {
	return []engine.CondCell{
		func() (bpred.CondPredictor, error) { return gshare.New(4 * 1024) },
		func() (bpred.CondPredictor, error) {
			prof, err := s.Profile("gcc", false, condK(4*1024))
			if err != nil {
				return nil, err
			}
			return vlp.NewCond(4*1024, prof.Selector(), vlp.Options{})
		},
	}
}

// headlineIndCells is the abstract's indirect column: the Chang-Hao-Patt
// caches vs the profiled VLP at 512 bytes on gcc.
func (s *Suite) headlineIndCells() []engine.IndirectCell {
	return []engine.IndirectCell{
		func() (bpred.IndirectPredictor, error) { return targetcache.NewPathBudget(512) },
		func() (bpred.IndirectPredictor, error) { return targetcache.NewPatternBudget(512) },
		func() (bpred.IndirectPredictor, error) {
			prof, err := s.Profile("gcc", true, indK(512))
			if err != nil {
				return nil, err
			}
			return vlp.NewIndirect(512, prof.Selector(), vlp.Options{})
		},
	}
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
	const bench = "gcc"
	res := &HeadlineResult{}

	// Both headline columns go into one plan, so the conditional and
	// indirect replays run concurrently under the engine's pool.
	plan := engine.NewPlan()
	plan.Cond(bench, "headline-cond", s.headlineCondCells())
	plan.Indirect(bench, "headline-ind", s.headlineIndCells())
	cols, err := s.eng.Execute(ctx, plan)
	if err != nil {
		return nil, err
	}
	cond, ind := cols[0], cols[1]
	res.CondGshare, res.CondVLP = cond[0], cond[1]
	res.IndBestCompeting, res.IndBestCompetingName = ind[0], "path"
	if ind[1] < ind[0] {
		res.IndBestCompeting, res.IndBestCompetingName = ind[1], "pattern"
	}
	res.IndVLP = ind[2]

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
