package experiments

import (
	"context"
	"fmt"

	"repro/internal/engine/pool"
	"repro/internal/tablefmt"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Table1Row is one benchmark's workload characterisation (paper Table 1).
type Table1Row struct {
	Benchmark       string
	CondDynamic     int64
	CondStatic      int
	IndirectDynamic int64
	IndirectStatic  int
}

// Table1Result is the full benchmark summary.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 reproduces the paper's Table 1: dynamic and static counts of
// conditional and indirect branches per benchmark on the test input
// (returns excluded from the indirect counts, §5.1).
func (s *Suite) Table1(ctx context.Context) (*Report, error) {
	bs, err := s.benches(workload.All())
	if err != nil {
		return nil, err
	}
	res := &Table1Result{Rows: make([]Table1Row, len(bs))}
	err = pool.ForEach(ctx, len(bs), func(i int) error {
		src, err := s.TestSource(bs[i].Name())
		if err != nil {
			return err
		}
		sum := trace.Summarize(src)
		res.Rows[i] = Table1Row{
			Benchmark:       bs[i].Name(),
			CondDynamic:     sum.DynamicCond(),
			CondStatic:      sum.StaticCond,
			IndirectDynamic: sum.DynamicIndirect(),
			IndirectStatic:  sum.StaticIndirect,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tb := tablefmt.New("Benchmark", "cond dynamic", "cond static", "indirect dynamic", "indirect static").
		AlignRight(1, 2, 3, 4)
	for _, r := range res.Rows {
		tb.Row(r.Benchmark, r.CondDynamic, r.CondStatic, r.IndirectDynamic, r.IndirectStatic)
	}
	return &Report{
		ID:    "table1",
		Title: "Table 1: Benchmark Summary",
		Text:  tb.String(),
		Data:  res,
	}, nil
}

// Table2Row maps one table size to the suite-wide best fixed path length.
type Table2Row struct {
	SizeBytes  int
	PathLength int
}

// Table2Result holds both halves of the paper's Table 2.
type Table2Result struct {
	Conditional []Table2Row
	Indirect    []Table2Row
}

// Table2 reproduces the paper's Table 2: for each hardware budget, the
// fixed path length with the lowest average misprediction rate over all
// benchmarks, determined on the profile inputs (§5.1).
func (s *Suite) Table2(ctx context.Context) (*Report, error) {
	all, err := s.benches(workload.All())
	if err != nil {
		return nil, err
	}
	res := &Table2Result{}

	type job struct {
		bytes    int
		indirect bool
	}
	var jobs []job
	for _, kb := range CondSizesKB {
		jobs = append(jobs, job{kb * 1024, false})
	}
	for _, b := range IndSizesBytes {
		jobs = append(jobs, job{b, true})
	}
	lengths := make([]int, len(jobs))
	err = pool.ForEach(ctx, len(jobs), func(i int) error {
		j := jobs[i]
		k := condK(j.bytes)
		if j.indirect {
			k = indK(j.bytes)
		}
		var jerr error
		lengths[i], jerr = s.SuiteFixedLength(all, j.indirect, k)
		return jerr
	})
	if err != nil {
		return nil, err
	}
	for i, j := range jobs {
		row := Table2Row{SizeBytes: j.bytes, PathLength: lengths[i]}
		if j.indirect {
			res.Indirect = append(res.Indirect, row)
		} else {
			res.Conditional = append(res.Conditional, row)
		}
	}

	ct := tablefmt.New("Table Size (KB)", "Path Length").AlignRight(0, 1)
	for _, r := range res.Conditional {
		ct.Row(fmt.Sprintf("%d", r.SizeBytes/1024), r.PathLength)
	}
	it := tablefmt.New("Table Size (KB)", "Path Length").AlignRight(0, 1)
	for _, r := range res.Indirect {
		it.Row(fmt.Sprintf("%g", float64(r.SizeBytes)/1024), r.PathLength)
	}
	text := "Conditional Branches\n" + ct.String() + "\nIndirect Branches\n" + it.String()
	return &Report{
		ID:    "table2",
		Title: "Table 2: Path Length Used for Fixed Length Predictor",
		Text:  text,
		Data:  res,
	}, nil
}

// Table3 reproduces the paper's Table 3: indirect misprediction rates on
// the eight indirect-heavy benchmarks at the 2 KB budget, for the Chang-
// Hao-Patt path and pattern caches and the fixed/variable length path
// predictors.
func (s *Suite) Table3(ctx context.Context) (*Report, error) {
	series, err := s.compare(ctx, "table3")
	if err != nil {
		return nil, err
	}
	tb := tablefmt.New("Benchmark", "path [3]", "pattern [3]", "FLP", "VLP").
		AlignRight(1, 2, 3, 4)
	for bi, b := range series.Benchmarks {
		tb.Row(b,
			fmt.Sprintf("%.2f%%", series.Rates[0][bi]),
			fmt.Sprintf("%.2f%%", series.Rates[1][bi]),
			fmt.Sprintf("%.2f%%", series.Rates[2][bi]),
			fmt.Sprintf("%.2f%%", series.Rates[3][bi]))
	}
	redPat, err := series.MeanReduction(patternCacheName, "variable length path")
	if err != nil {
		return nil, err
	}
	redFLP, err := series.MeanReduction(patternCacheName, "fixed length path")
	if err != nil {
		return nil, err
	}
	footer := fmt.Sprintf("\nmean misprediction reduction vs pattern cache: FLP %.1f%%, VLP %.1f%% (paper: 36.4%% / 54.3%%)\n",
		redFLP, redPat)
	return &Report{
		ID:    "table3",
		Title: "Table 3: Misprediction Rates for Indirect Branches on Selected Benchmarks (2KB)",
		Text:  tb.String() + footer,
		Data:  series,
	}, nil
}
