// Pathdepth analyses how much path information each conditional branch of
// a workload needs (paper §5.3, after Evers et al.): it simulates ideal
// unbounded-table predictors at several path depths and reports, per
// benchmark, the distribution of "sufficient depth" over dynamic branch
// weight plus the worst deep-history branches.
//
//	pathdepth -bench gcc -n 200000
//	pathdepth -trace gcc.vlpt -top 10
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/analysis"
	"repro/internal/cliutil"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/runx"
	"repro/internal/trace"
)

func main() {
	var (
		bench     = flag.String("bench", "", "benchmark name")
		input     = flag.String("input", "test", "input set: test or profile")
		tracePath = flag.String("trace", "", "trace file (alternative to -bench)")
		n         = flag.Int("n", 200000, "suite base trace length for -bench")
		top       = flag.Int("top", 5, "show the N branches needing the deepest paths")
		minExec   = flag.Int64("min", 32, "ignore branches executed fewer times")
		verbose   = flag.Bool("v", false, "narrate progress to stderr")
	)
	var pflags obs.ProfileFlags
	pflags.Register(flag.CommandLine)
	flag.Parse()
	stop, err := pflags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pathdepth:", err)
		os.Exit(1)
	}
	ctx, cancelSignals := runx.WithSignals(context.Background())
	err = run(ctx, *bench, *input, *tracePath, *n, *top, *minExec,
		obs.NewLogger(os.Stderr, *verbose))
	cancelSignals()
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pathdepth:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, bench, input, tracePath string, n, top int, minExec int64, log *obs.Logger) error {
	src, err := cliutil.Resolve(ctx, cliutil.SourceSpec{
		Bench: bench, Input: input, Records: n, TracePath: tracePath,
	})
	if err != nil {
		return err
	}
	in := profile.NewInput(trace.Collect(src).Records)
	log.Progressf("trace source ready")
	span := obs.StartSpan()
	rep, err := analysis.Analyze(in, analysis.Config{MinExecutions: minExec})
	if err != nil {
		return err
	}
	log.Progressf("ideal-predictor sweep done: %s", span.End())
	fmt.Printf("analysed %d static conditional branches over %d dynamic executions\n",
		len(rep.Branches), rep.TotalExecuted)

	depths, weight := rep.SufficientDepthHistogram()
	fmt.Println("\ndynamic weight by sufficient path depth:")
	for i, d := range depths {
		fmt.Printf("  depth %-2d %6.2f%%\n", d, weight[i])
	}

	means := rep.MeanAccuracyAt()
	fmt.Println("\nideal accuracy by depth:")
	for i, d := range depths {
		fmt.Printf("  depth %-2d %6.2f%%\n", d, 100*means[i])
	}

	if top > 0 && len(rep.Branches) > 0 {
		type deep struct {
			pc   string
			d    int
			exec int64
			gain float64
		}
		var deeps []deep
		for _, b := range rep.Branches {
			i := b.BestDepthIndex(depths, 0.01)
			deeps = append(deeps, deep{
				pc:   b.PC.String(),
				d:    depths[i],
				exec: b.Executed,
				gain: b.Accuracy(i) - b.Accuracy(0),
			})
		}
		sort.Slice(deeps, func(i, j int) bool {
			if deeps[i].d != deeps[j].d {
				return deeps[i].d > deeps[j].d
			}
			return deeps[i].exec > deeps[j].exec
		})
		if len(deeps) > top {
			deeps = deeps[:top]
		}
		fmt.Printf("\n%d deepest-history branches:\n", len(deeps))
		for _, d := range deeps {
			fmt.Printf("  %-10s needs depth %-2d (%d execs, +%.1f%% over depth 0)\n",
				d.pc, d.d, d.exec, 100*d.gain)
		}
	}
	return nil
}
