// Frontend: feed one benchmark through the first-order pipeline timing
// model (internal/pipeline) under three predictor configurations —
// no speculation help (tiny bimodal + tiny BTB), a classic front end
// (gshare + pattern target cache), and the paper's path front end
// (profiled VLP for both branch classes) — and report IPC, MPKI, and
// speedup. This is the paper's §1 motivation measured end to end.
//
// The model's trace-only part (fetch groups, return-address misses) runs
// once; each configuration then replays its two predictors with package
// sim and charges their misses at the redirect penalty.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/bpred"
	"repro/internal/bpred/bimodal"
	"repro/internal/bpred/gshare"
	"repro/internal/bpred/targetcache"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vlp"
	"repro/internal/workload"
)

func main() {
	flag.Parse()
	name := "perl"
	if flag.NArg() > 0 {
		name = flag.Arg(0)
	}
	bench, err := workload.ByName(name)
	if err != nil {
		log.Fatal(err)
	}
	const records = 200000
	buf := trace.Collect(bench.TestSource(records))
	params := pipeline.Params{Width: 4, Penalty: 10}
	fe, err := pipeline.Run(buf, params)
	if err != nil {
		log.Fatal(err)
	}

	run := func(label string, cond bpred.CondPredictor, ind bpred.IndirectPredictor) pipeline.Result {
		ctx := context.Background()
		c := sim.RunCond(ctx, cond, trace.NewBuffer(buf.Records), sim.Options{})
		i := sim.RunIndirect(ctx, ind, trace.NewBuffer(buf.Records), sim.Options{})
		res := fe.Charge(params, c.Mispredicts, i.Mispredicts)
		fmt.Printf("%-22s %s\n", label, res)
		return res
	}

	tinyCond := bimodal.NewBits(6)
	tinyBTB, err := targetcache.NewBTBBudget(64)
	if err != nil {
		log.Fatal(err)
	}
	weak := run("minimal front end", tinyCond, tinyBTB)

	g, err := gshare.New(16 * 1024)
	if err != nil {
		log.Fatal(err)
	}
	pat, err := targetcache.NewPatternBudget(2048)
	if err != nil {
		log.Fatal(err)
	}
	classic := run("gshare + pattern", g, pat)

	cprof, _, err := profile.Cond(bench.ProfileSource(records), profile.Config{TableBits: 16})
	if err != nil {
		log.Fatal(err)
	}
	vc, err := vlp.NewCond(16*1024, cprof.Selector(), vlp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	iprof, _, err := profile.Indirect(bench.ProfileSource(records), profile.Config{TableBits: 9})
	if err != nil {
		log.Fatal(err)
	}
	vi, err := vlp.NewIndirect(2048, iprof.Selector(), vlp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	path := run("VLP path front end", vc, vi)

	fmt.Printf("\nspeedup over minimal: classic %.3fx, path %.3fx\n",
		classic.Speedup(weak), path.Speedup(weak))
	fmt.Printf("speedup of path over classic: %.3fx\n", path.Speedup(classic))
}
