// Interpreter: build a bytecode-interpreter-style program from scratch with
// the cfg substrate — a dispatch loop whose next opcode follows an order-2
// Markov chain over the handlers — and compare every indirect predictor in
// the repository on it.
//
// This is the workload class behind the paper's strongest results: the
// dispatch branch's target is a deterministic function of the last few
// handler addresses, which is exactly what a path history of sufficient
// depth captures and what outcome-pattern history cannot see at all.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/bpred"
	"repro/internal/bpred/targetcache"
	"repro/internal/cfg"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vlp"
)

// buildInterpreter constructs: an outer driver loop; an inner dispatch loop
// executing ~200 bytecodes per program "run"; 12 opcode handlers, half of
// which contain a conditional branch.
func buildInterpreter() *cfg.Program {
	b := cfg.NewBuilder("interp", 0x10000, nil)

	outer := b.Cond(cfg.AlwaysTaken{})
	inner := b.Cond(cfg.LoopMix{Trips: []int{150, 250}})
	dispatch := b.IndirectBlock(cfg.MarkovTargets{Order: 2, Salt: 0xbeef, Noise: 0.02})
	exitJump := b.Jump()

	const handlers = 12
	for i := 0; i < handlers; i++ {
		if i%2 == 0 {
			h := b.Cond(cfg.Bias{P: 0.95})
			j := b.Jump()
			h.TakenTo, h.FallTo = j.ID, j.ID
			j.TakenTo = inner.ID
			dispatch.Targets = append(dispatch.Targets, h.ID)
		} else {
			h := b.Jump()
			h.TakenTo = inner.ID
			dispatch.Targets = append(dispatch.Targets, h.ID)
		}
	}

	outer.TakenTo = inner.ID
	outer.FallTo = exitJump.ID
	inner.TakenTo = dispatch.ID
	inner.FallTo = outer.ID
	exitJump.TakenTo = outer.ID

	prog, err := b.Finish(outer)
	if err != nil {
		log.Fatal(err)
	}
	return prog
}

func main() {
	prog := buildInterpreter()
	profileInput := trace.Collect(cfg.NewSource(prog, 1, 200000)) // input seed 1
	testInput := trace.Collect(cfg.NewSource(prog, 2, 200000))    // input seed 2

	const budget = 2 * 1024 // the paper's Figure 7/8 budget

	run := func(p bpred.IndirectPredictor) {
		fmt.Println(sim.RunIndirect(context.Background(), p, trace.NewBuffer(testInput.Records), sim.Options{}))
	}

	btb, err := targetcache.NewBTBBudget(budget)
	if err != nil {
		log.Fatal(err)
	}
	run(btb)

	pattern, err := targetcache.NewPatternBudget(budget)
	if err != nil {
		log.Fatal(err)
	}
	run(pattern)

	path, err := targetcache.NewPathBudget(budget)
	if err != nil {
		log.Fatal(err)
	}
	run(path)

	flp, err := vlp.NewIndirect(budget, vlp.Fixed{L: 8}, vlp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	run(flp)

	prof, _, err := profile.Indirect(trace.NewBuffer(profileInput.Records), profile.Config{TableBits: 9})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiled dispatch length: %v (default %d)\n", prof.Lengths, prof.Default)
	v, err := vlp.NewIndirect(budget, prof.Selector(), vlp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	run(v)
}
