// Package pipeline is a first-order front-end timing model that converts
// misprediction rates into cycles — the paper's opening motivation made
// concrete: "As the pipeline depths and the issue rates increase, the
// amount of speculative work that must be thrown away in the event of a
// branch misprediction also increases" (§1).
//
// The model fetches basic blocks from a branch trace at a given width,
// charges one cycle per fetch group, and charges a flat redirect penalty
// for every mispredicted conditional direction, indirect target, or
// return (predicted by a return address stack). It is deliberately not a
// microarchitectural simulator; it ranks predictor configurations by the
// cycle cost of their mispredictions on identical instruction streams.
//
// The cycle count is additive, so it is computed in two parts. Run walks
// the trace once and charges what depends on the trace alone: fetch
// groups and return-address misses. Charge then adds a predictor pair's
// conditional and indirect misses at the redirect penalty; those miss
// counts come from ordinary replays (package sim), so one trace pass
// serves every predictor pair.
package pipeline

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/bpred/ras"
	"repro/internal/trace"
)

// Params describes the modelled front end.
type Params struct {
	// Width is the fetch width in instructions per cycle (default 4).
	Width int
	// Penalty is the redirect penalty in cycles per misprediction
	// (default 10, a late-1990s deep pipeline).
	Penalty int
	// RASDepth sizes the return address stack (default 32).
	RASDepth int
}

func (p Params) width() int {
	if p.Width == 0 {
		return 4
	}
	return p.Width
}

func (p Params) penalty() int {
	if p.Penalty == 0 {
		return 10
	}
	return p.Penalty
}

func (p Params) rasDepth() int {
	if p.RASDepth == 0 {
		return 32
	}
	return p.RASDepth
}

func (p Params) validate() error {
	if p.width() < 1 {
		return fmt.Errorf("pipeline: width %d invalid", p.Width)
	}
	if p.penalty() < 0 {
		return fmt.Errorf("pipeline: penalty %d invalid", p.Penalty)
	}
	if p.rasDepth() < 1 {
		return fmt.Errorf("pipeline: RAS depth %d invalid", p.RASDepth)
	}
	return nil
}

// Result aggregates one run.
type Result struct {
	Cycles       int64
	Instructions int64
	Branches     int64
	// CondBranches and IndBranches count the branches a conditional and
	// an indirect predictor are scored on, exactly as package sim scores
	// them: conditionals, and indirect jumps and calls (returns go to the
	// return address stack).
	CondBranches int64
	IndBranches  int64
	// Mispredicts counts all redirects: conditional direction, indirect
	// target, and return-address misses.
	Mispredicts int64
	CondMiss    int64
	IndMiss     int64
	RetMiss     int64
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// MPKI returns mispredictions per thousand instructions, the standard
// cross-predictor figure of merit.
func (r Result) MPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return 1000 * float64(r.Mispredicts) / float64(r.Instructions)
}

// Speedup returns how many times faster this run is than base on the same
// instruction stream.
func (r Result) Speedup(base Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

// String renders the headline metrics.
func (r Result) String() string {
	return fmt.Sprintf("%d instrs, %d cycles, IPC %.2f, MPKI %.2f (%d cond + %d ind + %d ret misses)",
		r.Instructions, r.Cycles, r.IPC(), r.MPKI(), r.CondMiss, r.IndMiss, r.RetMiss)
}

// Run replays src through the front-end model with perfect conditional
// and indirect predictors: it charges instructions, fetch groups and
// return-address misses, and counts the branches each predictor class is
// scored on. Charge adds a predictor pair's misses to the result.
func Run(src trace.Source, p Params) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	stack, err := ras.New(p.rasDepth())
	if err != nil {
		return Result{}, err
	}
	width, penalty := int64(p.width()), int64(p.penalty())

	var res Result
	src.Reset()
	var r trace.Record
	prevNext := arch.Addr(0)
	for src.Next(&r) {
		// Instructions in the block ending at this branch: the distance
		// from the previous transfer's destination, plus the branch
		// itself. The first block and wrap-arounds clamp to one fetch
		// group.
		instrs := int64(1)
		if prevNext != 0 && r.PC >= prevNext {
			instrs = int64(r.PC-prevNext)/arch.InstrBytes + 1
		}
		if instrs < 1 || instrs > 64 {
			instrs = 1
		}
		prevNext = r.Next

		res.Instructions += instrs
		res.Cycles += (instrs + width - 1) / width
		res.Branches++

		switch {
		case r.Kind == arch.Cond:
			res.CondBranches++
		case r.Kind.IndirectTarget():
			res.IndBranches++
		case r.Kind == arch.Return:
			if stack.Predict() != r.Next {
				res.RetMiss++
				res.Mispredicts++
				res.Cycles += penalty
			}
		}
		stack.Update(r)
	}
	return res, nil
}

// Charge returns r with condMiss conditional and indMiss indirect
// mispredictions added, each at p's redirect penalty. On a Run result,
// the misses of one predictor pair's replays over the same trace give
// that front end's full cost.
func (r Result) Charge(p Params, condMiss, indMiss int64) Result {
	r.CondMiss += condMiss
	r.IndMiss += indMiss
	r.Mispredicts += condMiss + indMiss
	r.Cycles += int64(p.penalty()) * (condMiss + indMiss)
	return r
}
