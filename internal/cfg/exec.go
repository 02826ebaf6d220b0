package cfg

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// maxCallDepth bounds the executor's call stack. Synthetic workloads are
// expected to keep call/return pairs balanced; blowing this limit indicates
// a malformed workload, so the executor panics rather than silently
// corrupting the trace.
const maxCallDepth = 1 << 16

// Executor walks a Program, resolving branch behaviours and emitting one
// trace record per executed branch. It is the stand-in for running an
// instrumented binary: each Step is one control-transfer instruction
// retiring.
type Executor struct {
	prog  *Program
	seed  uint64
	env   *Env
	cur   BlockID
	stack []frame
	conds []CondFunc
	inds  []IndirectFunc
	wraps int64
}

// frame is one call-stack entry: the continuation block and the
// architectural return address (the instruction after the call), which is
// what the trace reports for the matching return — real hardware resumes
// at PC+4 of the call, and a return address stack predicts exactly that.
type frame struct {
	cont BlockID
	ret  arch.Addr
}

// NewExecutor prepares a run of prog with the given input seed. Two
// executors with the same (prog, seed) produce identical traces; different
// seeds model different program inputs.
func NewExecutor(prog *Program, seed uint64) *Executor {
	e := &Executor{
		prog:  prog,
		seed:  seed,
		env:   newEnv(len(prog.Blocks)),
		cur:   prog.Entry,
		conds: make([]CondFunc, len(prog.Blocks)),
		inds:  make([]IndirectFunc, len(prog.Blocks)),
	}
	rngs := make([]xrand.RNG, len(prog.Blocks)) // one allocation for every branch's stream
	for i, b := range prog.Blocks {
		rng := &rngs[i]
		switch {
		case b.Cond != nil:
			rng.Seed(branchSeed(seed, b.ID))
			e.conds[i] = b.Cond.NewCond(rng)
		case b.Ind != nil:
			rng.Seed(branchSeed(seed, b.ID))
			e.inds[i] = b.Ind.NewIndirect(rng, len(b.Targets))
		}
	}
	return e
}

// branchSeed derives the seed of the run-time random stream of one
// static branch. The derivation depends only on (seed, id), never on
// instantiation order, so adding a block to a workload does not perturb
// the streams of existing blocks.
func branchSeed(seed uint64, id BlockID) uint64 {
	return xrand.Mix64(seed) ^ xrand.Mix64(0x5b1ce1d1<<32|uint64(uint32(id)))
}

// Wraps reports how many times execution fell off the end of the program
// (a return with an empty call stack) and restarted at the entry block.
func (e *Executor) Wraps() int64 { return e.wraps }

// Step executes the current block's branch, fills in r, and advances to the
// successor. It always succeeds: programs are non-terminating by
// construction (a return with an empty stack restarts at the entry).
func (e *Executor) Step(r *trace.Record) {
	b := e.prog.Blocks[e.cur]
	pc := b.BranchPC()
	var nextID BlockID
	var next arch.Addr
	taken := true

	switch b.Kind {
	case arch.Cond:
		taken = e.conds[b.ID](e.env)
		if taken {
			nextID = b.TakenTo
			next = e.prog.Blocks[nextID].Addr
		} else {
			nextID = b.FallTo
			// Hardware falls through to PC+4; that address is the
			// path element even though the workload models the
			// successor as a separate block.
			next = pc.FallThrough()
		}
	case arch.Uncond:
		nextID = b.TakenTo
		next = e.prog.Blocks[nextID].Addr
	case arch.Call:
		e.push(b.FallTo, pc.FallThrough())
		nextID = b.TakenTo
		next = e.prog.Blocks[nextID].Addr
	case arch.IndirectCall:
		e.push(b.FallTo, pc.FallThrough())
		nextID = e.chooseTarget(b)
		next = e.prog.Blocks[nextID].Addr
	case arch.Indirect:
		nextID = e.chooseTarget(b)
		next = e.prog.Blocks[nextID].Addr
	case arch.Return:
		if len(e.stack) == 0 {
			// Program exit: restart at the entry, modelling the
			// benchmark harness invoking the program again.
			e.wraps++
			nextID = e.prog.Entry
			next = e.prog.Blocks[nextID].Addr
		} else {
			f := e.stack[len(e.stack)-1]
			e.stack = e.stack[:len(e.stack)-1]
			nextID = f.cont
			next = f.ret
		}
	default:
		panic(fmt.Sprintf("cfg: block %d has unexecutable kind %v", b.ID, b.Kind))
	}

	*r = trace.Record{PC: pc, Kind: b.Kind, Taken: taken, Next: next}

	e.env.Step++
	if b.Kind == arch.Cond {
		e.env.recordOutcome(b.ID, taken)
	}
	e.env.pushPath(nextID, next)
	e.cur = nextID
}

func (e *Executor) push(cont BlockID, ret arch.Addr) {
	if len(e.stack) >= maxCallDepth {
		panic(fmt.Sprintf("cfg: %s: call stack exceeded %d frames (unbalanced calls?)",
			e.prog.Name, maxCallDepth))
	}
	e.stack = append(e.stack, frame{cont: cont, ret: ret})
}

func (e *Executor) chooseTarget(b *Block) BlockID {
	idx := e.inds[b.ID](e.env)
	if idx < 0 || idx >= len(b.Targets) {
		panic(fmt.Sprintf("cfg: behaviour for block %d chose target %d of %d",
			b.ID, idx, len(b.Targets)))
	}
	return b.Targets[idx]
}

// Source adapts a (Program, seed) pair to trace.Source, emitting n records
// per replay. Reset restarts execution from scratch with the same seed, so
// every replay yields the identical stream — the property the profiling
// pipeline's multi-pass algorithm (§3.5) relies on. The executor is built
// on the first Next after construction or Reset, so a source that is
// reset before it is read builds one.
type Source struct {
	prog *Program
	seed uint64
	n    int
	exec *Executor
	cnt  int
}

// NewSource returns a replayable n-record trace of prog under the given
// input seed.
func NewSource(prog *Program, seed uint64, n int) *Source {
	return &Source{prog: prog, seed: seed, n: n}
}

// Next implements trace.Source.
func (s *Source) Next(r *trace.Record) bool {
	if s.cnt >= s.n {
		return false
	}
	if s.exec == nil {
		s.exec = NewExecutor(s.prog, s.seed)
	}
	s.exec.Step(r)
	s.cnt++
	return true
}

// Reset implements trace.Source.
func (s *Source) Reset() {
	s.exec = nil
	s.cnt = 0
}

// Len implements trace.Sized: every replay yields n records.
func (s *Source) Len() int { return s.n }
