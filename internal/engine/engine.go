// Package engine is the unified execution core for the paper's
// evaluation grid. The grid's unit of work is a cell: one benchmark
// trace replayed through one named column of predictor configurations.
// Every surface that measures cells — the experiment drivers, the
// sweep service's /v1/jobs worker, the distributed coordinator, the
// CLIs — describes them as engine.Cell values and submits them here,
// so planning (what cells exist), scheduling (dedup, worker pool) and
// execution (replay, panic isolation) live in one place instead of
// once per layer.
//
// The pipeline is Plan → Schedule → Execute:
//
//   - a Plan is an ordered list of cells, built declaratively by the
//     experiment grid builders (internal/experiments);
//   - scheduling dedups cells by their canonical Key within and across
//     plans (one Memo keyed by cell), so two experiments sharing a
//     (trace, column) cell replay it once, and fans unique cells out
//     over the engine's worker pool (engine/pool);
//   - execution replays each cell through the one kernel, sim.RunMany:
//     fused, or one predictor at a time under Config.PerCell — and the
//     measured rates are bit-identical across both, which the
//     differential tests pin.
package engine

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/bpred"
	"repro/internal/engine/pool"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Class is a cell's predictor class: every cell measures either
// conditional-direction or indirect-target predictors, never a mix.
type Class int

const (
	// ClassCond cells measure conditional branch direction predictors.
	ClassCond Class = iota
	// ClassIndirect cells measure indirect branch target predictors.
	ClassIndirect
)

// String returns the class's wire name ("cond" / "indirect"), the first
// component of a cell key.
func (c Class) String() string {
	if c == ClassIndirect {
		return "indirect"
	}
	return "cond"
}

// CondCell builds one conditional predictor of a column. Cells must
// return fresh predictors on every call: a cell may run more than once
// (the per-cell reference, a replay cut short by a cancellation), and the
// engine releases every predictor it built (bpred.Release) once the
// replay ends, handing its tables to the next cell's predictors. A
// cell that returned a predictor it keeps elsewhere would see that
// predictor's tables reused under it.
type CondCell func() (bpred.CondPredictor, error)

// IndirectCell builds one indirect predictor of a column, under the
// same contract as CondCell.
type IndirectCell func() (bpred.IndirectPredictor, error)

// Key is a cell's canonical identity: the predictor class, the
// benchmark trace it replays, and the column's content id. Two cells
// with equal keys must describe identical predictor columns — the id
// names the column's content, exactly as the experiment layer's
// memoization contract has always required — so the scheduler may
// serve either from one replay.
type Key struct {
	Class    Class
	Trace    string
	ColumnID string
}

// String renders the key as "class|trace|column-id": the form errors
// name a cell by, and the bytes perfbench's recorded grid digests hash.
func (k Key) String() string {
	return k.Class.String() + "|" + k.Trace + "|" + k.ColumnID
}

// Cell is the plan IR's unit: one benchmark trace replayed through one
// named column of predictor constructors. Exactly one of Cond or
// Indirect must be non-empty.
type Cell struct {
	// Trace names the benchmark whose test trace the column replays;
	// the engine's Source hook resolves it.
	Trace string
	// ColumnID names the column's content (e.g. "fig9",
	// "compare-cond-16384"). Two cells may share an id only if they
	// build identical predictor columns.
	ColumnID string
	// Cond holds the column's conditional cells (ClassCond).
	Cond []CondCell
	// Indirect holds the column's indirect cells (ClassIndirect).
	Indirect []IndirectCell
}

// Class returns the cell's predictor class.
func (c Cell) Class() Class {
	if len(c.Indirect) > 0 {
		return ClassIndirect
	}
	return ClassCond
}

// Key returns the cell's canonical identity.
func (c Cell) Key() Key {
	return Key{Class: c.Class(), Trace: c.Trace, ColumnID: c.ColumnID}
}

// Config wires an engine to its environment.
type Config struct {
	// Source resolves a cell's Trace name to a replayable trace source.
	// The suite hands its memoized test-trace cache here. Sources must
	// be independent views (separate read positions), since cells run
	// concurrently.
	Source func(trace string) (trace.Source, error)
	// PerCell replays every predictor alone — a K=1 kernel pass per
	// predictor — instead of one fused pass per column. The rates are
	// byte-identical either way; it is the reference the fused columns
	// are checked against.
	PerCell bool
}

// Counters is a snapshot of the engine's scheduling arithmetic.
type Counters struct {
	// Submitted counts every cell submission (Column calls plus plan
	// cells), including duplicates.
	Submitted int64
	// Executed counts cells that actually ran (memo misses), a replay
	// cut short by a cancellation included. Submitted - Executed
	// cells were served from a prior or in-flight replay.
	Executed int64
	// Deduped counts submissions served without a replay because the
	// cell's key was already scheduled — the work the unified engine
	// saves across experiments.
	Deduped int64
}

// Engine schedules and executes cells: one Memo entry per cell key,
// one bounded worker pool (engine/pool) for plan fan-out, one replay
// path per cell.
type Engine struct {
	cfg  Config
	cols Memo[Key, []float64]

	submitted atomic.Int64
	// planDups counts within-plan duplicates Execute collapsed before
	// they reached the memo.
	planDups atomic.Int64
}

// New returns an engine with an empty memo.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg}
}

// Counters returns a snapshot of the scheduling counters.
func (e *Engine) Counters() Counters {
	return Counters{
		Submitted: e.submitted.Load(),
		Executed:  e.cols.Computed(),
		Deduped:   e.cols.Shared() + e.planDups.Load(),
	}
}

// Column schedules one cell and returns each predictor's misprediction
// percentage in cell order. Results are memoized per canonical Key, so
// every surface that submits the same cell — the experiment grids, the
// sweep worker's experiments, tests — shares one replay. A partial
// replay (canceled context, failed source) is refused as a
// measurement; one cut short by a cancellation is also not memoized,
// so the next submission of the key replays it again.
func (e *Engine) Column(ctx context.Context, c Cell) ([]float64, error) {
	e.submitted.Add(1)
	if (len(c.Cond) > 0) == (len(c.Indirect) > 0) {
		return nil, fmt.Errorf("engine: cell %s must set exactly one of Cond/Indirect", c.Key())
	}
	return e.cols.Do(c.Key(), func() ([]float64, error) {
		return e.runCell(ctx, c)
	})
}

// runCell executes one cell: build fresh predictors, resolve the
// trace, replay, and reduce to percentages. Every predictor it built is
// released when it returns, whether the replay ran or not.
func (e *Engine) runCell(ctx context.Context, c Cell) ([]float64, error) {
	src, err := e.cfg.Source(c.Trace)
	if err != nil {
		return nil, err
	}
	built := make([]bpred.Predictor, 0, len(c.Cond)+len(c.Indirect))
	defer func() {
		for _, p := range built {
			bpred.Release(p)
		}
	}()
	jobs := make([]sim.Job, 0, len(c.Cond)+len(c.Indirect))
	for _, cell := range c.Indirect {
		p, err := cell()
		if err != nil {
			return nil, err
		}
		built = append(built, p)
		jobs = append(jobs, sim.IndirectJob(p))
	}
	for _, cell := range c.Cond {
		p, err := cell()
		if err != nil {
			return nil, err
		}
		built = append(built, p)
		jobs = append(jobs, sim.CondJob(p))
	}
	results, err := e.replay(ctx, jobs, src)
	if err != nil {
		return nil, err
	}
	return percents(results), nil
}

// ReplayCond measures a conditional column over src without
// memoization and returns the per-predictor results in predictor
// order, honouring Config.PerCell. Callers that need
// post-run predictor state (instrumentation counters) or replay a trace
// outside the Source hook use it; rate-only callers go through Column.
// A partial replay — canceled context or failed source — is refused as
// a measurement. It releases nothing: the caller owns preds, reads what
// it needs of them afterwards and then releases them.
func (e *Engine) ReplayCond(ctx context.Context, preds []bpred.CondPredictor, src trace.Source) ([]sim.Result, error) {
	return e.replay(ctx, condJobs(preds), src)
}

// replay runs a column's jobs over src: each job alone under PerCell,
// in one fused pass otherwise. Results come back in job order.
func (e *Engine) replay(ctx context.Context, jobs []sim.Job, src trace.Source) ([]sim.Result, error) {
	var results []sim.Result
	if e.cfg.PerCell {
		results = make([]sim.Result, len(jobs))
		for i := range jobs {
			results[i] = sim.RunMany(ctx, jobs[i:i+1], src, sim.Options{})[0]
		}
	} else {
		results = sim.RunMany(ctx, jobs, src, sim.Options{})
	}
	for i := range results {
		if err := results[i].Err; err != nil {
			return nil, err
		}
	}
	return results, nil
}

// condJobs lays a conditional column out as kernel jobs, one per
// predictor.
func condJobs(preds []bpred.CondPredictor) []sim.Job {
	jobs := make([]sim.Job, len(preds))
	for i, p := range preds {
		jobs[i] = sim.CondJob(p)
	}
	return jobs
}

func percents(results []sim.Result) []float64 {
	out := make([]float64, len(results))
	for i := range results {
		out[i] = results[i].Percent()
	}
	return out
}

// Execute schedules a plan: cells are deduped by Key within the plan
// (and, via the memo, across every previous submission),
// the unique cells fan out over the engine's worker pool, and each
// plan position receives its cell's rates in plan order. A failing
// cell fails alone; the aggregated *runx.SweepError (via pool.ForEach)
// names each failed cell while the other results still land.
func (e *Engine) Execute(ctx context.Context, p *Plan) ([][]float64, error) {
	cells := p.Cells()
	out := make([][]float64, len(cells))
	type slot struct {
		cell Cell
		idxs []int
	}
	var order []Key
	uniq := map[Key]*slot{}
	for i := range cells {
		k := cells[i].Key()
		s, ok := uniq[k]
		if !ok {
			s = &slot{cell: cells[i]}
			uniq[k] = s
			order = append(order, k)
		} else {
			e.submitted.Add(1)
			e.planDups.Add(1)
		}
		s.idxs = append(s.idxs, i)
	}
	err := pool.ForEach(ctx, len(order), func(i int) error {
		s := uniq[order[i]]
		rates, err := e.Column(ctx, s.cell)
		if err != nil {
			return err
		}
		for _, j := range s.idxs {
			out[j] = rates
		}
		return nil
	})
	return out, err
}
