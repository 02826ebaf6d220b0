// Package engine is the unified execution core for the paper's
// evaluation grid. The grid's unit of work is a cell: one benchmark
// trace replayed through one named column of predictor configurations.
// Every surface that measures cells — the experiment drivers, the
// sweep service's /v1/jobs worker, the distributed coordinator, the
// CLIs — describes them as engine.Cell values and submits them here,
// so planning (what cells exist), scheduling (dedup, worker pool) and
// execution (replay, checkpointing, panic isolation) live in
// one place instead of once per layer.
//
// The pipeline is Plan → Schedule → Execute:
//
//   - a Plan is an ordered list of cells, built declaratively by the
//     experiment grid builders (internal/experiments);
//   - scheduling dedups cells by their canonical Key within and across
//     plans (singleflight per key), so two experiments sharing a
//     (trace, column) cell replay it once, and fans unique cells out
//     over the engine's worker pool (engine/pool);
//   - execution replays each cell through the one kernel, sim.RunMany:
//     fused, segmented with snapshot checkpoints when Config.SnapDir is
//     set (checkpoint.go), or one predictor at a time under
//     Config.PerCell — and the measured rates are bit-identical across
//     all three, which the differential tests pin.
package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/bpred"
	"repro/internal/engine/pool"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vlp"
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
// return fresh predictors on every call: the column builder may rebind
// their path history for sharing, and a cell may run more than once
// (the per-cell reference, a NoDedup benchmark loop).
type CondCell func() (bpred.CondPredictor, error)

// IndirectCell builds one indirect predictor of a column.
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

// String renders the key's wire form, "class|trace|column-id", the
// format cell jobs carry over the sweep service's /v1/jobs API.
func (k Key) String() string {
	return k.Class.String() + "|" + k.Trace + "|" + k.ColumnID
}

// ParseKey parses the wire form back into a Key.
func ParseKey(s string) (Key, error) {
	parts := strings.SplitN(s, "|", 3)
	if len(parts) != 3 || parts[1] == "" || parts[2] == "" {
		return Key{}, fmt.Errorf("engine: malformed cell key %q, want class|trace|column-id", s)
	}
	k := Key{Trace: parts[1], ColumnID: parts[2]}
	switch parts[0] {
	case "cond":
		k.Class = ClassCond
	case "indirect":
		k.Class = ClassIndirect
	default:
		return Key{}, fmt.Errorf("engine: unknown cell class %q in key %q", parts[0], s)
	}
	return k, nil
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
	// predictor, no shared path history — instead of one fused pass
	// per column. The rates are byte-identical either way; it is the
	// reference the fused columns are checked against.
	PerCell bool
	// SnapDir, when set, names a directory for column replay
	// checkpoints: a fused cell over an in-memory trace whose every
	// participant is a bpred.StateCodec replays segmented, persisting
	// every predictor's state (internal/snap format) so a killed or
	// requeued run resumes from the last checkpoint instead of record
	// zero.
	SnapDir string
	// NoDedup disables the per-key singleflight so every submission
	// replays, even for a key already computed. Only the dedup
	// benchmark uses it; production surfaces always dedup.
	NoDedup bool
}

// flight is a once-guarded computation cell: the first caller runs the
// work, every concurrent or later caller blocks on (and shares) the
// same result.
type flight struct {
	once sync.Once
	val  []float64
	err  error
}

func (f *flight) do(fn func() ([]float64, error)) ([]float64, error) {
	f.once.Do(func() { f.val, f.err = fn() })
	return f.val, f.err
}

// Counters is a snapshot of the engine's scheduling arithmetic.
type Counters struct {
	// Submitted counts every cell submission (Column calls plus plan
	// cells), including duplicates.
	Submitted int64
	// Executed counts cells that actually replayed (singleflight
	// misses). Submitted - Executed cells were served from a prior or
	// in-flight replay.
	Executed int64
	// Deduped counts submissions served without a replay because the
	// cell's key was already scheduled — the work the unified engine
	// saves across experiments.
	Deduped int64
	// ResumedRecords counts trace records segmented replays skipped by
	// restoring checkpoints from Config.SnapDir.
	ResumedRecords int64
}

// Engine schedules and executes cells: one singleflight per cell key,
// one bounded worker pool (engine/pool) for plan fan-out, one replay
// path per cell.
type Engine struct {
	cfg Config

	mu   sync.Mutex
	cols map[Key]*flight

	submitted      atomic.Int64
	executed       atomic.Int64
	deduped        atomic.Int64
	resumedRecords atomic.Int64
}

// New returns an engine with empty caches.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg, cols: map[Key]*flight{}}
}

// Counters returns a snapshot of the scheduling counters.
func (e *Engine) Counters() Counters {
	return Counters{
		Submitted:      e.submitted.Load(),
		Executed:       e.executed.Load(),
		Deduped:        e.deduped.Load(),
		ResumedRecords: e.resumedRecords.Load(),
	}
}

// flightFor returns the singleflight cell for a key and whether it
// already existed (a duplicate submission).
func (e *Engine) flightFor(k Key) (f *flight, existed bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f, existed = e.cols[k]
	if !existed {
		f = &flight{}
		e.cols[k] = f
	}
	return f, existed
}

// Column schedules one cell and returns each predictor's misprediction
// percentage in cell order. Results are memoized per canonical Key
// under the engine's singleflight discipline, so every surface that
// submits the same cell — an experiment grid, the sweep service's job
// workers, tests — shares one replay. A partial replay (canceled
// context, failed source) is refused as a measurement.
func (e *Engine) Column(ctx context.Context, c Cell) ([]float64, error) {
	e.submitted.Add(1)
	if (len(c.Cond) > 0) == (len(c.Indirect) > 0) {
		return nil, fmt.Errorf("engine: cell %s must set exactly one of Cond/Indirect", c.Key())
	}
	if e.cfg.NoDedup {
		return e.runCell(ctx, c)
	}
	f, existed := e.flightFor(c.Key())
	if existed {
		e.deduped.Add(1)
	}
	return f.do(func() ([]float64, error) {
		return e.runCell(ctx, c)
	})
}

// runCell executes one cell: build fresh predictors, resolve the
// trace, replay, and reduce to percentages.
func (e *Engine) runCell(ctx context.Context, c Cell) ([]float64, error) {
	src, err := e.cfg.Source(c.Trace)
	if err != nil {
		return nil, err
	}
	var jobs []sim.Job
	var order []int
	if c.Class() == ClassIndirect {
		jobs = make([]sim.Job, len(c.Indirect))
		for i, cell := range c.Indirect {
			p, err := cell()
			if err != nil {
				return nil, err
			}
			jobs[i] = sim.IndirectJob(p)
		}
	} else {
		preds := make([]bpred.CondPredictor, len(c.Cond))
		for i, cell := range c.Cond {
			p, err := cell()
			if err != nil {
				return nil, err
			}
			preds[i] = p
		}
		jobs, order = e.condJobs(preds)
	}
	e.executed.Add(1)
	results, err := e.replay(ctx, c.Key(), jobs, order, src)
	if err != nil {
		return nil, err
	}
	return percents(results), nil
}

// ReplayCond measures a conditional column over src without
// memoization or checkpointing and returns the per-predictor results in
// predictor order, honouring Config.PerCell. Callers that need
// post-run predictor state (instrumentation counters) or replay a trace
// outside the Source hook use it; rate-only callers go through Column.
// A partial replay — canceled context or failed source — is refused as
// a measurement.
func (e *Engine) ReplayCond(ctx context.Context, preds []bpred.CondPredictor, src trace.Source) ([]sim.Result, error) {
	jobs, order := e.condJobs(preds)
	return e.replay(ctx, Key{}, jobs, order, src)
}

// replay runs a column's jobs over src: each job alone under PerCell;
// segmented with checkpoints when key names a cell (is not zero),
// SnapDir is set, the trace is an in-memory buffer and every
// participant is a StateCodec; and in one fused pass otherwise. order maps each predictor to its job
// (nil: the identity); results come back in predictor order.
func (e *Engine) replay(ctx context.Context, key Key, jobs []sim.Job, order []int, src trace.Source) ([]sim.Result, error) {
	var results []sim.Result
	buf, inMemory := src.(*trace.Buffer)
	switch {
	case e.cfg.PerCell:
		results = make([]sim.Result, len(jobs))
		for i := range jobs {
			results[i] = sim.RunMany(ctx, jobs[i:i+1], src, sim.Options{})[0]
		}
	case key != (Key{}) && e.cfg.SnapDir != "" && inMemory && checkpointable(jobs):
		results = e.runColumnCheckpointed(ctx, key, jobs, buf)
	default:
		results = sim.RunMany(ctx, jobs, src, sim.Options{})
	}
	for i := range results {
		if err := results[i].Err; err != nil {
			return nil, err
		}
	}
	if order == nil {
		return results, nil
	}
	out := make([]sim.Result, len(order))
	for pi, ji := range order {
		out[pi] = results[ji]
	}
	return out, nil
}

// condJobs lays a conditional column out as kernel jobs. Under PerCell
// every predictor is its own job with its own history. Otherwise
// predictors that share a path-history configuration become a tie-run —
// members first, then the observer that advances their shared history
// once per record — and everything else runs as an independent job;
// grouping permutes the order, so the job index of each predictor is
// returned alongside.
func (e *Engine) condJobs(preds []bpred.CondPredictor) ([]sim.Job, []int) {
	if e.cfg.PerCell {
		jobs := make([]sim.Job, len(preds))
		for i, p := range preds {
			jobs[i] = sim.CondJob(p)
		}
		return jobs, nil
	}
	groups := vlp.ShareCondHistories(preds)
	jobs := make([]sim.Job, 0, len(preds)+len(groups))
	order := make([]int, len(preds))
	for i := range order {
		order[i] = -1
	}
	for _, g := range groups {
		for mi, p := range g.Members {
			j := sim.CondJob(preds[p])
			j.Tie = mi > 0
			order[p] = len(jobs)
			jobs = append(jobs, j)
		}
		jobs = append(jobs, sim.ObserverJob(g.Observer))
	}
	for i, p := range preds {
		if order[i] < 0 {
			order[i] = len(jobs)
			jobs = append(jobs, sim.CondJob(p))
		}
	}
	return jobs, order
}

func percents(results []sim.Result) []float64 {
	out := make([]float64, len(results))
	for i := range results {
		out[i] = results[i].Percent()
	}
	return out
}

// noteDuplicate books a within-plan duplicate submission that the
// scheduler collapsed before reaching Column.
func (e *Engine) noteDuplicate() {
	e.submitted.Add(1)
	e.deduped.Add(1)
}

// Execute schedules a plan: cells are deduped by Key within the plan
// (and, via the singleflight cache, across every previous submission),
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
			e.noteDuplicate()
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
