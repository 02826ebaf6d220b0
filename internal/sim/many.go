package sim

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/engine/pool"
	"repro/internal/obs"
	"repro/internal/trace"
)

// This file is the fused replay kernel: one pass over a trace that steps
// a whole column of predictors per record — one record load, one
// kind-dispatch, K predict/update calls — instead of K separate passes.
// The paper's evaluation artifacts are grids of predictor configurations
// over shared benchmark traces (Table 2, Figures 5–10, the ablations),
// so the grid's dominant memory traffic is re-streaming the identical
// record slice once per cell; fusing the replay pays for the trace once.
//
// Correctness rests on predictor independence: each predictor is a
// deterministic state machine over the record stream, and the kernel
// steps every predictor on every record in program order, so each
// predictor sees exactly the stream it would see in its own sequential
// run and its counts are bit-identical to a K=1 run. The tests in
// many_test.go pin the kernel to an independent per-record reference
// loop.

// Job is one column entry for RunMany: exactly one of Cond or Indirect
// must be set. Each job's predictor owns all of its state, its path
// history included, so jobs are independent.
type Job struct {
	// Cond is scored on conditional records (direction) and updated on
	// every record.
	Cond bpred.CondPredictor
	// Indirect is scored on indirect-target records and updated on
	// every record.
	Indirect bpred.IndirectPredictor
}

// CondJob wraps a conditional predictor as a column entry.
func CondJob(p bpred.CondPredictor) Job { return Job{Cond: p} }

// IndirectJob wraps an indirect predictor as a column entry.
func IndirectJob(p bpred.IndirectPredictor) Job { return Job{Indirect: p} }

// Pred returns the job's predictor, whichever field is set.
func (j Job) Pred() bpred.Predictor {
	if j.Cond != nil {
		return j.Cond
	}
	return j.Indirect
}

// manyJob is the resolved per-job stepping state: the predictor under
// the field for its class, the optional fused-step fast path, and the
// result row it accumulates into.
type manyJob struct {
	cond    bpred.CondPredictor
	stepper bpred.CondStepper
	ind     bpred.IndirectPredictor
	res     *Result
}

// RunMany replays src (after resetting it) once through every job in
// the column, returning one Result per job in job order. It is the one
// replay loop in the repository: RunCond and RunIndirect are its K=1
// case. Per record it performs one kind-dispatch and then steps each
// job: conditional jobs are scored on conditional records, indirect
// jobs on indirect-target records; every job's predictor sees every
// record through Update (or the fused bpred.CondStepper step when the
// predictor provides it).
//
// The source is replayed in windows. A *trace.Buffer is one window; any
// other source is read into one reused window of at most cancelStride
// records, so a streaming trace is never held in memory whole.
// The column is cut into one contiguous run of jobs per worker of the
// engine pool (pool.Size): each worker owns disjoint jobs and replays
// the shared window independently, so there are no locks and the
// counts are bit-identical to a single-worker pass.
//
// The context is checked before every record whose index is a positive
// multiple of cancelStride; a canceled run stops there, on every source
// alike, with Result.Err set to the context's error, and a Buffer is
// left consumed up to the stop record. A Buffer replayed to its last
// record is complete even if the context is canceled after it. A source that fails mid-stream
// (trace.Reader.Err) marks every Result with the failure, because each
// predictor's run covered only the truncated prefix. Each Result's
// Metrics carries the whole pass's wall time with the job's own branch
// count pinned.
func RunMany(ctx context.Context, jobs []Job, src trace.Source, opts Options) []Result {
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	span := obs.StartSpan()
	run := newRun(jobs, results, opts)
	workers := pool.Size(len(run))
	src.Reset()
	buf, _ := src.(*trace.Buffer)
	var win []trace.Record // a streaming source's reused window
	pos := 0
	for {
		// A Buffer reaches the top of the loop again only once it is fully
		// replayed: a complete run, whatever the context says by then. A
		// stream's end is unknown until it is read, so a stream stops at
		// every boundary.
		if buf == nil && pos > 0 && pos%cancelStride == 0 && ctx.Err() != nil {
			setErr(results, ctx.Err())
			break
		}
		var recs []trace.Record
		if buf != nil {
			recs = buf.Records[pos:]
		} else {
			recs = win[:0]
			var r trace.Record
			for len(recs) < cancelStride && src.Next(&r) {
				recs = append(recs, r)
			}
			win = recs
		}
		if len(recs) == 0 {
			break
		}
		stepped := runShards(ctx, run, recs, pos, workers)
		pos += stepped
		if stepped < len(recs) || failed(results) {
			break // canceled inside the window
		}
	}
	if buf != nil {
		buf.Consume(pos)
	}
	if ec, ok := src.(interface{ Err() error }); ok {
		if err := ec.Err(); err != nil {
			for i := range results {
				if results[i].Err == nil {
					results[i].Err = err
				}
			}
		}
	}
	var scored int64
	for i := range results {
		scored += results[i].Branches
	}
	obs.CountBranches(scored)
	met := span.End()
	for i := range results {
		results[i].Metrics = met
		results[i].Metrics.Branches = results[i].Branches
		results[i].Metrics.BranchesPerSec = 0
		if wall := met.Wall(); wall > 0 {
			results[i].Metrics.BranchesPerSec = float64(results[i].Branches) / wall.Seconds()
		}
	}
	return results
}

// newRun validates the column and resolves each job into its stepping
// state, accumulating into results.
func newRun(jobs []Job, results []Result, opts Options) []manyJob {
	run := make([]manyJob, len(jobs))
	for i := range jobs {
		j := &jobs[i]
		if (j.Cond != nil) == (j.Indirect != nil) {
			panic(fmt.Sprintf("sim: RunMany job %d must set exactly one of Cond/Indirect", i))
		}
		results[i] = Result{Predictor: j.Pred().Name()}
		if opts.PerPC {
			results[i].PerPC = make(map[arch.Addr]*PCStat)
		}
		run[i] = manyJob{cond: j.Cond, ind: j.Indirect, res: &results[i]}
		if j.Cond != nil {
			run[i].stepper, _ = j.Cond.(bpred.CondStepper)
		}
	}
	return run
}

// failed reports whether any job's run has ended early.
func failed(results []Result) bool {
	for i := range results {
		if results[i].Err != nil {
			return true
		}
	}
	return false
}

func setErr(results []Result, err error) {
	for i := range results {
		results[i].Err = err
	}
}

// runShards replays one window through every job, on the calling
// goroutine when workers <= 1 and otherwise across a worker pool, the
// column cut into one contiguous run of jobs per worker, and returns
// the furthest replay position within the window. A worker steps each
// record through all of its jobs before it loads the next, so the
// record stream is read once per worker, not once per job. base is the
// window's first record index in the whole run. It is the unit the
// sharding tests drive directly with a forced worker count, since the
// assignment of jobs to workers must not be observable in the counts.
func runShards(ctx context.Context, run []manyJob, recs []trace.Record, base, workers int) int {
	if workers <= 1 {
		return stepWindow(ctx, run, recs, base)
	}
	consumed := make([]int, workers)
	// Every shard is dispatched unconditionally — a shard skipped on
	// cancellation would leave its jobs' Result.Err nil with zero
	// counts, masquerading as a clean run — and a predictor panic must
	// not kill the process from a pool goroutine: pool.Fan captures it
	// and re-throws on this goroutine, where the usual fault boundary
	// (runx.Safe in pool.ForEach or the experiment driver) can classify
	// it.
	pool.Fan(workers, workers, func(w int) {
		consumed[w] = stepWindow(ctx, run[w*len(run)/workers:(w+1)*len(run)/workers], recs, base)
	})
	// Workers that were canceled consumed less; the run as a whole
	// consumed what the furthest worker replayed (an uncanceled window
	// is consumed in full by every worker).
	return slices.Max(consumed)
}

// stepWindow replays one window through one worker's jobs, checking
// the context before every record inside the window whose run-wide
// index (base + i) is a multiple of cancelStride, and returns how many
// records it replayed. The window's first record is checked by RunMany
// before the window is read.
func stepWindow(ctx context.Context, run []manyJob, recs []trace.Record, base int) int {
	i := 0
	for {
		end := min(len(recs), i+cancelStride-(base+i)%cancelStride)
		for ; i < end; i++ {
			stepRecord(run, &recs[i])
		}
		if i == len(recs) {
			return i
		}
		if err := ctx.Err(); err != nil {
			for j := range run {
				run[j].res.Err = err
			}
			return i
		}
	}
}

// stepRecord steps one record through a column: the record's class is
// dispatched once, then each job predicts/scores/updates in order.
func stepRecord(run []manyJob, r *trace.Record) {
	isCond := r.Kind == arch.Cond
	isInd := r.Kind.IndirectTarget()
	for j := range run {
		jb := &run[j]
		switch {
		case jb.stepper != nil:
			if scored, correct := jb.stepper.StepCond(*r); scored {
				jb.res.account(r, correct)
			}
		case jb.cond != nil:
			if isCond {
				jb.res.account(r, jb.cond.Predict(r.PC) == r.Taken)
			}
			jb.cond.Update(*r)
		default:
			if isInd {
				jb.res.account(r, jb.ind.Predict(r.PC) == r.Next)
			}
			jb.ind.Update(*r)
		}
	}
}

// RunManyCond fuses a column of conditional predictors over one pass of
// src: the result at index i is what RunCond(ctx, preds[i], src, opts)
// would return, bit-identically, for counts and errors.
func RunManyCond(ctx context.Context, preds []bpred.CondPredictor, src trace.Source, opts Options) []Result {
	jobs := make([]Job, len(preds))
	for i, p := range preds {
		jobs[i] = CondJob(p)
	}
	return RunMany(ctx, jobs, src, opts)
}

// RunManyIndirect fuses a column of indirect predictors over one pass
// of src; the result at index i matches RunIndirect on preds[i].
func RunManyIndirect(ctx context.Context, preds []bpred.IndirectPredictor, src trace.Source, opts Options) []Result {
	jobs := make([]Job, len(preds))
	for i, p := range preds {
		jobs[i] = IndirectJob(p)
	}
	return RunMany(ctx, jobs, src, opts)
}
