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

// Job is one column entry for RunMany: exactly one of Cond, Indirect,
// or Observer must be set.
type Job struct {
	// Cond is scored on conditional records (direction) and updated on
	// every record.
	Cond bpred.CondPredictor
	// Indirect is scored on indirect-target records and updated on
	// every record.
	Indirect bpred.IndirectPredictor
	// Observer is an update-only participant: it sees every record but
	// is never scored, and its Result carries zero counts. Columns use
	// observers for shared state advanced once per record on behalf of
	// several predictors (vlp.PathObserver), which is why observers are
	// placed after the predictors they serve.
	Observer bpred.Predictor
	// Tie keeps this job on the same worker as the previous job when
	// the column is sharded, preserving their relative step order per
	// record. Jobs that read state a later observer advances must be
	// tied into one run ending at that observer.
	Tie bool
}

// CondJob wraps a conditional predictor as a column entry.
func CondJob(p bpred.CondPredictor) Job { return Job{Cond: p} }

// IndirectJob wraps an indirect predictor as a column entry.
func IndirectJob(p bpred.IndirectPredictor) Job { return Job{Indirect: p} }

// ObserverJob wraps an update-only participant as a column entry, tied
// to the preceding job (observers exist to serve earlier jobs in the
// column, so they never start a new shard).
func ObserverJob(p bpred.Predictor) Job { return Job{Observer: p, Tie: true} }

// Pred returns the job's participant, whichever field is set.
func (j Job) Pred() bpred.Predictor {
	switch {
	case j.Cond != nil:
		return j.Cond
	case j.Indirect != nil:
		return j.Indirect
	default:
		return j.Observer
	}
}

// manyJob is the resolved per-job stepping state: the predictor under
// the field for its class, the optional fused-step fast path, and the
// result row it accumulates into.
type manyJob struct {
	cond    bpred.CondPredictor
	stepper bpred.CondStepper
	ind     bpred.IndirectPredictor
	obs     bpred.Predictor
	res     *Result
}

// RunMany replays src (after resetting it) once through every job in
// the column, returning one Result per job in job order. It is the one
// replay loop in the repository: RunCond and RunIndirect are its K=1
// case. Per record it performs one kind-dispatch and then steps each
// job: conditional jobs are scored on conditional records, indirect
// jobs on indirect-target records, observers never; every job's
// participant sees every record through Update (or the fused
// bpred.CondStepper step when the predictor provides it). Jobs are
// stepped in slice order for each record, so an observer placed after
// the jobs it serves advances shared state only after they have all
// trained.
//
// The source is replayed in windows. A *trace.Buffer is one window; any
// other source is read into one reused window of at most cancelStride
// records, so a streaming trace is never held in memory whole.
// Contiguous tie-runs of jobs are sharded across the engine pool
// (pool.Size): each worker owns disjoint jobs and replays the shared
// window independently, so there are no locks and the counts are
// bit-identical to a single-worker pass.
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
	shards := shardJobs(run, jobs)
	workers := pool.Size(len(shards))
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
		stepped := runShards(ctx, run, shards, recs, pos, workers)
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
		set := 0
		for _, p := range []bool{j.Cond != nil, j.Indirect != nil, j.Observer != nil} {
			if p {
				set++
			}
		}
		if set != 1 {
			panic(fmt.Sprintf("sim: RunMany job %d must set exactly one of Cond/Indirect/Observer, has %d", i, set))
		}
		results[i] = Result{Predictor: j.Pred().Name()}
		if opts.PerPC && j.Observer == nil {
			results[i].PerPC = make(map[arch.Addr]*PCStat)
		}
		run[i] = manyJob{cond: j.Cond, ind: j.Indirect, obs: j.Observer, res: &results[i]}
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

// runShards replays one window through every shard, on the calling
// goroutine when workers <= 1 and across a worker pool otherwise,
// returning the furthest replay position within the window. base is the
// window's first record index in the whole run. It is the unit the
// sharding tests drive directly with a forced worker count, since the
// assignment of shards to workers must not be observable in the counts.
func runShards(ctx context.Context, run []manyJob, shards [][]manyJob, recs []trace.Record, base, workers int) int {
	if workers <= 1 {
		return stepWindow(ctx, run, recs, base)
	}
	consumed := make([]int, len(shards))
	// Every shard is dispatched unconditionally — a shard skipped on
	// cancellation would leave its jobs' Result.Err nil with zero
	// counts, masquerading as a clean run — and a predictor panic must
	// not kill the process from a pool goroutine: pool.Fan captures it
	// and re-throws on this goroutine, where the usual fault boundary
	// (runx.Safe in pool.ForEach or the experiment driver) can classify
	// it.
	pool.Fan(workers, len(shards), func(i int) {
		consumed[i] = stepWindow(ctx, shards[i], recs, base)
	})
	// Workers that were canceled consumed less; the run as a whole
	// consumed what the furthest worker replayed (an uncanceled window
	// is consumed in full by every worker).
	return slices.Max(consumed)
}

// shardJobs splits the column into contiguous tie-runs: maximal spans
// of jobs that must stay together because each non-first member is tied
// to its predecessor. Sharding at tie-run granularity keeps every
// shared-state group (members plus their trailing observer) on one
// worker, in order.
func shardJobs(run []manyJob, jobs []Job) [][]manyJob {
	n := 0
	for i := range jobs {
		if i == 0 || !jobs[i].Tie {
			n++
		}
	}
	shards := make([][]manyJob, 0, n)
	start := 0
	for i := 1; i <= len(jobs); i++ {
		if i == len(jobs) || !jobs[i].Tie {
			shards = append(shards, run[start:i])
			start = i
		}
	}
	return shards
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
		case jb.ind != nil:
			if isInd {
				jb.res.account(r, jb.ind.Predict(r.PC) == r.Next)
			}
			jb.ind.Update(*r)
		default:
			jb.obs.Update(*r)
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
