// Package sim drives predictors over branch traces and aggregates
// misprediction statistics — the measurement loop of the paper's ATOM
// methodology (§5.1): every branch is predicted at fetch and the resolved
// record is fed back in program order; the reported metric is the
// misprediction rate over all dynamic branches of the predicted class.
package sim

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Result aggregates one predictor's run over one trace.
type Result struct {
	// Predictor is the predictor's Name().
	Predictor string
	// Branches counts the dynamic branches of the predicted class
	// (conditional, or indirect-with-computed-target).
	Branches int64
	// Mispredicts counts wrong predictions among them.
	Mispredicts int64
	// PerPC breaks mispredictions down by static branch when the run was
	// made with per-branch accounting; nil otherwise.
	PerPC map[arch.Addr]*PCStat
	// Metrics records what the run cost: wall time, branch throughput,
	// allocation, and GC activity. It is captured around every run.
	Metrics obs.RunMetrics
	// Err is non-nil when the run ended early: the source failed
	// mid-stream (a truncated or corrupt trace) or the context was
	// canceled. The counts cover only the records replayed before the
	// failure, so a Result with Err set must not be reported as a
	// clean measurement.
	Err error
}

// PCStat is the per-static-branch breakdown.
type PCStat struct {
	Branches    int64
	Mispredicts int64
}

// Rate returns the misprediction rate in [0, 1], or 0 for an empty run.
func (r Result) Rate() float64 {
	if r.Branches == 0 {
		return 0
	}
	return float64(r.Mispredicts) / float64(r.Branches)
}

// Percent returns the misprediction rate in percent, the unit of the
// paper's figures.
func (r Result) Percent() float64 { return 100 * r.Rate() }

// String summarises the result in one line.
func (r Result) String() string {
	return fmt.Sprintf("%s: %d/%d mispredicted (%.2f%%)",
		r.Predictor, r.Mispredicts, r.Branches, r.Percent())
}

// Options controls a run.
type Options struct {
	// PerPC enables the per-static-branch breakdown (costs a map lookup
	// per branch).
	PerPC bool
}

// cancelStride is how many records the kernel replays between context
// checks: frequent enough that cancellation lands within microseconds,
// rare enough that the atomic load cost vanishes in the loop. It also
// sizes the window a streaming source is read into.
const cancelStride = 1 << 16

// account books one scored branch into the result, including the per-PC
// breakdown when enabled.
func (res *Result) account(r *trace.Record, correct bool) {
	res.Branches++
	if !correct {
		res.Mispredicts++
	}
	if res.PerPC != nil {
		st := res.PerPC[r.PC]
		if st == nil {
			st = &PCStat{}
			res.PerPC[r.PC] = st
		}
		st.Branches++
		if !correct {
			st.Mispredicts++
		}
	}
}

// RunCond replays src (after resetting it) through a conditional
// predictor: the K=1 case of RunMany.
func RunCond(ctx context.Context, p bpred.CondPredictor, src trace.Source, opts Options) Result {
	return RunMany(ctx, []Job{CondJob(p)}, src, opts)[0]
}

// RunIndirect replays src (after resetting it) through an indirect
// predictor. Only indirect branches and indirect calls are scored; returns
// are excluded per §5.1.
func RunIndirect(ctx context.Context, p bpred.IndirectPredictor, src trace.Source, opts Options) Result {
	return RunMany(ctx, []Job{IndirectJob(p)}, src, opts)[0]
}

// WorstPCs returns the static branches with the most mispredictions,
// sorted descending, at most n of them. It requires a per-PC run.
func (r Result) WorstPCs(n int) []arch.Addr {
	pcs := make([]arch.Addr, 0, len(r.PerPC))
	for pc := range r.PerPC {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool {
		a, b := r.PerPC[pcs[i]], r.PerPC[pcs[j]]
		if a.Mispredicts != b.Mispredicts {
			return a.Mispredicts > b.Mispredicts
		}
		return pcs[i] < pcs[j]
	})
	if len(pcs) > n {
		pcs = pcs[:n]
	}
	return pcs
}
