package vlp

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/reuse"
	"repro/internal/trace"
)

// MissBreakdown classifies a conditional path predictor's mispredictions
// by their proximate cause, making §5.3's interference argument directly
// measurable: "If parts of the path that have no bearing on the outcome
// ... are included in the history, an unnecessarily high number of
// predictor table entries will be used ... longer training times and more
// interference."
type MissBreakdown struct {
	// Branches and Misses are the totals.
	Branches, Misses int64
	// Cold misses hit a counter no branch has trained yet (training
	// time).
	Cold int64
	// Interference misses hit a counter last trained by a *different*
	// static branch (destructive aliasing).
	Interference int64
	// Intrinsic misses hit the branch's own trained counter (the
	// branch's own behaviour, or self-conflict among its contexts).
	Intrinsic int64
}

// Rate returns the overall misprediction rate.
func (m MissBreakdown) Rate() float64 {
	if m.Branches == 0 {
		return 0
	}
	return float64(m.Misses) / float64(m.Branches)
}

// Share returns the fraction of all misses attributed to the given count.
func (m MissBreakdown) Share(count int64) float64 {
	if m.Misses == 0 {
		return 0
	}
	return float64(count) / float64(m.Misses)
}

// String renders the breakdown.
func (m MissBreakdown) String() string {
	return fmt.Sprintf("%.2f%% miss (%.0f%% cold, %.0f%% interference, %.0f%% intrinsic)",
		100*m.Rate(), 100*m.Share(m.Cold), 100*m.Share(m.Interference), 100*m.Share(m.Intrinsic))
}

// InstrumentedCond is a Cond that tracks, per predictor-table entry, which
// static branch last trained it, and classifies every misprediction.
// It predicts identically to the wrapped configuration; the bookkeeping is
// measurement-only.
type InstrumentedCond struct {
	*Cond
	lastWriter []uint32 // each entry's last trainer's PC; 0 = never trained
	Stats      MissBreakdown
}

// NewInstrumentedCond builds an instrumented conditional path predictor.
func NewInstrumentedCond(budgetBytes int, sel Selector, opts Options) (*InstrumentedCond, error) {
	inner, err := NewCond(budgetBytes, sel, opts)
	if err != nil {
		return nil, err
	}
	return &InstrumentedCond{
		Cond:       inner,
		lastWriter: reuse.Uint32.Zeroed(inner.pht.Len()),
	}, nil
}

// Release implements bpred.Releaser. The Stats stay readable.
func (c *InstrumentedCond) Release() {
	c.Cond.Release()
	reuse.Uint32.Put(c.lastWriter)
	c.lastWriter = nil
}

// Update implements bpred.CondPredictor with classification.
func (c *InstrumentedCond) Update(r trace.Record) {
	if r.Kind == arch.Cond {
		c.classifyAndTrain(&r)
	}
	c.ObservePath(r)
}

// StepCond implements bpred.CondStepper, shadowing the embedded Cond's
// fused step: the wrapper changes Update (classification), so the fused
// path must classify too or an instrumented run through the column
// kernel would silently lose its Stats.
func (c *InstrumentedCond) StepCond(r trace.Record) (scored, correct bool) {
	if r.Kind == arch.Cond {
		correct = c.classifyAndTrain(&r)
		scored = true
	}
	c.ObservePath(r)
	return scored, correct
}

// classifyAndTrain books one conditional branch: classify a miss by
// what the counter last held, then train — the shared body of Update
// and StepCond. It returns whether the prediction was correct.
func (c *InstrumentedCond) classifyAndTrain(r *trace.Record) bool {
	idx := c.index(r.PC)
	c.Stats.Branches++
	correct := c.pht.Taken(idx) == r.Taken
	if !correct {
		c.Stats.Misses++
		switch c.lastWriter[idx] {
		case 0:
			c.Stats.Cold++
		case uint32(r.PC):
			c.Stats.Intrinsic++
		default:
			c.Stats.Interference++
		}
	}
	c.pht.Train(idx, r.Taken)
	c.lastWriter[idx] = uint32(r.PC)
	return correct
}
