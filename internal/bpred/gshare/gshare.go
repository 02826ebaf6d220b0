// Package gshare implements McFarling's gshare conditional branch
// predictor, the paper's baseline for conditional branches (§2, §5.1):
// "Gshare has since been considered the benchmark of choice for
// single-scheme branch predictors."
//
// A single global branch history register records the outcomes of the k
// most recent conditional branches; the index into a table of 2^k two-bit
// saturating counters is the XOR of that history with the branch address
// bits.
package gshare

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/bpred/counter"
	"repro/internal/trace"
)

// Predictor is a gshare conditional predictor.
type Predictor struct {
	pht  *counter.Array
	hist *counter.ShiftReg
	k    uint
	mask uint64
	name string
}

// New returns a gshare predictor whose pattern history table fits the given
// hardware budget in bytes: 2-bit counters, so a budget of B bytes yields
// 4·B counters and a history length of log2(4·B) bits. The budget must map
// to a power-of-two table.
func New(budgetBytes int) (*Predictor, error) {
	k, err := bpred.Log2Entries(budgetBytes, 2)
	if err != nil {
		return nil, fmt.Errorf("gshare: %w", err)
	}
	return NewBits(k), nil
}

// NewBits returns a gshare predictor with a 2^k-entry pattern history
// table and a k-bit global history register.
func NewBits(k uint) *Predictor {
	return &Predictor{
		pht:  counter.NewArray(1<<k, 2, 1),
		hist: counter.NewShiftReg(k),
		k:    k,
		mask: 1<<k - 1,
		name: fmt.Sprintf("gshare-%dB", (1<<k)/4),
	}
}

// Name implements bpred.CondPredictor.
func (p *Predictor) Name() string { return p.name }

// Release implements bpred.Releaser.
func (p *Predictor) Release() { p.pht.Release() }

// SizeBytes implements bpred.CondPredictor.
func (p *Predictor) SizeBytes() int { return p.pht.SizeBytes() }

// HistoryBits returns the global history length, which for gshare equals
// the index width.
func (p *Predictor) HistoryBits() uint { return p.k }

func (p *Predictor) index(pc arch.Addr) int {
	return int((bpred.PCBits(pc) ^ p.hist.Value()) & p.mask)
}

// Predict implements bpred.CondPredictor.
func (p *Predictor) Predict(pc arch.Addr) bool { return p.pht.Taken(p.index(pc)) }

// Update implements bpred.CondPredictor. Only conditional records train the
// table and the history; gshare ignores other branch kinds.
func (p *Predictor) Update(r trace.Record) {
	if r.Kind != arch.Cond {
		return
	}
	p.pht.Train(p.index(r.PC), r.Taken)
	p.hist.Push(r.Taken)
}

// StepCond implements bpred.CondStepper: the fused score-and-update
// step computes the index once — the history register only shifts after
// the counter is trained, so Predict and Update see the same index and
// one computation serves both.
func (p *Predictor) StepCond(r trace.Record) (scored, correct bool) {
	if r.Kind != arch.Cond {
		return false, false
	}
	i := p.index(r.PC)
	correct = p.pht.Taken(i) == r.Taken
	p.pht.Train(i, r.Taken)
	p.hist.Push(r.Taken)
	return true, correct
}
