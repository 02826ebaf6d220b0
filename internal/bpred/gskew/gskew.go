// Package gskew implements the skewed branch predictor of Michaud, Seznec
// and Uhlig (paper citation [15], "Trading conflict and capacity aliasing
// in conditional branch predictors"): three counter banks indexed by three
// different hashes of the same (address, history) pair, combined by
// majority vote. Two branches that collide in one bank almost never
// collide in the other two, so conflict aliasing is voted away at the
// cost of capacity — the third point in the interference-reduction
// triangle with agree and bi-mode.
package gskew

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/bpred/counter"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Predictor is a three-bank skewed conditional predictor.
type Predictor struct {
	banks [3]*counter.Array
	hist  *counter.ShiftReg
	mask  uint64
	name  string
}

// New returns a gskew predictor whose three banks together fit the given
// hardware budget in bytes (each bank gets a third, rounded down to a
// power of two).
func New(budgetBytes int) (*Predictor, error) {
	// Largest power-of-two bank with 3 banks within budget: bank bytes
	// <= budget/3.
	if budgetBytes < 3 {
		return nil, fmt.Errorf("gskew: budget %d bytes below one counter per bank", budgetBytes)
	}
	bankBudget := 1
	for bankBudget*2 <= budgetBytes/3 {
		bankBudget *= 2
	}
	k, err := bpred.Log2Entries(bankBudget, 2)
	if err != nil {
		return nil, fmt.Errorf("gskew: %w", err)
	}
	return NewBits(k), nil
}

// NewBits returns a gskew predictor with three 2^k-entry banks.
func NewBits(k uint) *Predictor {
	p := &Predictor{
		hist: counter.NewShiftReg(k),
		mask: 1<<k - 1,
		name: fmt.Sprintf("gskew-%dB", 3*(1<<k)/4),
	}
	for i := range p.banks {
		p.banks[i] = counter.NewArray(1<<k, 2, 1)
	}
	return p
}

// Name implements bpred.CondPredictor.
func (p *Predictor) Name() string { return p.name }

// Release implements bpred.Releaser.
func (p *Predictor) Release() {
	for _, b := range p.banks {
		b.Release()
	}
}

// SizeBytes implements bpred.CondPredictor.
func (p *Predictor) SizeBytes() int {
	return p.banks[0].SizeBytes() + p.banks[1].SizeBytes() + p.banks[2].SizeBytes()
}

// indexes produces the three skewed indices. The original uses H, H∘σ,
// H∘σ² over GF(2) matrices; distinct multiplicative mixes achieve the
// same inter-bank decorrelation here.
func (p *Predictor) indexes(pc arch.Addr) [3]int {
	v := bpred.PCBits(pc) ^ p.hist.Value()
	return [3]int{
		int(v & p.mask),
		int(xrand.Mix64(v^0x1) & p.mask),
		int(xrand.Mix64(v^0x2aad) & p.mask),
	}
}

// Predict implements bpred.CondPredictor: majority vote of the banks.
func (p *Predictor) Predict(pc arch.Addr) bool {
	idx := p.indexes(pc)
	votes := 0
	for i, b := range p.banks {
		if b.Taken(idx[i]) {
			votes++
		}
	}
	return votes >= 2
}

// Update implements bpred.CondPredictor. All banks train (total update;
// the original paper also studied partial update, which trains only the
// banks that voted with the outcome once the majority is correct).
func (p *Predictor) Update(r trace.Record) {
	if r.Kind != arch.Cond {
		return
	}
	idx := p.indexes(r.PC)
	for i, b := range p.banks {
		b.Train(idx[i], r.Taken)
	}
	p.hist.Push(r.Taken)
}
