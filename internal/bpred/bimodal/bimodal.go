// Package bimodal implements the classic per-address two-bit-counter
// predictor (Smith's bimodal scheme). It serves as the history-free anchor
// in the conditional-predictor comparisons and as the simple component of
// hybrid predictors.
package bimodal

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/bpred/counter"
	"repro/internal/trace"
)

// Predictor is a bimodal conditional predictor: a table of 2-bit counters
// indexed by branch address bits.
type Predictor struct {
	pht  *counter.Array
	mask uint64
	name string
}

// New returns a bimodal predictor fitting the given hardware budget in
// bytes (2-bit counters; the budget must map to a power-of-two table).
func New(budgetBytes int) (*Predictor, error) {
	k, err := bpred.Log2Entries(budgetBytes, 2)
	if err != nil {
		return nil, fmt.Errorf("bimodal: %w", err)
	}
	return NewBits(k), nil
}

// NewBits returns a bimodal predictor with a 2^k-entry counter table.
func NewBits(k uint) *Predictor {
	return &Predictor{
		pht:  counter.NewArray(1<<k, 2, 1),
		mask: 1<<k - 1,
		name: fmt.Sprintf("bimodal-%dB", (1<<k)/4),
	}
}

// Name implements bpred.CondPredictor.
func (p *Predictor) Name() string { return p.name }

// Release implements bpred.Releaser.
func (p *Predictor) Release() { p.pht.Release() }

// SizeBytes implements bpred.CondPredictor.
func (p *Predictor) SizeBytes() int { return p.pht.SizeBytes() }

func (p *Predictor) index(pc arch.Addr) int { return int(bpred.PCBits(pc) & p.mask) }

// Predict implements bpred.CondPredictor.
func (p *Predictor) Predict(pc arch.Addr) bool { return p.pht.Taken(p.index(pc)) }

// Update implements bpred.CondPredictor.
func (p *Predictor) Update(r trace.Record) {
	if r.Kind != arch.Cond {
		return
	}
	p.pht.Train(p.index(r.PC), r.Taken)
}
