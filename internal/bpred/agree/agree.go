// Package agree implements the agree predictor of Sprangle, Chappell,
// Alsup and Patt (paper citation [18]): each branch carries a biasing bit
// (its first observed outcome), and the gshare-indexed pattern history
// table learns whether the branch *agrees* with its bias rather than its
// absolute direction. Two branches aliasing to the same counter usually
// both agree with their biases, so destructive interference becomes
// constructive — the same interference problem the variable length path
// predictor attacks by shortening histories (§5.3).
package agree

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/bpred/counter"
	"repro/internal/reuse"
	"repro/internal/trace"
)

// Predictor is an agree conditional predictor.
type Predictor struct {
	pht  *counter.Array // agree/disagree counters
	hist *counter.ShiftReg
	bias []uint8 // per-slot: bit 0 = biasing bit, bit 1 = valid
	k    uint
	bm   uint64
	mask uint64
	name string
}

// New returns an agree predictor whose counter table fits the budget in
// bytes; the biasing-bit table has 2^biasBits entries (in hardware it
// piggybacks on the BTB).
func New(budgetBytes int, biasBits uint) (*Predictor, error) {
	k, err := bpred.Log2Entries(budgetBytes, 2)
	if err != nil {
		return nil, fmt.Errorf("agree: %w", err)
	}
	if biasBits < 1 || biasBits > 30 {
		return nil, fmt.Errorf("agree: bias table width %d out of range", biasBits)
	}
	return &Predictor{
		pht:  counter.NewArray(1<<k, 2, 2), // init weakly-agree
		hist: counter.NewShiftReg(k),
		bias: reuse.Uint8.Zeroed(1 << biasBits),
		k:    k,
		bm:   1<<biasBits - 1,
		mask: 1<<k - 1,
		name: fmt.Sprintf("agree-%dB", (1<<k)/4),
	}, nil
}

// Name implements bpred.CondPredictor.
func (p *Predictor) Name() string { return p.name }

// Release implements bpred.Releaser.
func (p *Predictor) Release() {
	p.pht.Release()
	reuse.Uint8.Put(p.bias)
	p.bias = nil
}

// SizeBytes implements bpred.CondPredictor: the counter table plus the
// biasing bits (one valid + one bias bit per slot).
func (p *Predictor) SizeBytes() int {
	return p.pht.SizeBytes() + (len(p.bias)*2+7)/8
}

func (p *Predictor) index(pc arch.Addr) int {
	return int((bpred.PCBits(pc) ^ p.hist.Value()) & p.mask)
}

func (p *Predictor) biasSlot(pc arch.Addr) int { return int(bpred.PCBits(pc) & p.bm) }

// biasBit returns the branch's biasing bit, defaulting to taken when the
// slot has not been claimed yet.
func (p *Predictor) biasBit(pc arch.Addr) bool {
	b := p.bias[p.biasSlot(pc)]
	if b&2 == 0 {
		return true
	}
	return b&1 == 1
}

// Predict implements bpred.CondPredictor.
func (p *Predictor) Predict(pc arch.Addr) bool {
	agree := p.pht.Taken(p.index(pc))
	return agree == p.biasBit(pc)
}

// Update implements bpred.CondPredictor.
func (p *Predictor) Update(r trace.Record) {
	if r.Kind != arch.Cond {
		return
	}
	slot := p.biasSlot(r.PC)
	if p.bias[slot]&2 == 0 {
		// First encounter claims the slot; the first outcome becomes
		// the biasing bit, as in the original proposal.
		b := uint8(2)
		if r.Taken {
			b |= 1
		}
		p.bias[slot] = b
	}
	agreed := r.Taken == p.biasBit(r.PC)
	p.pht.Train(p.index(r.PC), agreed)
	p.hist.Push(r.Taken)
}
