// Package varhist implements a variable length *pattern* history
// predictor in the style of Tarlescu, Theobald and Gao's elastic history
// buffer (paper citation [21]): a gshare-like predictor in which the
// number of global-history bits XORed into the index is selected per
// static branch by profiling.
//
// It is the pattern-history counterpart of the paper's contribution — the
// same per-branch length-selection idea applied to outcome bits instead of
// target addresses — and the repository's ablations use it to separate how
// much of the variable length path predictor's win comes from *path*
// information versus from *variable length* alone.
package varhist

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/bpred/counter"
	"repro/internal/trace"
)

// Selector chooses the number of history bits (0..max) for each branch.
type Selector interface {
	Bits(pc arch.Addr) int
	Name() string
}

// Fixed uses the same history length everywhere; Fixed{N: k} is exactly
// gshare, Fixed{N: 0} is exactly bimodal.
type Fixed struct{ N int }

// Bits implements Selector.
func (f Fixed) Bits(arch.Addr) int { return f.N }

// Name implements Selector.
func (f Fixed) Name() string { return fmt.Sprintf("fixed(%d)", f.N) }

// PerBranch uses profiled per-branch history lengths with a default for
// unprofiled branches.
type PerBranch struct {
	Bits_   map[arch.Addr]int
	Default int
}

// Bits implements Selector.
func (p *PerBranch) Bits(pc arch.Addr) int {
	if b, ok := p.Bits_[pc]; ok {
		return b
	}
	return p.Default
}

// Name implements Selector.
func (p *PerBranch) Name() string {
	return fmt.Sprintf("profiled(%d branches,default %d)", len(p.Bits_), p.Default)
}

// Predictor is the variable length pattern history predictor.
type Predictor struct {
	pht  *counter.Array
	hist *counter.ShiftReg
	sel  Selector
	k    uint
	mask uint64
	name string
}

// New returns a predictor whose counter table fits the budget in bytes.
func New(budgetBytes int, sel Selector) (*Predictor, error) {
	k, err := bpred.Log2Entries(budgetBytes, 2)
	if err != nil {
		return nil, fmt.Errorf("varhist: %w", err)
	}
	return NewBits(k, sel)
}

// NewBits returns a predictor with a 2^k-entry counter table; selected
// history lengths are clamped to k bits.
func NewBits(k uint, sel Selector) (*Predictor, error) {
	if f, ok := sel.(Fixed); ok && (f.N < 0 || f.N > int(k)) {
		return nil, fmt.Errorf("varhist: fixed history %d out of range 0..%d", f.N, k)
	}
	return &Predictor{
		pht:  counter.NewArray(1<<k, 2, 1),
		hist: counter.NewShiftReg(k),
		sel:  sel,
		k:    k,
		mask: 1<<k - 1,
		name: fmt.Sprintf("varhist[%s]-%dB", sel.Name(), (1<<k)/4),
	}, nil
}

// Name implements bpred.CondPredictor.
func (p *Predictor) Name() string { return p.name }

// Release implements bpred.Releaser.
func (p *Predictor) Release() { p.pht.Release() }

// SizeBytes implements bpred.CondPredictor.
func (p *Predictor) SizeBytes() int { return p.pht.SizeBytes() }

func (p *Predictor) indexAt(pc arch.Addr, bits int) int {
	if bits < 0 {
		bits = 0
	}
	if bits > int(p.k) {
		bits = int(p.k)
	}
	h := p.hist.Value()
	if bits < 64 {
		h &= 1<<uint(bits) - 1
	}
	return int((bpred.PCBits(pc) ^ h) & p.mask)
}

func (p *Predictor) index(pc arch.Addr) int { return p.indexAt(pc, p.sel.Bits(pc)) }

// Predict implements bpred.CondPredictor.
func (p *Predictor) Predict(pc arch.Addr) bool { return p.pht.Taken(p.index(pc)) }

// Update implements bpred.CondPredictor.
func (p *Predictor) Update(r trace.Record) {
	if r.Kind != arch.Cond {
		return
	}
	p.pht.Train(p.index(r.PC), r.Taken)
	p.hist.Push(r.Taken)
}
