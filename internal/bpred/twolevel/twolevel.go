// Package twolevel implements Yeh & Patt's Two-Level Adaptive Branch
// Predictor (§2) in its GAs and PAs variants.
//
// The first-level history records recent branch outcomes — in one global
// branch history register (GAs) or in one register per branch address
// (PAs). The second level is a table of 2-bit saturating counters indexed
// by the concatenation of branch-address bits and the history register, so
// the address bits select a pattern history table and the history selects
// the counter within it.
//
// These predictors are not in the paper's headline figures (gshare is the
// conditional baseline), but they are the lineage the paper builds on and
// the repository's ablation benchmarks use them to situate the path
// predictors.
package twolevel

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/bpred/counter"
	"repro/internal/reuse"
	"repro/internal/trace"
)

// GAs is a global-history two-level predictor: one global h-bit history
// register and 2^k counters indexed by {pc bits, history}.
type GAs struct {
	pht  *counter.Array
	hist *counter.ShiftReg
	h    uint
	mask uint64
	name string
}

// NewGAs returns a GAs predictor with a 2^k-entry counter table and h bits
// of global history (h <= k; the remaining k-h index bits come from the
// branch address).
func NewGAs(k, h uint) (*GAs, error) {
	if h == 0 || h > k {
		return nil, fmt.Errorf("twolevel: GAs history %d out of range 1..%d", h, k)
	}
	return &GAs{
		pht:  counter.NewArray(1<<k, 2, 1),
		hist: counter.NewShiftReg(h),
		h:    h,
		mask: 1<<k - 1,
		name: fmt.Sprintf("GAs(%d)-%dB", h, (1<<k)/4),
	}, nil
}

// NewGAsBudget returns a GAs predictor sized to the hardware budget in
// bytes, with h history bits.
func NewGAsBudget(budgetBytes int, h uint) (*GAs, error) {
	k, err := bpred.Log2Entries(budgetBytes, 2)
	if err != nil {
		return nil, fmt.Errorf("twolevel: %w", err)
	}
	return NewGAs(k, h)
}

// Name implements bpred.CondPredictor.
func (p *GAs) Name() string { return p.name }

// Release implements bpred.Releaser.
func (p *GAs) Release() { p.pht.Release() }

// SizeBytes implements bpred.CondPredictor; it reports the counter table
// (the history register is negligible, as in the paper's accounting).
func (p *GAs) SizeBytes() int { return p.pht.SizeBytes() }

func (p *GAs) index(pc arch.Addr) int {
	return int((bpred.PCBits(pc)<<p.h | p.hist.Value()) & p.mask)
}

// Predict implements bpred.CondPredictor.
func (p *GAs) Predict(pc arch.Addr) bool { return p.pht.Taken(p.index(pc)) }

// Update implements bpred.CondPredictor.
func (p *GAs) Update(r trace.Record) {
	if r.Kind != arch.Cond {
		return
	}
	p.pht.Train(p.index(r.PC), r.Taken)
	p.hist.Push(r.Taken)
}

// PAs is a per-address two-level predictor: a branch history table of 2^a
// h-bit registers indexed by branch address, and 2^k counters indexed by
// {pc bits, per-branch history}.
type PAs struct {
	pht     *counter.Array
	bht     []uint64
	a, h    uint
	histMsk uint64
	idxMask uint64
	name    string
}

// NewPAs returns a PAs predictor with 2^k counters, 2^a history registers,
// and h history bits per register.
func NewPAs(k, a, h uint) (*PAs, error) {
	if h == 0 || h > k || h > 64 {
		return nil, fmt.Errorf("twolevel: PAs history %d out of range 1..%d", h, k)
	}
	if a == 0 || a > 30 {
		return nil, fmt.Errorf("twolevel: PAs BHT size 2^%d out of range", a)
	}
	return &PAs{
		pht:     counter.NewArray(1<<k, 2, 1),
		bht:     reuse.Uint64.Zeroed(1 << a),
		a:       a,
		h:       h,
		histMsk: 1<<h - 1,
		idxMask: 1<<k - 1,
		name:    fmt.Sprintf("PAs(%d,%d)-%dB", a, h, (1<<k)/4),
	}, nil
}

// Name implements bpred.CondPredictor.
func (p *PAs) Name() string { return p.name }

// Release implements bpred.Releaser.
func (p *PAs) Release() {
	p.pht.Release()
	reuse.Uint64.Put(p.bht)
	p.bht = nil
}

// SizeBytes implements bpred.CondPredictor: counter table plus the branch
// history table, both of which are first-class storage in a PAs design.
func (p *PAs) SizeBytes() int {
	bhtBits := len(p.bht) * int(p.h)
	return p.pht.SizeBytes() + (bhtBits+7)/8
}

func (p *PAs) index(pc arch.Addr) int {
	hist := p.bht[bpred.PCBits(pc)&(1<<p.a-1)]
	return int((bpred.PCBits(pc)<<p.h | hist) & p.idxMask)
}

// Predict implements bpred.CondPredictor.
func (p *PAs) Predict(pc arch.Addr) bool { return p.pht.Taken(p.index(pc)) }

// Update implements bpred.CondPredictor.
func (p *PAs) Update(r trace.Record) {
	if r.Kind != arch.Cond {
		return
	}
	p.pht.Train(p.index(r.PC), r.Taken)
	slot := bpred.PCBits(r.PC) & (1<<p.a - 1)
	h := p.bht[slot] << 1
	if r.Taken {
		h |= 1
	}
	p.bht[slot] = h & p.histMsk
}
