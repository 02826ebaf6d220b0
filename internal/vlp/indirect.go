package vlp

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/reuse"
	"repro/internal/trace"
)

// Indirect is the path predictor for indirect branches (§3.1): a predictor
// table of target registers indexed by the selected hash function over the
// THB. Each register "was large enough to hold one target address"; per
// the paper's footnote, the low 32 bits are stored and the upper bits come
// from the current fetch region. An arch.Addr is 32 bits, so a register
// holds the whole address.
type Indirect struct {
	table []uint32
	mask  uint64
	hs    *HashSet
	sel   Selector
	opts  Options
	name  string
	stack *histStack // the history-stack extension, nil when off
}

// NewIndirect returns an indirect path predictor whose target table fits
// the given hardware budget in bytes (32-bit entries; the budget must map
// to a power-of-two table).
func NewIndirect(budgetBytes int, sel Selector, opts Options) (*Indirect, error) {
	k, err := bpred.Log2Entries(budgetBytes, 32)
	if err != nil {
		return nil, fmt.Errorf("vlp: %w", err)
	}
	return NewIndirectBits(k, sel, opts)
}

// NewIndirectBits returns an indirect path predictor with a 2^k-entry
// target table.
func NewIndirectBits(k uint, sel Selector, opts Options) (*Indirect, error) {
	hs, err := NewHashSet(k, opts.maxPath())
	if err != nil {
		return nil, err
	}
	if err := checkSelector(sel, hs.MaxPath()); err != nil {
		return nil, err
	}
	p := &Indirect{
		table: reuse.Uint32.Zeroed(1 << k),
		mask:  1<<k - 1,
		hs:    hs,
		sel:   sel,
		opts:  opts,
		name:  fmt.Sprintf("pathind[%s]-%dB", sel.Name(), 4<<k),
	}
	if opts.HistoryStack {
		p.stack = newHistStack(hs.MaxPath(), opts.HistoryCombine)
	}
	return p, nil
}

// Name implements bpred.IndirectPredictor.
func (p *Indirect) Name() string { return p.name }

// Release implements bpred.Releaser.
func (p *Indirect) Release() {
	reuse.Uint32.Put(p.table)
	p.table = nil
	p.stack.release()
}

// SizeBytes implements bpred.IndirectPredictor.
func (p *Indirect) SizeBytes() int { return len(p.table) * 4 }

// Selector returns the predictor's hash-function selector.
func (p *Indirect) Selector() Selector { return p.sel }

// HashSet exposes the THB and index registers for the profiling pipeline.
func (p *Indirect) HashSet() *HashSet { return p.hs }

func (p *Indirect) index(pc arch.Addr) uint64 {
	l := p.sel.Length(pc)
	if p.opts.NoRotation {
		var v uint32
		for j := 0; j < l; j++ {
			v ^= p.hs.Target(j)
		}
		return uint64(v)
	}
	return uint64(p.hs.Index(l))
}

// Predict implements bpred.IndirectPredictor.
func (p *Indirect) Predict(pc arch.Addr) arch.Addr {
	return arch.Addr(p.table[p.index(pc)&p.mask])
}

// Update implements bpred.IndirectPredictor: an indirect record writes its
// resolved target into the branch's own index before the target enters the
// THB; other THB-eligible records only extend the path.
func (p *Indirect) Update(r trace.Record) {
	if r.Kind.IndirectTarget() {
		p.table[p.index(r.PC)&p.mask] = uint32(r.Next)
	}
	p.ObservePath(r)
}

// ObservePath performs only the history-maintenance half of Update.
func (p *Indirect) ObservePath(r trace.Record) {
	observePath(p.hs, p.stack, p.opts.StoreReturns, r)
}
