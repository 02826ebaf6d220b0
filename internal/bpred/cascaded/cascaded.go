// Package cascaded implements a two-stage indirect predictor after Driesen
// and Hölzle (paper citations [6, 7]): a first-stage BTB indexed by branch
// address, and a second-stage path-history-indexed table whose entries are
// partially tagged and allocated *only on first-stage mispredictions*.
// The filtering keeps easy (monomorphic) branches out of the expensive
// history table, so its capacity serves the polymorphic branches.
//
// The paper's §5 text calls this family "the best competing predictor";
// the repository's indirect-field ablation pits it against the fixed and
// variable length path predictors.
package cascaded

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/bpred/counter"
	"repro/internal/reuse"
	"repro/internal/trace"
)

// Predictor is a two-stage cascaded indirect predictor.
type Predictor struct {
	btb     []uint32
	entries []entry
	hist    *counter.ShiftReg
	q       uint // path bits recorded per target
	btbMask uint64
	l2Mask  uint64
	name    string
}

// entries is the process-wide pool of second-stage tables.
var entries reuse.Pool[entry]

type entry struct {
	tag    uint16
	target uint32
	valid  bool
}

// New returns a cascaded predictor: 2^kBTB first-stage targets and 2^k2
// second-stage tagged entries over a path history of p targets, q bits
// each.
func New(kBTB, k2, p, q uint) (*Predictor, error) {
	if p == 0 || q == 0 || p*q > 64 {
		return nil, fmt.Errorf("cascaded: path history %dx%d invalid", p, q)
	}
	return &Predictor{
		btb:     reuse.Uint32.Zeroed(1 << kBTB),
		entries: entries.Zeroed(1 << k2),
		hist:    counter.NewShiftReg(p * q),
		q:       q,
		btbMask: 1<<kBTB - 1,
		l2Mask:  1<<k2 - 1,
		name:    fmt.Sprintf("cascaded(%d+%d)", 1<<kBTB, 1<<k2),
	}, nil
}

// NewBudget splits a hardware budget in bytes between the stages: a
// quarter to the BTB and the rest to the tagged second stage (6 bytes per
// entry: 32-bit target + 16-bit tag, rounded to power-of-two entries).
func NewBudget(budgetBytes int) (*Predictor, error) {
	if budgetBytes < 64 {
		return nil, fmt.Errorf("cascaded: budget %d bytes below the 64-byte minimum", budgetBytes)
	}
	kBTB, err := bpred.Log2Entries(budgetBytes/4, 32)
	if err != nil {
		return nil, fmt.Errorf("cascaded: %w", err)
	}
	// Second stage: 48-bit entries in the remaining 3/4 budget, rounded
	// down to a power of two.
	n := (budgetBytes * 3 / 4) * 8 / 48
	k2 := uint(0)
	for 1<<(k2+1) <= n {
		k2++
	}
	if k2 == 0 {
		return nil, fmt.Errorf("cascaded: budget %d too small for a tagged stage", budgetBytes)
	}
	q := (k2 + 2) / 3
	if q == 0 {
		q = 1
	}
	return New(kBTB, k2, 3, q)
}

// Name implements bpred.IndirectPredictor.
func (p *Predictor) Name() string { return p.name }

// Release implements bpred.Releaser.
func (p *Predictor) Release() {
	reuse.Uint32.Put(p.btb)
	entries.Put(p.entries)
	p.btb, p.entries = nil, nil
}

// SizeBytes implements bpred.IndirectPredictor: 32-bit BTB entries plus
// 48-bit tagged second-stage entries.
func (p *Predictor) SizeBytes() int {
	return len(p.btb)*4 + len(p.entries)*6
}

func (p *Predictor) l2Index(pc arch.Addr) uint64 {
	return (bpred.PCBits(pc) ^ p.hist.Value()) & p.l2Mask
}

// tag mixes the untruncated index with the branch address into a 16-bit
// partial tag, so aliased (pc, history) pairs rarely match.
func (p *Predictor) tag(pc arch.Addr) uint16 {
	v := bpred.PCBits(pc)*0x9e37 ^ p.hist.Value()*0x85eb
	return uint16(v ^ v>>16)
}

// Predict implements bpred.IndirectPredictor: the tagged stage wins when
// it has a matching entry, otherwise the BTB answers.
func (p *Predictor) Predict(pc arch.Addr) arch.Addr {
	e := p.entries[p.l2Index(pc)]
	if e.valid && e.tag == p.tag(pc) {
		return arch.Addr(e.target)
	}
	return arch.Addr(p.btb[bpred.PCBits(pc)&p.btbMask])
}

// Update implements bpred.IndirectPredictor. The BTB always learns the
// latest target; the tagged stage updates a matching entry, and allocates
// one only when the first stage alone would have mispredicted — the
// cascade's filtering rule.
func (p *Predictor) Update(r trace.Record) {
	if r.Kind.IndirectTarget() {
		btbSlot := bpred.PCBits(r.PC) & p.btbMask
		btbHit := arch.Addr(p.btb[btbSlot]) == r.Next
		idx := p.l2Index(r.PC)
		tag := p.tag(r.PC)
		e := &p.entries[idx]
		switch {
		case e.valid && e.tag == tag:
			e.target = uint32(r.Next)
		case !btbHit:
			*e = entry{tag: tag, target: uint32(r.Next), valid: true}
		}
		p.btb[btbSlot] = uint32(r.Next)
	}
	if r.Kind.RecordsInTHB() && r.Taken {
		p.hist.PushBits(bpred.PCBits(r.Next), p.q)
	}
}
