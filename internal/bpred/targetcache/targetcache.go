// Package targetcache implements the baseline indirect-branch predictors
// the paper compares against (§2, §5.1): the "tagless" pattern-based and
// path-based target caches of Chang, Hao and Patt, plus a branch target
// buffer (BTB) as the history-free anchor.
//
// A target cache is a table of target addresses indexed by a hash of
// first-level history with the branch address. The pattern variant's
// history is the outcomes of recent conditional branches; the path
// variant's history is q low-order bits from each of the last p branch
// targets. Following the paper's footnote, table entries hold the low 32
// bits of the target; the upper bits come from the current fetch region and
// are assumed correct. An arch.Addr is 32 bits, so an entry holds the whole
// address.
package targetcache

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/bpred/counter"
	"repro/internal/reuse"
	"repro/internal/trace"
)

// targetTable is the shared second level: 2^k 32-bit target registers.
type targetTable struct {
	entries []uint32
	mask    uint64
}

func newTargetTable(k uint) *targetTable {
	return &targetTable{entries: reuse.Uint32.Zeroed(1 << k), mask: 1<<k - 1}
}

// release returns the registers to the process-wide pool.
func (t *targetTable) release() {
	reuse.Uint32.Put(t.entries)
	t.entries = nil
}

func (t *targetTable) predict(idx uint64) arch.Addr {
	return arch.Addr(t.entries[idx&t.mask])
}

func (t *targetTable) update(idx uint64, target arch.Addr) {
	t.entries[idx&t.mask] = uint32(target)
}

func (t *targetTable) sizeBytes() int { return len(t.entries) * 4 }

// Pattern is the pattern-based target cache: first-level history is a
// global register of recent conditional branch outcomes, XORed with the
// branch address bits to index the target table.
type Pattern struct {
	table *targetTable
	hist  *counter.ShiftReg
	name  string
}

// NewPattern returns a pattern-based target cache with 2^k entries and a
// k-bit outcome history.
func NewPattern(k uint) *Pattern {
	return &Pattern{
		table: newTargetTable(k),
		hist:  counter.NewShiftReg(k),
		name:  fmt.Sprintf("pattern-%dB", 4<<k),
	}
}

// NewPatternBudget sizes the cache to a hardware budget in bytes (32-bit
// entries; the budget must map to a power-of-two table).
func NewPatternBudget(budgetBytes int) (*Pattern, error) {
	k, err := bpred.Log2Entries(budgetBytes, 32)
	if err != nil {
		return nil, fmt.Errorf("targetcache: %w", err)
	}
	return NewPattern(k), nil
}

// Name implements bpred.IndirectPredictor.
func (p *Pattern) Name() string { return p.name }

// Release implements bpred.Releaser.
func (p *Pattern) Release() { p.table.release() }

// SizeBytes implements bpred.IndirectPredictor.
func (p *Pattern) SizeBytes() int { return p.table.sizeBytes() }

func (p *Pattern) index(pc arch.Addr) uint64 { return bpred.PCBits(pc) ^ p.hist.Value() }

// Predict implements bpred.IndirectPredictor.
func (p *Pattern) Predict(pc arch.Addr) arch.Addr { return p.table.predict(p.index(pc)) }

// Update implements bpred.IndirectPredictor: conditional records extend the
// outcome history; indirect records write their resolved target.
func (p *Pattern) Update(r trace.Record) {
	switch {
	case r.Kind == arch.Cond:
		p.hist.Push(r.Taken)
	case r.Kind.IndirectTarget():
		p.table.update(p.index(r.PC), r.Next)
	}
}

// Path is the path-based target cache: first-level history is a shift
// register holding q low-order target-address bits from each of the last p
// recorded branches, XORed with the branch address bits to index the
// target table. The recorded branches are those that transfer to an
// explicit target: taken conditionals, indirect branches, and indirect
// calls — the same events the paper's Target History Buffer observes, so
// the comparison with the path predictor isolates the *representation* of
// the path (q-bit slices in a fixed register vs. full rotate-and-XOR
// hashing with selectable depth).
type Path struct {
	table *targetTable
	hist  *counter.ShiftReg
	p, q  uint
	name  string
}

// NewPath returns a path-based target cache with 2^k entries whose history
// holds q bits from each of the last p targets. p*q may be less than k
// (address bits fill the rest via XOR with zero-extension) but not more
// than 64.
func NewPath(k, p, q uint) (*Path, error) {
	if p == 0 || q == 0 {
		return nil, fmt.Errorf("targetcache: path history %dx%d bits invalid", p, q)
	}
	if p*q > 64 {
		return nil, fmt.Errorf("targetcache: path history %dx%d exceeds 64 bits", p, q)
	}
	return &Path{
		table: newTargetTable(k),
		hist:  counter.NewShiftReg(p * q),
		p:     p,
		q:     q,
		name:  fmt.Sprintf("path(%dx%d)-%dB", p, q, 4<<k),
	}, nil
}

// NewPathBudget sizes the cache to a hardware budget in bytes and picks the
// default history geometry used for the paper's baseline comparisons:
// p = 3 targets with q = max(1, k/3) bits each, keeping the history within
// the index width as Chang, Hao and Patt's tagless configurations do.
func NewPathBudget(budgetBytes int) (*Path, error) {
	k, err := bpred.Log2Entries(budgetBytes, 32)
	if err != nil {
		return nil, fmt.Errorf("targetcache: %w", err)
	}
	q := k / 3
	if q == 0 {
		q = 1
	}
	return NewPath(k, 3, q)
}

// Name implements bpred.IndirectPredictor.
func (p *Path) Name() string { return p.name }

// Release implements bpred.Releaser.
func (p *Path) Release() { p.table.release() }

// SizeBytes implements bpred.IndirectPredictor.
func (p *Path) SizeBytes() int { return p.table.sizeBytes() }

func (p *Path) index(pc arch.Addr) uint64 { return bpred.PCBits(pc) ^ p.hist.Value() }

// Predict implements bpred.IndirectPredictor.
func (p *Path) Predict(pc arch.Addr) arch.Addr { return p.table.predict(p.index(pc)) }

// Update implements bpred.IndirectPredictor.
func (p *Path) Update(r trace.Record) {
	if r.Kind.IndirectTarget() {
		p.table.update(p.index(r.PC), r.Next)
	}
	if r.Kind.RecordsInTHB() && r.Taken {
		p.hist.PushBits(bpred.PCBits(r.Next), p.q)
	}
}

// BTB is a tagless branch target buffer: the most recent target of each
// (aliased) branch address, with no history at all. It is the floor every
// history-based indirect predictor must beat.
type BTB struct {
	table *targetTable
	name  string
}

// NewBTB returns a BTB with 2^k entries.
func NewBTB(k uint) *BTB {
	return &BTB{table: newTargetTable(k), name: fmt.Sprintf("btb-%dB", 4<<k)}
}

// NewBTBBudget sizes the BTB to a hardware budget in bytes.
func NewBTBBudget(budgetBytes int) (*BTB, error) {
	k, err := bpred.Log2Entries(budgetBytes, 32)
	if err != nil {
		return nil, fmt.Errorf("targetcache: %w", err)
	}
	return NewBTB(k), nil
}

// Name implements bpred.IndirectPredictor.
func (b *BTB) Name() string { return b.name }

// Release implements bpred.Releaser.
func (b *BTB) Release() { b.table.release() }

// SizeBytes implements bpred.IndirectPredictor.
func (b *BTB) SizeBytes() int { return b.table.sizeBytes() }

// Predict implements bpred.IndirectPredictor.
func (b *BTB) Predict(pc arch.Addr) arch.Addr { return b.table.predict(bpred.PCBits(pc)) }

// Update implements bpred.IndirectPredictor.
func (b *BTB) Update(r trace.Record) {
	if r.Kind.IndirectTarget() {
		b.table.update(bpred.PCBits(r.PC), r.Next)
	}
}

// PathPerAddr is the per-address counterpart of Path: each (aliased)
// branch slot keeps a private history of q-bit slices of its *own* recent
// targets, instead of one global register of everybody's targets. Driesen
// and Hölzle found global path history superior (paper §2: "a global path
// history was shown to be better than per-address path histories"); this
// variant exists so the repository's ablations can reproduce that
// comparison.
type PathPerAddr struct {
	table *targetTable
	hists []uint64
	p, q  uint
	hMask uint64
	aMask uint64
	name  string
}

// NewPathPerAddr returns a per-address path cache with 2^k target entries
// and 2^a per-branch history registers of p*q bits.
func NewPathPerAddr(k, a, p, q uint) (*PathPerAddr, error) {
	if p == 0 || q == 0 || p*q > 64 {
		return nil, fmt.Errorf("targetcache: per-addr path history %dx%d invalid", p, q)
	}
	if a == 0 || a > 30 {
		return nil, fmt.Errorf("targetcache: per-addr history table 2^%d invalid", a)
	}
	return &PathPerAddr{
		table: newTargetTable(k),
		hists: reuse.Uint64.Zeroed(1 << a),
		p:     p,
		q:     q,
		hMask: 1<<(p*q) - 1,
		aMask: 1<<a - 1,
		name:  fmt.Sprintf("pathPA(%dx%d)-%dB", p, q, 4<<k),
	}, nil
}

// Name implements bpred.IndirectPredictor.
func (p *PathPerAddr) Name() string { return p.name }

// Release implements bpred.Releaser.
func (p *PathPerAddr) Release() {
	p.table.release()
	reuse.Uint64.Put(p.hists)
	p.hists = nil
}

// SizeBytes implements bpred.IndirectPredictor: target table plus the
// per-branch history registers.
func (p *PathPerAddr) SizeBytes() int {
	return p.table.sizeBytes() + (len(p.hists)*int(p.p*p.q)+7)/8
}

func (p *PathPerAddr) slot(pc arch.Addr) int { return int(bpred.PCBits(pc) & p.aMask) }

func (p *PathPerAddr) index(pc arch.Addr) uint64 {
	return bpred.PCBits(pc) ^ p.hists[p.slot(pc)]
}

// Predict implements bpred.IndirectPredictor.
func (p *PathPerAddr) Predict(pc arch.Addr) arch.Addr { return p.table.predict(p.index(pc)) }

// Update implements bpred.IndirectPredictor: only the branch's own
// resolved targets enter its history.
func (p *PathPerAddr) Update(r trace.Record) {
	if !r.Kind.IndirectTarget() {
		return
	}
	p.table.update(p.index(r.PC), r.Next)
	s := p.slot(r.PC)
	p.hists[s] = (p.hists[s]<<p.q | bpred.PCBits(r.Next)&(1<<p.q-1)) & p.hMask
}
