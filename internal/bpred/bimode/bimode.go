// Package bimode implements the bi-mode predictor of Lee, Chen and Mudge
// (paper citation [13]): two gshare-indexed direction banks — a
// taken-leaning bank and a not-taken-leaning bank — with a per-address
// choice table steering each branch to the bank matching its bias. Like
// the agree predictor, it attacks pattern-history-table interference, the
// effect §5.3 identifies as one of the two reasons variable length paths
// win.
package bimode

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/bpred/counter"
	"repro/internal/trace"
)

// Predictor is a bi-mode conditional predictor.
type Predictor struct {
	taken    *counter.Array // taken-leaning direction bank
	notTaken *counter.Array // not-taken-leaning direction bank
	choice   *counter.Array // per-address bank chooser
	hist     *counter.ShiftReg
	dirMask  uint64
	choMask  uint64
	name     string
}

// New returns a bi-mode predictor fitting the hardware budget in bytes.
// The budget splits into quarters: one for the choice table and the rest
// split between the two direction banks (each half the choice table's
// entry count... concretely: choice gets budget/2, each bank budget/4),
// keeping the total equal to the budget.
func New(budgetBytes int) (*Predictor, error) {
	kDir, err := bpred.Log2Entries(budgetBytes/4, 2)
	if err != nil {
		return nil, fmt.Errorf("bimode: %w", err)
	}
	kCho, err := bpred.Log2Entries(budgetBytes/2, 2)
	if err != nil {
		return nil, fmt.Errorf("bimode: %w", err)
	}
	return &Predictor{
		taken:    counter.NewArray(1<<kDir, 2, 2),
		notTaken: counter.NewArray(1<<kDir, 2, 1),
		choice:   counter.NewArray(1<<kCho, 2, 2),
		hist:     counter.NewShiftReg(kDir),
		dirMask:  1<<kDir - 1,
		choMask:  1<<kCho - 1,
		name:     fmt.Sprintf("bimode-%dB", budgetBytes),
	}, nil
}

// Name implements bpred.CondPredictor.
func (p *Predictor) Name() string { return p.name }

// Release implements bpred.Releaser.
func (p *Predictor) Release() {
	p.taken.Release()
	p.notTaken.Release()
	p.choice.Release()
}

// SizeBytes implements bpred.CondPredictor.
func (p *Predictor) SizeBytes() int {
	return p.taken.SizeBytes() + p.notTaken.SizeBytes() + p.choice.SizeBytes()
}

func (p *Predictor) dirIndex(pc arch.Addr) int {
	return int((bpred.PCBits(pc) ^ p.hist.Value()) & p.dirMask)
}

func (p *Predictor) choIndex(pc arch.Addr) int { return int(bpred.PCBits(pc) & p.choMask) }

// bank returns the direction bank the choice table selects for pc.
func (p *Predictor) bank(pc arch.Addr) *counter.Array {
	if p.choice.Taken(p.choIndex(pc)) {
		return p.taken
	}
	return p.notTaken
}

// Predict implements bpred.CondPredictor.
func (p *Predictor) Predict(pc arch.Addr) bool { return p.bank(pc).Taken(p.dirIndex(pc)) }

// Update implements bpred.CondPredictor. Only the selected bank trains
// (keeping the banks specialised); the choice counter trains toward the
// outcome except when it disagreed but the selected bank still predicted
// correctly — the original paper's partial-update rule.
func (p *Predictor) Update(r trace.Record) {
	if r.Kind != arch.Cond {
		return
	}
	di, ci := p.dirIndex(r.PC), p.choIndex(r.PC)
	selTaken := p.choice.Taken(ci)
	bank := p.notTaken
	if selTaken {
		bank = p.taken
	}
	bankCorrect := bank.Taken(di) == r.Taken
	bank.Train(di, r.Taken)
	if !(selTaken != r.Taken && bankCorrect) {
		p.choice.Train(ci, r.Taken)
	}
	p.hist.Push(r.Taken)
}
