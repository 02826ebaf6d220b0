// Package hybrid implements McFarling's hybrid (combining) predictor (§2):
// two component conditional predictors and a table of 2-bit selection
// counters, indexed by branch address, that learns per branch which
// component to trust.
//
// The paper cites hybrids as the strongest known multi-scheme competitors;
// the repository uses this package in extension benchmarks to check how a
// gshare+bimodal hybrid fares against the single-scheme variable length
// path predictor.
package hybrid

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/bpred/counter"
	"repro/internal/trace"
)

// Predictor combines two component predictors with a chooser table. The
// chooser counter semantics follow McFarling: values >= 2 select component
// A, otherwise component B; the counter trains toward whichever component
// was correct when exactly one of them was.
type Predictor struct {
	a, b    bpred.CondPredictor
	chooser *counter.Array
	mask    uint64
	name    string
}

// New returns a hybrid of a and b with a 2^k-entry chooser.
func New(a, b bpred.CondPredictor, k uint) *Predictor {
	return &Predictor{
		a:       a,
		b:       b,
		chooser: counter.NewArray(1<<k, 2, 2), // start trusting component A weakly
		mask:    1<<k - 1,
		name:    fmt.Sprintf("hybrid(%s,%s)", a.Name(), b.Name()),
	}
}

// Name implements bpred.CondPredictor.
func (p *Predictor) Name() string { return p.name }

// Release implements bpred.Releaser: the chooser and both components,
// which the hybrid owns once it is built.
func (p *Predictor) Release() {
	p.chooser.Release()
	bpred.Release(p.a)
	bpred.Release(p.b)
}

// SizeBytes implements bpred.CondPredictor: both components plus the
// chooser table.
func (p *Predictor) SizeBytes() int {
	return p.a.SizeBytes() + p.b.SizeBytes() + p.chooser.SizeBytes()
}

func (p *Predictor) slot(pc arch.Addr) int { return int(bpred.PCBits(pc) & p.mask) }

// Predict implements bpred.CondPredictor.
func (p *Predictor) Predict(pc arch.Addr) bool {
	if p.chooser.Taken(p.slot(pc)) {
		return p.a.Predict(pc)
	}
	return p.b.Predict(pc)
}

// Update implements bpred.CondPredictor. Both components observe every
// record; the chooser trains only on conditional records where the
// components disagreed.
func (p *Predictor) Update(r trace.Record) {
	if r.Kind == arch.Cond {
		aRight := p.a.Predict(r.PC) == r.Taken
		bRight := p.b.Predict(r.PC) == r.Taken
		if aRight != bRight {
			p.chooser.Train(p.slot(r.PC), aRight)
		}
	}
	p.a.Update(r)
	p.b.Update(r)
}
