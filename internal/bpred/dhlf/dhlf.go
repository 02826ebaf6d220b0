// Package dhlf implements dynamic history-length fitting after Juan,
// Sanjeevan and Navarro (paper citation [12]): a gshare-style predictor
// whose *global* history length is chosen by the hardware itself, "at
// regular intervals", from the observed misprediction counts. All
// predictions during an interval use the length selected at its start.
//
// Where the paper's contribution selects a length per static branch using
// profiling, DHLF selects one length for the whole program phase using
// run-time feedback — the third point in the design space the related
// work (§2) lays out, and a useful ablation anchor.
package dhlf

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/bpred/counter"
	"repro/internal/trace"
)

// Predictor is a gshare table with interval-adapted history length.
type Predictor struct {
	pht  *counter.Array
	hist *counter.ShiftReg
	k    uint
	mask uint64
	name string

	interval int   // branches per interval
	cur      int   // history length in use this interval
	count    int   // branches so far this interval
	misses   int64 // misses this interval

	// stats[h] accumulates (misses, branches) per length with periodic
	// halving, so old phases decay.
	missStat   []int64
	branchStat []int64
	probe      int // next length to re-probe
	intervals  int
}

// New returns a DHLF predictor over the given hardware budget, with the
// given interval length in branches (0 means 16384, Juan et al.'s scale).
func New(budgetBytes int, interval int) (*Predictor, error) {
	k, err := bpred.Log2Entries(budgetBytes, 2)
	if err != nil {
		return nil, fmt.Errorf("dhlf: %w", err)
	}
	if interval == 0 {
		interval = 16384
	}
	if interval < 1 {
		return nil, fmt.Errorf("dhlf: interval %d invalid", interval)
	}
	return &Predictor{
		pht:        counter.NewArray(1<<k, 2, 1),
		hist:       counter.NewShiftReg(k),
		k:          k,
		mask:       1<<k - 1,
		name:       fmt.Sprintf("dhlf-%dB", (1<<k)/4),
		interval:   interval,
		missStat:   make([]int64, k+1),
		branchStat: make([]int64, k+1),
	}, nil
}

// Name implements bpred.CondPredictor.
func (p *Predictor) Name() string { return p.name }

// Release implements bpred.Releaser.
func (p *Predictor) Release() { p.pht.Release() }

// SizeBytes implements bpred.CondPredictor; the per-length statistic
// counters are a handful of registers.
func (p *Predictor) SizeBytes() int { return p.pht.SizeBytes() }

// Length returns the history length currently in use.
func (p *Predictor) Length() int { return p.cur }

func (p *Predictor) index(pc arch.Addr) int {
	h := p.hist.Value()
	if p.cur < 64 {
		h &= 1<<uint(p.cur) - 1
	}
	return int((bpred.PCBits(pc) ^ h) & p.mask)
}

// Predict implements bpred.CondPredictor.
func (p *Predictor) Predict(pc arch.Addr) bool { return p.pht.Taken(p.index(pc)) }

// Update implements bpred.CondPredictor.
func (p *Predictor) Update(r trace.Record) {
	if r.Kind != arch.Cond {
		return
	}
	idx := p.index(r.PC)
	if p.pht.Taken(idx) != r.Taken {
		p.misses++
	}
	p.pht.Train(idx, r.Taken)
	p.hist.Push(r.Taken)
	p.count++
	if p.count >= p.interval {
		p.endInterval()
	}
}

// endInterval books the finished interval's statistics and selects the
// next interval's history length: initially each length is tried once;
// afterwards the best observed rate wins, with every fourth interval
// spent re-probing a stale length so the statistics track phase changes.
func (p *Predictor) endInterval() {
	p.missStat[p.cur] += p.misses
	p.branchStat[p.cur] += int64(p.count)
	p.misses, p.count = 0, 0
	p.intervals++

	// Decay: halve everything periodically so old phases fade.
	if p.intervals%64 == 0 {
		for i := range p.missStat {
			p.missStat[i] /= 2
			p.branchStat[i] /= 2
		}
	}

	if p.intervals <= int(p.k) {
		// Exploration sweep: try lengths 1, 2, ..., k once each.
		p.cur = p.intervals
		return
	}
	if p.intervals%4 == 0 {
		// Re-probe round-robin.
		p.probe = (p.probe + 1) % (int(p.k) + 1)
		p.cur = p.probe
		return
	}
	best, bestRate := 0, 2.0
	for h := 0; h <= int(p.k); h++ {
		if p.branchStat[h] == 0 {
			continue
		}
		rate := float64(p.missStat[h]) / float64(p.branchStat[h])
		if rate < bestRate {
			best, bestRate = h, rate
		}
	}
	p.cur = best
}
