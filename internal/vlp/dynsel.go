package vlp

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/bpred/counter"
	"repro/internal/trace"
)

// DynCond is the hardware-selection alternative of §3.4: instead of
// profiled hash function numbers, "storage structures are added to the
// branch predictor that record how accurately the hash functions have
// predicted each past branch", and the hardware picks, per branch, the
// hash function with the best recorded accuracy.
//
// The model tracks a subset of hash functions (§3.1 notes a real
// implementation may build only a subset, e.g. HF_1, HF_2, HF_4, ...,
// HF_32). Two design decisions the paper leaves open are resolved here:
//
//   - The shared predictor table trains at *every* tracked hash function's
//     index, not just the selected one. Training only the selected index
//     can never bootstrap a longer hash function (its entries stay cold,
//     so its recorded accuracy stays poor, so it is never selected); the
//     cost is extra interference, which is the die-area-free analogue of
//     the paper's step-1 profiling pass that runs one table per function.
//
//   - Per-branch scores are "recent badness" counters: a misprediction
//     adds a large penalty, a correct prediction decays the score by one,
//     and selection takes the lowest score with ties going to the shorter
//     path (the faster-training index). Symmetric up-down accuracy
//     counters saturate for every length during the correct-prediction
//     runs between mispredictions and then tie exactly at the hard
//     decisions, which defeats the selection.
type DynCond struct {
	inner   *Cond
	lengths []int
	acc     []*counter.Array // one per tracked length; lower is better
	penalty uint8
	slots   uint64
	name    string
}

// dynPenalty is the score added on a misprediction. It must exceed the
// longest run of correct predictions after which the competing shorter
// length is allowed to win again; 8 retains the memory of one miss for
// eight subsequent correct predictions.
const dynPenalty = 8

// NewDynCond returns a hardware-selected path predictor over the given
// counter-table budget. lengths is the tracked subset of hash functions
// (defaults to {1,2,4,8,16,32} if nil); 2^a is the number of per-branch
// score slots; accBits is the width of each score counter (4 is ample).
func NewDynCond(budgetBytes int, lengths []int, a, accBits uint) (*DynCond, error) {
	if lengths == nil {
		lengths = []int{1, 2, 4, 8, 16, 32}
	}
	if a < 1 || a > 30 {
		return nil, fmt.Errorf("vlp: dynamic selector slot width %d out of range", a)
	}
	if accBits < 4 || accBits > 8 {
		return nil, fmt.Errorf("vlp: dynamic selector score width %d out of range 4..8", accBits)
	}
	d := &DynCond{lengths: lengths, penalty: dynPenalty, slots: 1<<a - 1}
	inner, err := NewCond(budgetBytes, dynSelector{d}, Options{})
	if err != nil {
		return nil, err
	}
	for _, l := range lengths {
		if l < 1 || l > inner.hs.MaxPath() {
			return nil, fmt.Errorf("vlp: tracked length %d out of range 1..%d", l, inner.hs.MaxPath())
		}
		d.acc = append(d.acc, counter.NewArray(1<<a, int(accBits), 0))
	}
	d.inner = inner
	d.name = fmt.Sprintf("pathcond[dynamic(%d lengths)]-%dB", len(lengths), inner.SizeBytes())
	return d, nil
}

// dynSelector adapts the score tables to the Selector interface used by
// the wrapped Cond predictor.
type dynSelector struct{ d *DynCond }

func (s dynSelector) Length(pc arch.Addr) int { return s.d.bestLength(pc) }
func (s dynSelector) Name() string            { return "dynamic" }

func (d *DynCond) slot(pc arch.Addr) int { return int(bpred.PCBits(pc) & d.slots) }

func (d *DynCond) bestLength(pc arch.Addr) int {
	slot := d.slot(pc)
	best, bestVal := d.lengths[0], int(d.acc[0].Value(slot))
	for i := 1; i < len(d.lengths); i++ {
		if v := int(d.acc[i].Value(slot)); v < bestVal {
			best, bestVal = d.lengths[i], v
		}
	}
	return best
}

// Name implements bpred.CondPredictor.
func (d *DynCond) Name() string { return d.name }

// Release implements bpred.Releaser.
func (d *DynCond) Release() {
	d.inner.Release()
	for _, a := range d.acc {
		a.Release()
	}
}

// SizeBytes implements bpred.CondPredictor: the predictor table plus the
// score storage, which is the die-area cost §3.4 warns about.
func (d *DynCond) SizeBytes() int {
	total := d.inner.SizeBytes()
	for _, a := range d.acc {
		total += a.SizeBytes()
	}
	return total
}

// Predict implements bpred.CondPredictor.
func (d *DynCond) Predict(pc arch.Addr) bool { return d.inner.Predict(pc) }

// Update implements bpred.CondPredictor. Every tracked hash function is
// scored against the outcome and trains its table index.
func (d *DynCond) Update(r trace.Record) {
	if r.Kind == arch.Cond {
		slot := d.slot(r.PC)
		for i, l := range d.lengths {
			if d.inner.PredictAt(l) == r.Taken {
				d.acc[i].Dec(slot)
			} else {
				v := int(d.acc[i].Value(slot)) + int(d.penalty)
				if v > 255 {
					v = 255
				}
				d.acc[i].Set(slot, uint8(v)) // Set saturates to the counter max
			}
		}
		for _, l := range d.lengths {
			d.inner.TrainAt(l, r.Taken)
		}
	}
	d.inner.ObservePath(r)
}
