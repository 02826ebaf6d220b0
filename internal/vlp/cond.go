package vlp

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/bpred/counter"
	"repro/internal/trace"
)

// Cond is the path predictor for conditional branches (§3.1): a single
// predictor table of 2-bit saturating up-down counters indexed by the
// output of the per-branch selected hash function over the THB. With a
// Fixed selector it is the paper's fixed length path predictor; with a
// PerBranch selector it is the variable length path predictor.
type Cond struct {
	pht  *counter.Array
	hs   *HashSet
	sel  Selector
	opts Options
	name string

	// stack is the history-stack extension (nil when it is off).
	stack *histStack
}

// Options toggles the paper's design variations, for the ablation studies.
// The zero value reproduces the configuration evaluated in §5.
type Options struct {
	// MaxPath is the THB depth N; 0 means DefaultMaxPath (32).
	MaxPath int
	// NoRotation disables the per-depth rotation of §3.3, so target
	// order is no longer encoded in the index (ablation).
	NoRotation bool
	// StoreReturns inserts return targets into the THB; the paper keeps
	// them out after finding accuracy "does not strongly depend" on the
	// choice (§3.2) — this option measures that claim.
	StoreReturns bool
	// HistoryStack enables the §6 future-work extension after Jacobson
	// et al.: the path indices are saved on calls and restored on
	// returns, so a subroutine's internal control flow does not disturb
	// the caller's path history. Depth is capped at 64 frames.
	HistoryStack bool
	// HistoryCombine, with HistoryStack, re-inserts the last N callee
	// targets on top of the restored caller history — Jacobson et al.'s
	// actual proposal ("the old history would be combined with the more
	// recent history"); 0 restores the caller history unmodified.
	HistoryCombine int
}

func (o Options) maxPath() int {
	if o.MaxPath == 0 {
		return DefaultMaxPath
	}
	return o.MaxPath
}

// NewCond returns a conditional path predictor whose counter table fits
// the given hardware budget in bytes (2-bit entries; the budget must map
// to a power-of-two table).
func NewCond(budgetBytes int, sel Selector, opts Options) (*Cond, error) {
	k, err := bpred.Log2Entries(budgetBytes, 2)
	if err != nil {
		return nil, fmt.Errorf("vlp: %w", err)
	}
	return NewCondBits(k, sel, opts)
}

// NewCondBits returns a conditional path predictor with a 2^k-entry
// counter table.
func NewCondBits(k uint, sel Selector, opts Options) (*Cond, error) {
	hs, err := NewHashSet(k, opts.maxPath())
	if err != nil {
		return nil, err
	}
	if err := checkSelector(sel, hs.MaxPath()); err != nil {
		return nil, err
	}
	c := &Cond{
		pht:  counter.NewArray(1<<k, 2, 1),
		hs:   hs,
		sel:  sel,
		opts: opts,
		name: fmt.Sprintf("pathcond[%s]-%dB", sel.Name(), (1<<k)/4),
	}
	if opts.HistoryStack {
		c.stack = newHistStack(hs.MaxPath(), opts.HistoryCombine)
	}
	return c, nil
}

// Name implements bpred.CondPredictor.
func (c *Cond) Name() string { return c.name }

// Release implements bpred.Releaser.
func (c *Cond) Release() {
	c.pht.Release()
	c.stack.release()
}

// SizeBytes implements bpred.CondPredictor; it reports the predictor
// table, the quantity on the paper's hardware-budget axes.
func (c *Cond) SizeBytes() int { return c.pht.SizeBytes() }

// Selector returns the predictor's hash-function selector.
func (c *Cond) Selector() Selector { return c.sel }

// HashSet exposes the THB and index registers; the profiling pipeline and
// the HFNT model build on it.
func (c *Cond) HashSet() *HashSet { return c.hs }

func (c *Cond) index(pc arch.Addr) int {
	l := c.sel.Length(pc)
	if c.opts.NoRotation {
		return int(c.directNoRotate(l))
	}
	return int(c.hs.Index(l))
}

// directNoRotate is the ablated hash: plain XOR of the path targets with
// no rotation, losing order information (§3.3 explains why this is worse).
func (c *Cond) directNoRotate(length int) uint32 {
	var v uint32
	for j := 0; j < length; j++ {
		v ^= c.hs.Target(j)
	}
	return v
}

// PredictAt returns the direction prediction the table would make for a
// branch using path length l right now. The profiling pipeline uses it to
// evaluate many hash functions in one pass.
func (c *Cond) PredictAt(l int) bool { return c.pht.Taken(int(c.hs.Index(l))) }

// TrainAt trains the counter indexed by path length l with the outcome.
func (c *Cond) TrainAt(l int, taken bool) { c.pht.Train(int(c.hs.Index(l)), taken) }

// Predict implements bpred.CondPredictor.
func (c *Cond) Predict(pc arch.Addr) bool { return c.pht.Taken(c.index(pc)) }

// Update implements bpred.CondPredictor. For a conditional record the
// counter at the branch's own index is trained with the outcome before the
// branch's target enters the THB, matching the hardware ordering (the
// prediction was made from pre-branch history).
func (c *Cond) Update(r trace.Record) {
	if r.Kind == arch.Cond {
		c.pht.Train(c.index(r.PC), r.Taken)
	}
	c.ObservePath(r)
}

// StepCond implements bpred.CondStepper: score-and-update in one call,
// computing the table index once where Predict-then-Update computes it
// twice. The index is deterministic in (pc, selector, history) and the
// history only advances in ObservePath afterwards, so the fused step is
// bit-identical to the two-call surface.
func (c *Cond) StepCond(r trace.Record) (scored, correct bool) {
	if r.Kind == arch.Cond {
		i := c.index(r.PC)
		correct = c.pht.Taken(i) == r.Taken
		c.pht.Train(i, r.Taken)
		scored = true
	}
	c.ObservePath(r)
	return scored, correct
}

// ObservePath performs only the history-maintenance half of Update: THB
// insertion and, when enabled, the history stack. The profiling pipeline
// calls it directly.
func (c *Cond) ObservePath(r trace.Record) {
	observePath(c.hs, c.stack, c.opts.StoreReturns, r)
}
