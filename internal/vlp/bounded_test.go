package vlp

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/bpred/counter"
	"repro/internal/bpred/state"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// A register bank bounded to the lengths its predictor reads maintains
// only I_1..I_m; the registers above m stay stale. Such state is valid
// vlps/v1 HashSet state, written by predictors that bounded their banks,
// so the tests here load it and require every index within the bound to
// continue exactly.

// TestBoundedBankMatchesDirect loads the state of a bank bounded to m
// registers, written by the reference model at a random point, and
// requires every index within the bound to equal the bank's register and
// the direct recomputation, on load and across further inserts.
func TestBoundedBankMatchesDirect(t *testing.T) {
	f := func(seed uint64, kRaw, nRaw, mRaw, before, after uint8) bool {
		k := uint(kRaw)%32 + 1 // 1..32
		n := int(nRaw)%32 + 1  // 1..32
		m := int(mRaw)%n + 1   // 1..n
		ref := newRefBank(k, n, m)
		rng := xrand.New(seed)
		for s := 0; s < int(before); s++ {
			ref.insert(uint32(rng.Uint64()))
		}
		var buf bytes.Buffer
		h, err := NewHashSet(k, n)
		if err != nil || ref.saveState(&buf) != nil || h.LoadState(&buf) != nil {
			return false
		}
		for s := 0; ; s++ {
			for l := 1; l <= m; l++ {
				if h.Index(l) != ref.regs[l-1] || h.Index(l) != h.DirectIndex(l) {
					return false
				}
			}
			if s == int(after) {
				return true
			}
			v := uint32(rng.Uint64())
			h.InsertCompressed(v)
			ref.insert(v)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// boundedTrace builds a deterministic mix of conditionals, indirect
// branches, calls, and returns — calls and returns included so the
// history-stack variant exercises Snapshot/Restore.
func boundedTrace(n int) []trace.Record {
	rng := xrand.New(99)
	pcs := []arch.Addr{0x1004, 0x2008, 0x300c, 0x4010}
	recs := make([]trace.Record, 0, n)
	for i := 0; i < n; i++ {
		pc := pcs[rng.Uint64()%uint64(len(pcs))]
		switch rng.Uint64() % 6 {
		case 0, 1, 2:
			taken := rng.Bool(0.55)
			next := pc.FallThrough()
			if taken {
				next = arch.Addr(0x8000 + (rng.Uint64()&0x7)*16)
			}
			recs = append(recs, trace.Record{PC: pc, Kind: arch.Cond, Taken: taken, Next: next})
		case 3:
			recs = append(recs, trace.Record{PC: pc, Kind: arch.Indirect, Taken: true,
				Next: arch.Addr(0x9000 + (rng.Uint64()&0x3)*16)})
		case 4:
			recs = append(recs, trace.Record{PC: pc, Kind: arch.Call, Taken: true, Next: 0xa000})
		default:
			recs = append(recs, trace.Record{PC: pc, Kind: arch.Return, Taken: true, Next: 0xb000})
		}
	}
	return recs
}

// refPath is the reference path predictor: Cond's or Indirect's table
// and update order, indexed from a refBank register bank, with the
// history stack saving and restoring bank registers.
type refPath struct {
	indirect bool
	pht      *counter.Array
	table    []uint32
	bank     *refBank
	sel      Selector
	opts     Options
	stack    [][]uint32
}

func newRefPath(indirect bool, k uint, sel Selector, opts Options, live int) *refPath {
	p := &refPath{indirect: indirect, bank: newRefBank(k, DefaultMaxPath, live), sel: sel, opts: opts}
	if indirect {
		p.table = make([]uint32, 1<<k)
	} else {
		p.pht = counter.NewArray(1<<k, 2, 1)
	}
	return p
}

func (p *refPath) index(pc arch.Addr) uint32 { return p.bank.regs[p.sel.Length(pc)-1] }

func (p *refPath) update(r trace.Record) {
	switch {
	case !p.indirect && r.Kind == arch.Cond:
		p.pht.Train(int(p.index(r.PC)), r.Taken)
	case p.indirect && r.Kind.IndirectTarget():
		p.table[p.index(r.PC)] = uint32(r.Next)
	}
	if p.opts.HistoryStack {
		switch {
		case r.Kind.PushesReturn():
			if len(p.stack) == historyStackCap {
				p.stack = p.stack[1:]
			}
			p.stack = append(p.stack, p.bank.snapshot())
		case r.Kind == arch.Return && len(p.stack) > 0:
			p.bank.restoreCombined(p.stack[len(p.stack)-1], p.opts.HistoryCombine)
			p.stack = p.stack[:len(p.stack)-1]
		}
	}
	if r.Kind.RecordsInTHB() || (p.opts.StoreReturns && r.Kind == arch.Return) {
		p.bank.insert(p.bank.mask & uint32(uint64(r.Next)>>2))
	}
}

// saveState writes the predictor in the vlps/v1 layout of Cond or
// Indirect.
func (p *refPath) saveState(w io.Writer) error {
	if p.indirect {
		e := state.NewEncoder(w)
		e.U32s(p.table)
		if err := e.Err(); err != nil {
			return err
		}
	} else if err := p.pht.SaveState(w); err != nil {
		return err
	}
	if err := p.bank.saveState(w); err != nil {
		return err
	}
	e := state.NewEncoder(w)
	e.Int(len(p.stack))
	for _, frame := range p.stack {
		e.U32s(frame)
	}
	return e.Err()
}

// pathUnderTest is the surface the lockstep test drives on Cond and
// Indirect.
type pathUnderTest interface {
	Update(trace.Record)
	LoadState(io.Reader) error
}

// lockstepPaths replays boundedTrace through a predictor, a reference
// over the full register bank and one over a bank bounded to the deepest
// length the selector reads. Halfway, a fresh predictor loads the
// bounded reference's state and joins. At every scored record all four must
// predict the same: the prefix form equals the register bank, and a
// bounded bank's state, stale registers and history-stack frames
// included, continues bit-identically.
func lockstepPaths(t *testing.T, indirect bool, k uint, sel Selector, bound int, opts Options,
	build func() pathUnderTest, predict func(pathUnderTest, arch.Addr) uint32) {
	t.Helper()
	full := newRefPath(indirect, k, sel, opts, DefaultMaxPath)
	bounded := newRefPath(indirect, k, sel, opts, bound)
	refPredict := func(p *refPath, pc arch.Addr) uint32 {
		if indirect {
			return p.table[p.index(pc)]
		}
		if p.pht.Taken(int(p.index(pc))) {
			return 1
		}
		return 0
	}
	live := []pathUnderTest{build()}
	recs := boundedTrace(20000)
	for i, r := range recs {
		if i == len(recs)/2 {
			var buf bytes.Buffer
			if err := bounded.saveState(&buf); err != nil {
				t.Fatal(err)
			}
			loaded := build()
			if err := loaded.LoadState(&buf); err != nil {
				t.Fatalf("loading bounded-bank state: %v", err)
			}
			live = append(live, loaded)
		}
		scored := r.Kind == arch.Cond
		if indirect {
			scored = r.Kind.IndirectTarget()
		}
		if scored {
			want := refPredict(full, r.PC)
			if got := refPredict(bounded, r.PC); got != want {
				t.Fatalf("record %d: bounded bank predicts %d, full bank %d", i, got, want)
			}
			for j, p := range live {
				if got := predict(p, r.PC); got != want {
					t.Fatalf("record %d: predictor %d predicts %d, register bank %d", i, j, got, want)
				}
			}
		}
		full.update(r)
		bounded.update(r)
		for _, p := range live {
			p.Update(r)
		}
	}
}

// lockstepSelectors are a fixed length and a profiled selector with the
// deepest length each reads.
var lockstepSelectors = []struct {
	sel   Selector
	bound int
}{
	{Fixed{L: 8}, 8},
	{&PerBranch{Lengths: map[arch.Addr]int{0x1004: 3, 0x2008: 11, 0x300c: 5}, Default: 7}, 11},
}

// TestBoundedCondMatchesFullBank runs the conditional lockstep for each
// selector, with and without the history stack and its combine variant.
func TestBoundedCondMatchesFullBank(t *testing.T) {
	for _, opts := range []Options{{}, {HistoryStack: true}, {HistoryStack: true, HistoryCombine: 2}} {
		for _, s := range lockstepSelectors {
			t.Run(fmt.Sprintf("%s/%+v", s.sel.Name(), opts), func(t *testing.T) {
				lockstepPaths(t, false, 12, s.sel, s.bound, opts, func() pathUnderTest {
					p, err := NewCondBits(12, s.sel, opts)
					if err != nil {
						t.Fatal(err)
					}
					return p
				}, func(p pathUnderTest, pc arch.Addr) uint32 {
					if p.(*Cond).Predict(pc) {
						return 1
					}
					return 0
				})
			})
		}
	}
}

// TestBoundedIndirectMatchesFullBank is the indirect-branch counterpart.
func TestBoundedIndirectMatchesFullBank(t *testing.T) {
	for _, opts := range []Options{{}, {HistoryStack: true, HistoryCombine: 2}} {
		for _, s := range lockstepSelectors {
			t.Run(fmt.Sprintf("%s/%+v", s.sel.Name(), opts), func(t *testing.T) {
				lockstepPaths(t, true, 10, s.sel, s.bound, opts, func() pathUnderTest {
					p, err := NewIndirectBits(10, s.sel, opts)
					if err != nil {
						t.Fatal(err)
					}
					return p
				}, func(p pathUnderTest, pc arch.Addr) uint32 {
					return uint32(p.(*Indirect).Predict(pc))
				})
			})
		}
	}
}

// TestSelectorIndicesMatchDirect replays the hardware-selected and
// coarse-hint predictors, which read and train every tracked length per
// branch, and requires each length's index to equal the direct
// recomputation at every record.
func TestSelectorIndicesMatchDirect(t *testing.T) {
	dyn, err := NewDynCond(1024, nil, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := NewCoarseCond(1024, nil, map[arch.Addr]int{0x1004: 2, 0x2008: 30}, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		update  func(trace.Record)
		hs      *HashSet
		lengths []int
	}{
		{"dynamic", dyn.Update, dyn.inner.hs, dyn.lengths},
		{"coarse", coarse.Update, coarse.inner.hs, []int{1, 2, 4, 8, 16, 32}},
	} {
		for i, r := range boundedTrace(5000) {
			for _, l := range c.lengths {
				if got, want := c.hs.Index(l), c.hs.DirectIndex(l); got != want {
					t.Fatalf("%s: record %d: I_%d = %#x, direct %#x", c.name, i, l, got, want)
				}
			}
			c.update(r)
		}
	}
}
