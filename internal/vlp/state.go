package vlp

import (
	"io"

	"repro/internal/bpred/state"
)

// Checkpoint support (bpred.StateCodec) for the path predictors. The
// mutable state of a path predictor is its counter or target table plus
// the HashSet — THB ring and indices — and, with the history-stack
// extension, the saved register frames. Indices are encoded in the
// layout of §4.1's partial-sum registers (I_1..I_N), whatever form
// HashSet keeps them in. Selectors, profiles and budgets are
// configuration: they are pinned by the factory spec recorded in the
// snapshot container, not re-encoded here.

// SaveState implements bpred.StateCodec: the indices in register
// layout, the THB ring, and the ring position.
func (h *HashSet) SaveState(w io.Writer) error {
	e := state.NewEncoder(w)
	e.U32s(h.Snapshot())
	e.U32s(h.thb)
	e.Int(h.head)
	e.Int(h.count)
	return e.Err()
}

// LoadState implements bpred.StateCodec. The receiver's k and n are
// configuration; state sized or valued beyond them is corrupt. Any
// register values load, including a bank whose registers past some
// bound were never maintained: Index reads back exactly the registers
// loaded, so indices within the bound continue exactly.
func (h *HashSet) LoadState(r io.Reader) error {
	d := state.NewDecoder(r)
	regs := make([]uint32, h.n)
	d.U32s(regs)
	d.U32s(h.thb)
	head := d.Int()
	count := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if head >= h.n {
		return state.Corruptf("vlp: THB head %d beyond depth %d", head, h.n)
	}
	if count > h.n {
		return state.Corruptf("vlp: THB count %d beyond depth %d", count, h.n)
	}
	for i, v := range regs {
		if v&^h.f.mask != 0 {
			return state.Corruptf("vlp: register %d value %#x overflows %d-bit index", i, v, h.f.k)
		}
	}
	for i, v := range h.thb {
		if v&^h.f.mask != 0 {
			return state.Corruptf("vlp: THB slot %d value %#x overflows %d-bit index", i, v, h.f.k)
		}
	}
	h.Restore(regs)
	h.head = head
	h.count = count
	return nil
}

// SaveState implements bpred.StateCodec for the conditional path
// predictor: counter table, path history, history-stack frames.
func (c *Cond) SaveState(w io.Writer) error {
	if err := c.pht.SaveState(w); err != nil {
		return err
	}
	if err := c.hs.SaveState(w); err != nil {
		return err
	}
	e := state.NewEncoder(w)
	c.stack.save(e)
	return e.Err()
}

// LoadState implements bpred.StateCodec.
func (c *Cond) LoadState(r io.Reader) error {
	if err := c.pht.LoadState(r); err != nil {
		return err
	}
	if err := c.hs.LoadState(r); err != nil {
		return err
	}
	return c.stack.load(state.NewDecoder(r))
}

// SaveState implements bpred.StateCodec for the indirect path
// predictor: target table, path history, history-stack frames.
func (p *Indirect) SaveState(w io.Writer) error {
	e := state.NewEncoder(w)
	e.U32s(p.table)
	if err := e.Err(); err != nil {
		return err
	}
	if err := p.hs.SaveState(w); err != nil {
		return err
	}
	e = state.NewEncoder(w)
	p.stack.save(e)
	return e.Err()
}

// LoadState implements bpred.StateCodec. Target registers hold any
// 32-bit value, so only structure is validated, not register contents.
func (p *Indirect) LoadState(r io.Reader) error {
	d := state.NewDecoder(r)
	d.U32s(p.table)
	if err := d.Err(); err != nil {
		return err
	}
	if err := p.hs.LoadState(r); err != nil {
		return err
	}
	return p.stack.load(d)
}

// SaveState implements bpred.StateCodec for the HFNT model: the wrapped
// predictor, the hash-number table, and the pipeline counters (the
// re-prediction rate is the experiment's output, so a resumed run must
// continue the counts, not restart them).
func (h *HFNT) SaveState(w io.Writer) error {
	if err := h.inner.SaveState(w); err != nil {
		return err
	}
	e := state.NewEncoder(w)
	e.Bytes(h.entries)
	e.U64(uint64(h.Lookups))
	e.U64(uint64(h.Repredicts))
	return e.Err()
}

// LoadState implements bpred.StateCodec.
func (h *HFNT) LoadState(r io.Reader) error {
	if err := h.inner.LoadState(r); err != nil {
		return err
	}
	d := state.NewDecoder(r)
	d.Bytes(h.entries)
	lookups := d.U64()
	repredicts := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	max := uint8(h.inner.hs.MaxPath() - 1)
	for i, v := range h.entries {
		if v > max {
			return state.Corruptf("vlp: HFNT entry %d value %d beyond hash function %d", i, v, max)
		}
	}
	h.Lookups = int64(lookups)
	h.Repredicts = int64(repredicts)
	return nil
}

// SaveState implements bpred.StateCodec for the hardware-selected path
// predictor: the wrapped predictor plus every per-length score table.
func (d *DynCond) SaveState(w io.Writer) error {
	if err := d.inner.SaveState(w); err != nil {
		return err
	}
	for _, a := range d.acc {
		if err := a.SaveState(w); err != nil {
			return err
		}
	}
	return nil
}

// LoadState implements bpred.StateCodec.
func (d *DynCond) LoadState(r io.Reader) error {
	if err := d.inner.LoadState(r); err != nil {
		return err
	}
	for _, a := range d.acc {
		if err := a.LoadState(r); err != nil {
			return err
		}
	}
	return nil
}

// SaveState implements bpred.StateCodec for the coarse-hint predictor:
// the wrapped predictor plus the per-bucket-position score tables (the
// ISA hints themselves are profile configuration).
func (c *CoarseCond) SaveState(w io.Writer) error {
	if err := c.inner.SaveState(w); err != nil {
		return err
	}
	for _, a := range c.scores {
		if err := a.SaveState(w); err != nil {
			return err
		}
	}
	return nil
}

// LoadState implements bpred.StateCodec.
func (c *CoarseCond) LoadState(r io.Reader) error {
	if err := c.inner.LoadState(r); err != nil {
		return err
	}
	for _, a := range c.scores {
		if err := a.LoadState(r); err != nil {
			return err
		}
	}
	return nil
}
