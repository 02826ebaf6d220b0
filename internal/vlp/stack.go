package vlp

import (
	"repro/internal/arch"
	"repro/internal/bpred/state"
	"repro/internal/reuse"
	"repro/internal/trace"
)

// historyStackCap is the history stack's depth in frames; a call that
// finds the stack full drops its oldest frame.
const historyStackCap = 64

// histStack is the §6 history stack after Jacobson et al., shared by
// Cond and Indirect: a call saves the path indices, a return restores
// the newest saved ones. Frames are index snapshots in the layout of
// §4.1's partial-sum registers (element x-1 is I_x), kept in one flat
// ring of historyStackCap frames taken from reuse.Uint32, so a call or
// a return allocates nothing.
type histStack struct {
	frames []uint32 // historyStackCap frames of n registers each
	n      int      // registers per frame: the THB depth
	bottom int      // ring slot of the oldest frame
	depth  int      // frames held
	// tail holds the callee targets a combining return re-inserts
	// (Options.HistoryCombine of them); empty for a pure restore.
	tail []uint32
}

func newHistStack(n, combine int) *histStack {
	return &histStack{
		frames: reuse.Uint32.Get(historyStackCap * n),
		n:      n,
		tail:   make([]uint32, max(combine, 0)),
	}
}

// release hands the frame store back to reuse.Uint32. A nil stack (the
// extension off) has nothing to release.
func (s *histStack) release() {
	if s != nil {
		reuse.Uint32.Put(s.frames)
		s.frames = nil
	}
}

// frame returns the i-th frame from the bottom.
func (s *histStack) frame(i int) []uint32 {
	slot := (s.bottom + i) % historyStackCap
	return s.frames[slot*s.n : (slot+1)*s.n]
}

// push saves hs's indices on top of the stack.
func (s *histStack) push(hs *HashSet) {
	if s.depth == historyStackCap {
		s.bottom = (s.bottom + 1) % historyStackCap
		s.depth--
	}
	hs.snapshotTo(s.frame(s.depth))
	s.depth++
}

// pop restores the newest saved indices into hs and, for the combine
// variant, replays the most recent len(tail) THB targets (the callee's
// tail) on top, oldest first, so the indices reflect caller context
// followed by the callee's last transfers. A return with no saved
// frame leaves hs alone.
func (s *histStack) pop(hs *HashSet) {
	if s.depth == 0 {
		return
	}
	s.depth--
	for i := range s.tail {
		s.tail[i] = hs.Target(len(s.tail) - 1 - i)
	}
	hs.Restore(s.frame(s.depth))
	for _, t := range s.tail {
		hs.InsertCompressed(t)
	}
}

// observePath is the history-maintenance half of a path predictor's
// update, shared by Cond and Indirect: the history stack (nil when the
// extension is off) saves on calls and restores on returns, then the
// record's target enters the THB if the insertion policy (§3.2) says
// so.
func observePath(hs *HashSet, s *histStack, storeReturns bool, r trace.Record) {
	if s != nil {
		switch {
		case r.Kind.PushesReturn():
			s.push(hs)
		case r.Kind == arch.Return:
			s.pop(hs)
		}
	}
	if r.Kind.RecordsInTHB() || (storeReturns && r.Kind == arch.Return) {
		hs.Insert(r.Next)
	}
}

// save writes the frames in the vlps/v1 layout: a frame count, then
// each frame's registers, oldest first. A nil stack writes no frames.
func (s *histStack) save(e *state.Encoder) {
	if s == nil {
		e.Int(0)
		return
	}
	e.Int(s.depth)
	for i := 0; i < s.depth; i++ {
		e.U32s(s.frame(i))
	}
}

// load replaces the frames with ones written by save. The cap bounds
// the count: a deeper stack cannot have been produced by an equivalent
// configuration, and neither can frames for a predictor without the
// extension (a nil stack).
func (s *histStack) load(d *state.Decoder) error {
	n := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if n > historyStackCap {
		return state.Corruptf("vlp: history stack depth %d exceeds cap %d", n, historyStackCap)
	}
	if s == nil {
		if n > 0 {
			return state.Corruptf("vlp: history-stack frames in state for a predictor without the extension")
		}
		return nil
	}
	s.bottom, s.depth = 0, 0
	for i := 0; i < n; i++ {
		d.U32s(s.frame(i))
		if err := d.Err(); err != nil {
			return err
		}
	}
	s.depth = n
	return nil
}
