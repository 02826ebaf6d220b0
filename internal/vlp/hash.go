// Package vlp implements the paper's contribution: the Variable Length
// Path branch predictor (§3) for both conditional and indirect branches,
// together with the fixed length path (FLP) special case, the profiled
// per-branch hash-function selection, the Hash Function Number Table
// pipelining model (§4.3), and the extensions sketched in §3.4 and §6.
package vlp

import (
	"fmt"

	"repro/internal/arch"
)

// DefaultMaxPath is the Target History Buffer depth used throughout the
// paper's experiments: "In our experiments, we used a THB that could hold
// at most 32 target addresses so there were 32 hash functions" (§3.1).
const DefaultMaxPath = 32

// Frame is the rotating frame of the prefix-XOR path hash at index width
// k. The index of hash function HF_L is the XOR of the L most recent
// compressed targets, the one at depth j rotated left by j bits (§3.3).
// In the frame, the m-th inserted target u_m enters rotated right by its
// phase φ_m = m mod k, and a running prefix accumulates the entries:
//
//	U_m = rotr(u_m, φ_m)    P_m = P_{m-1} XOR U_m    (P_{<0} = 0)
//
// After insert m, I_L = rotl(P_m XOR P_{m-L}, φ_m): rotating U_{m-j} left
// by φ_m gives rotl(u_{m-j}, j), exactly §3.3's depth-j term. So any
// index costs one XOR and one rotation, and an insert costs one of each,
// whatever the path length. HashSet keeps the prefixes in a ring; the
// profiling pipeline keeps them for a whole input and reads every
// candidate length from the same array.
type Frame struct {
	k    uint
	mask uint32
}

// NewFrame returns the frame for k-bit indices; k must be in 1..32.
func NewFrame(k uint) (Frame, error) {
	if k < 1 || k > 32 {
		return Frame{}, fmt.Errorf("vlp: index width %d out of range 1..32", k)
	}
	return Frame{k: k, mask: uint32(1<<k - 1)}, nil
}

// K returns the index width in bits.
func (f Frame) K() uint { return f.k }

// Compress reduces a target address to k bits. The always-zero low two PC
// bits are discarded first, then the high-order bits, the paper's "simply
// discarding the higher order bits" (§3.1).
func (f Frame) Compress(a arch.Addr) uint32 {
	return uint32(uint64(a)>>2) & f.mask
}

// Push inserts compressed target u on top of prefix p, whose newest
// insert has the given phase, and returns the new prefix and its phase.
func (f Frame) Push(p uint32, phase uint, u uint32) (uint32, uint) {
	phase++
	if phase == f.k {
		phase = 0
	}
	return p ^ f.enter(u, phase), phase
}

// enter returns U = rotr(u, phase), the prefix term of compressed target
// u inserted at phase. phase < k and u < 2^k, so the rotation needs no
// modulo and no zero-rotation branch: a shift by k clears u, even at 32.
func (f Frame) enter(u uint32, phase uint) uint32 {
	return (u>>phase | u<<(f.k-phase)) & f.mask
}

// Index returns I_L from the newest prefix p, the prefix q taken L
// inserts earlier, and the phase of the newest insert.
func (f Frame) Index(p, q uint32, phase uint) uint32 {
	v := p ^ q
	return (v<<phase | v>>(f.k-phase)) & f.mask
}

// HashSet maintains the Target History Buffer (THB) and the N path hash
// indices I_1..I_N over it (§3.1, Figure 2).
//
// Each target address is compressed to k bits by discarding high-order
// bits (§3.1); the index of hash function HF_X is the XOR of the X most
// recent compressed targets, each rotated left (as a k-bit value) by its
// depth: T_1 by 0 bits, T_2 by 1 bit, and so on (§3.3), so that the same
// set of targets in a different order yields a different index.
//
// The paper maintains the indices with N "partial sum" registers (§4.1),
// which makes every insert update all N registers. HashSet keeps Frame's
// prefix XORs instead, in a ring of a power-of-two size above N, so both
// Insert and Index are O(1). The register layout survives at the edges:
// Snapshot, Restore, SaveState and LoadState convert to and from it. The
// THB ring is kept as well so Target and DirectIndex see the true recent
// path; the test suite checks Index against DirectIndex and against a
// model of the partial-sum registers.
type HashSet struct {
	f     Frame
	n     int
	pre   []uint32 // prefix ring; pre[pos] is the newest prefix
	ring  int      // len(pre)-1, a mask
	pos   int
	phase uint     // frame phase of the newest insert
	thb   []uint32 // ring of compressed targets
	head  int      // position of most recent target in thb
	count int      // targets inserted, saturating at n
}

// NewHashSet returns a HashSet producing k-bit indices over paths of up to
// n targets. k must be in 1..32 and n at least 1.
func NewHashSet(k uint, n int) (*HashSet, error) {
	f, err := NewFrame(k)
	if err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("vlp: path depth %d out of range", n)
	}
	size := 2
	for size <= n {
		size *= 2
	}
	return &HashSet{
		f:    f,
		n:    n,
		pre:  make([]uint32, size),
		ring: size - 1,
		thb:  make([]uint32, n),
		head: n - 1,
	}, nil
}

// K returns the index width in bits.
func (h *HashSet) K() uint { return h.f.k }

// MaxPath returns the THB depth N.
func (h *HashSet) MaxPath() int { return h.n }

// rotl rotates v left by r bits within the k-bit index width.
func (h *HashSet) rotl(v uint32, r uint) uint32 {
	r %= h.f.k
	if r == 0 {
		return v & h.f.mask
	}
	return (v<<r | v>>(h.f.k-r)) & h.f.mask
}

// Insert records a new branch target into the THB (§4.1). Callers insert
// the targets of conditional and indirect branches only (§3.2);
// unconditional branches and returns carry no path information.
func (h *HashSet) Insert(target arch.Addr) {
	h.InsertCompressed(h.f.Compress(target))
}

// InsertCompressed inserts a target that is already compressed to k bits
// — used when re-playing targets captured from the THB ring (the
// history-stack combine variant re-inserts the last few callee targets on
// top of the restored caller history).
func (h *HashSet) InsertCompressed(t uint32) {
	t &= h.f.mask
	p, phase := h.f.Push(h.pre[h.pos], h.phase, t)
	h.pos = (h.pos + 1) & h.ring
	h.pre[h.pos], h.phase = p, phase
	h.head++
	if h.head == h.n {
		h.head = 0
	}
	h.thb[h.head] = t
	if h.count < h.n {
		h.count++
	}
}

// Index returns I_length, the predictor-table index produced by hash
// function HF_length. length must be in 1..MaxPath.
func (h *HashSet) Index(length int) uint32 {
	if length < 1 || length > h.n {
		panic(fmt.Sprintf("vlp: path length %d out of range 1..%d", length, h.n))
	}
	return h.f.Index(h.pre[h.pos], h.pre[(h.pos-length)&h.ring], h.phase)
}

// Target returns the depth-th most recent compressed target in the THB
// (depth 0 is the most recent), or 0 if fewer targets have been inserted —
// matching the zero-initialised hardware registers.
func (h *HashSet) Target(depth int) uint32 {
	if depth < 0 || depth >= h.n || depth >= h.count {
		return 0
	}
	return h.thb[(h.head-depth+h.n)%h.n]
}

// DirectIndex recomputes I_length from the THB contents using the
// straightforward multi-stage XOR tree of §4.1. It exists to validate the
// prefix form and to document the reference semantics.
func (h *HashSet) DirectIndex(length int) uint32 {
	if length < 1 || length > h.n {
		panic(fmt.Sprintf("vlp: path length %d out of range 1..%d", length, h.n))
	}
	var v uint32
	for j := 0; j < length; j++ {
		v ^= h.rotl(h.Target(j), uint(j))
	}
	return v
}

// Snapshot returns the indices I_1..I_N in the layout of §4.1's
// partial-sum registers (element x-1 is I_x), used by the history-stack
// extension (§6) to save predictor history across calls.
func (h *HashSet) Snapshot() []uint32 {
	s := make([]uint32, h.n)
	h.snapshotTo(s)
	return s
}

// snapshotTo writes the Snapshot registers into s, of length MaxPath.
func (h *HashSet) snapshotTo(s []uint32) {
	for x := range s {
		s[x] = h.Index(x + 1)
	}
}

// Restore overwrites the indices with a register snapshot: the newest
// prefix becomes 0 and the prefix X inserts older becomes I_X rotated
// into the current frame, so Index(X) returns s[X-1] and later inserts
// continue from it exactly as the partial-sum registers would. The THB
// ring is left alone: DirectIndex reflects the true recent path while
// Index reflects the restored prediction history, which is exactly the
// divergence the history-stack extension introduces.
func (h *HashSet) Restore(s []uint32) {
	if len(s) != h.n {
		panic(fmt.Sprintf("vlp: restoring snapshot of depth %d into HashSet of depth %d", len(s), h.n))
	}
	h.pre[h.pos] = 0
	for x, v := range s {
		h.pre[(h.pos-x-1)&h.ring] = h.f.enter(v, h.phase)
	}
}
