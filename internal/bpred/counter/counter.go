// Package counter implements the small sequential-logic building blocks the
// predictors share: saturating up-down counters and history shift registers.
//
// These correspond to the paper's second-level "Pattern History Table"
// entries (2-bit saturating up-down counters, §2) and first-level "branch
// history registers". Counters are stored one per byte for simulation
// speed; hardware budgets are accounted in bits separately.
package counter

import (
	"fmt"

	"repro/internal/reuse"
)

// Array is a table of n saturating up-down counters of the given bit width.
type Array struct {
	table []uint8
	max   uint8
	mid   uint8
	bits  int
}

// NewArray returns n counters of width bits (1..8), each initialised to
// init. The conventional initial value for 2-bit counters is 1 ("weakly
// not-taken") or 2 ("weakly taken"); the paper does not specify, so the
// caller chooses. The table comes from the process-wide pool
// (reuse.Uint8); Release hands it back.
func NewArray(n int, bits int, init uint8) *Array {
	if n <= 0 {
		panic(fmt.Sprintf("counter: non-positive array size %d", n))
	}
	if bits < 1 || bits > 8 {
		panic(fmt.Sprintf("counter: unsupported width %d bits", bits))
	}
	a := &Array{
		table: reuse.Uint8.Get(n),
		max:   uint8(1<<uint(bits) - 1),
		mid:   uint8(1 << uint(bits-1)),
		bits:  bits,
	}
	a.Reset(init)
	return a
}

// Reset sets every counter to init, so a caller replaying many runs can
// reuse one table instead of allocating a fresh one per run. It fills by
// doubling copies (clear for zero), not byte by byte.
func (a *Array) Reset(init uint8) {
	if init > a.max {
		panic(fmt.Sprintf("counter: init %d exceeds max %d", init, a.max))
	}
	if init == 0 {
		clear(a.table)
		return
	}
	a.table[0] = init
	for n := 1; n < len(a.table); n *= 2 {
		copy(a.table[n:], a.table[:n])
	}
}

// Release returns the table to the process-wide pool for the next array
// to reuse. The array must not be used afterwards: its table is nil, so
// any counter access panics instead of reading another array's
// counters. Releasing twice is harmless.
func (a *Array) Release() {
	reuse.Uint8.Put(a.table)
	a.table = nil
}

// Len returns the number of counters.
func (a *Array) Len() int { return len(a.table) }

// Bits returns the width of each counter.
func (a *Array) Bits() int { return a.bits }

// SizeBits returns the hardware cost of the array in bits.
func (a *Array) SizeBits() int { return len(a.table) * a.bits }

// SizeBytes returns the hardware cost rounded up to whole bytes.
func (a *Array) SizeBytes() int { return (a.SizeBits() + 7) / 8 }

// Value returns counter i.
func (a *Array) Value(i int) uint8 { return a.table[i] }

// Set forces counter i to v, saturating at the maximum.
func (a *Array) Set(i int, v uint8) {
	if v > a.max {
		v = a.max
	}
	a.table[i] = v
}

// Inc increments counter i, saturating at the maximum.
func (a *Array) Inc(i int) {
	if a.table[i] < a.max {
		a.table[i]++
	}
}

// Dec decrements counter i, saturating at zero.
func (a *Array) Dec(i int) {
	if a.table[i] > 0 {
		a.table[i]--
	}
}

// Taken reports the prediction of counter i: taken when the value is in
// the upper half of the range ("greater than or equal to two" for the
// paper's 2-bit counters, §3.1).
func (a *Array) Taken(i int) bool { return a.table[i] >= a.mid }

// Train moves counter i toward taken (increment) or not-taken (decrement).
func (a *Array) Train(i int, taken bool) {
	if taken {
		a.Inc(i)
	} else {
		a.Dec(i)
	}
}

// Step predicts with counter i, then trains it with the outcome, and
// reports whether the prediction was correct: Taken followed by Train,
// with no data-dependent branch, for the replay loops that do both per
// record. Train's two saturating branches become one clamp: the counter
// moves to v+1 when taken and v-1 when not, clamped to 0..max.
func (a *Array) Step(i int, taken bool) (correct bool) {
	v := int(a.table[i])
	t := int(bit(taken))
	a.table[i] = uint8(min(max(v+t+t-1, 0), int(a.max)))
	return v >= int(a.mid) == taken
}

// bit converts a condition to 0 or 1 without a branch.
func bit(b bool) uint8 {
	var x uint8
	if b {
		x = 1
	}
	return x
}

// ShiftReg is a k-bit history shift register (k <= 64). New outcomes enter
// at the least-significant bit, the convention used throughout the
// two-level predictor literature.
type ShiftReg struct {
	bits uint64
	n    uint
	mask uint64
}

// NewShiftReg returns a zeroed register of n bits.
func NewShiftReg(n uint) *ShiftReg {
	if n == 0 || n > 64 {
		panic(fmt.Sprintf("counter: shift register width %d out of range", n))
	}
	mask := ^uint64(0)
	if n < 64 {
		mask = 1<<n - 1
	}
	return &ShiftReg{n: n, mask: mask}
}

// Push shifts in one outcome bit.
func (s *ShiftReg) Push(taken bool) {
	s.bits <<= 1
	if taken {
		s.bits |= 1
	}
	s.bits &= s.mask
}

// PushBits shifts in the low q bits of v, oldest-first semantics matching
// q consecutive Push calls. Path-history registers use this to record q
// bits of each branch target (Nair's scheme, §2).
func (s *ShiftReg) PushBits(v uint64, q uint) {
	if q > s.n {
		q = s.n
	}
	s.bits = (s.bits<<q | v&(1<<q-1)) & s.mask
}

// Value returns the register contents.
func (s *ShiftReg) Value() uint64 { return s.bits }

// Width returns the register width in bits.
func (s *ShiftReg) Width() uint { return s.n }

// SizeBits returns the hardware cost of the register.
func (s *ShiftReg) SizeBits() int { return int(s.n) }
