// Package reuse keeps released slices for reuse, so storage a pass
// throws away — a predictor's table, a profiling call's index arrays —
// backs the next pass's instead of becoming garbage. Every predictor in
// the paper's evaluation is a 2^k table sized to a hardware budget
// (§5), and the evaluation grid builds dozens of them per trace, one
// replay each.
//
// A Pool sorts slices into power-of-two size classes. The package holds
// one process-wide Pool per element type the predictors and the
// profiler share; a package with a private element type keeps its own.
// Pools are backed by sync.Pool, so an idle pool empties itself over
// two garbage collections and a slice that is never released is simply
// collected.
package reuse

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Pool is a free list of []T in power-of-two size classes. The zero
// value is ready for use, and a Pool is safe for concurrent use.
type Pool[T any] struct {
	// classes[c] holds the first element of released slices of
	// capacity at least 1<<c, each standing for the slice of exactly
	// that capacity, so a Put stores a pointer and allocates nothing.
	classes [bits.UintSize]sync.Pool
}

// Get returns a slice of length n and capacity the power of two at or
// above n. Its contents are unspecified: a reused slice holds whatever
// its last user wrote, so the caller must overwrite every entry before
// reading it. Get(0) returns nil.
func (p *Pool[T]) Get(n int) []T {
	if n <= 0 {
		if n < 0 {
			panic("reuse: negative length")
		}
		return nil
	}
	c := bits.Len(uint(n - 1))
	if e, ok := p.classes[c].Get().(*T); ok {
		return unsafe.Slice(e, 1<<c)[:n]
	}
	return make([]T, n, 1<<c)
}

// Zeroed is Get with every entry set to T's zero value, for tables
// whose entries start at zero.
func (p *Pool[T]) Zeroed(n int) []T {
	s := p.Get(n)
	clear(s)
	return s
}

// Put releases s for a later Get. The caller must not use s, or any
// slice sharing its array, afterwards. A slice of zero capacity is
// ignored, so releasing a nil table twice is harmless.
func (p *Pool[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	c := bits.Len(uint(cap(s))) - 1
	p.classes[c].Put(&s[:1][0])
}

// The process-wide pools.
var (
	// Uint8 holds counter tables (internal/bpred/counter) and other
	// byte-wide entries.
	Uint8 Pool[uint8]
	// Uint32 holds 32-bit target registers and the profiler's prefix
	// and history arrays.
	Uint32 Pool[uint32]
	// Uint64 holds 64-bit history registers and full target addresses.
	Uint64 Pool[uint64]
	// Int64 holds count matrices.
	Int64 Pool[int64]
)
