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
// As with a sync.Pool, an idle pool empties itself over two garbage
// collections, and a slice that is never released is simply collected.
//
// A Pool is not a sync.Pool, though. A sync.Pool keeps the last object
// each P released in a slot no other P can take, so a Get on one core
// can miss a table another core has just released, and how often it
// does depends on which cores the goroutines happen to run on: on a
// 2-CPU host about one process in three re-allocates a 1 MB counter
// table on every replay-grid pass. A Pool keeps one list per size class
// behind a mutex instead; Gets and Puts are one per predictor table, so
// the lock is cold.
package reuse

import (
	"math/bits"
	"runtime"
	"sync"
	"unsafe"
)

// Pool is a free list of []T in power-of-two size classes. The zero
// value is ready for use, and a Pool is safe for concurrent use. A Pool
// must not be copied after first use.
type Pool[T any] struct {
	mu sync.Mutex
	// fresh[c] holds the first element of each slice of capacity at
	// least 1<<c released since the last garbage collection, standing
	// for the slice of exactly that capacity, so a Put stores a pointer;
	// aged[c] holds those released before it. A collection drops aged
	// and ages fresh.
	fresh, aged [bits.UintSize][]*T
	hook        sync.Once
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
	p.mu.Lock()
	e := pop(&p.fresh[c])
	if e == nil {
		e = pop(&p.aged[c])
	}
	p.mu.Unlock()
	if e != nil {
		return unsafe.Slice(e, 1<<c)[:n]
	}
	return make([]T, n, 1<<c)
}

// pop removes and returns the last element of *l, or nil.
func pop[T any](l *[]*T) *T {
	n := len(*l)
	if n == 0 {
		return nil
	}
	e := (*l)[n-1]
	(*l)[n-1] = nil
	*l = (*l)[:n-1]
	return e
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
	p.hook.Do(func() { afterCollections(p.age) })
	c := bits.Len(uint(cap(s))) - 1
	p.mu.Lock()
	p.fresh[c] = append(p.fresh[c], &s[:1][0])
	p.mu.Unlock()
}

// age drops the slices that have gone unused since the collection
// before last and ages the rest. The lists swap arrays, so a steady
// state allocates nothing.
func (p *Pool[T]) age() {
	p.mu.Lock()
	for c := range p.fresh {
		clear(p.aged[c])
		p.aged[c], p.fresh[c] = p.fresh[c], p.aged[c][:0]
	}
	p.mu.Unlock()
}

var (
	hooksMu sync.Mutex
	hooks   []func()
)

// afterCollections runs fn after every garbage collection from now on.
func afterCollections(fn func()) {
	hooksMu.Lock()
	defer hooksMu.Unlock()
	if len(hooks) == 0 {
		armCollectionHook()
	}
	hooks = append(hooks, fn)
}

// tick is an object nothing references. Its finalizer runs once a
// collection has found it unreachable: it runs every hook, then arms a
// new tick for the next collection. It holds a pointer so that it is
// never batched with other small objects by the tiny allocator.
type tick struct{ _ *int }

func armCollectionHook() {
	runtime.SetFinalizer(&tick{}, func(*tick) {
		hooksMu.Lock()
		fns := hooks
		hooksMu.Unlock()
		for _, fn := range fns {
			fn()
		}
		armCollectionHook()
	})
}

// The process-wide pools.
var (
	// Uint8 holds counter tables (internal/bpred/counter) and other
	// byte-wide entries.
	Uint8 Pool[uint8]
	// Uint32 holds 32-bit target registers, the profiler's prefix,
	// history and outcome arrays, and other per-entry addresses.
	Uint32 Pool[uint32]
	// Uint64 holds 64-bit history registers.
	Uint64 Pool[uint64]
	// Int64 holds count matrices.
	Int64 Pool[int64]
)
