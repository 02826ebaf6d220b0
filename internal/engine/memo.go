package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Memo is a keyed once-cell, the repository's one memoization
// primitive: the engine's column rates, the experiment suite's traces,
// step-1 sweeps and profiles, and the sweep worker's per-scale suites
// all live in one. The first Do for a key runs its function; every
// concurrent caller for that key blocks on that run and every later
// caller gets its result, value or error alike.
//
// One rule evicts: a run whose error is context.Canceled or
// context.DeadlineExceeded is not kept. Such an error describes one
// caller's deadline, not the key, so the callers already waiting on
// that run share it and the next Do runs the function again. A run
// that panics is kept as an error for every other caller, and the
// panic goes on up the caller that ran it.
//
// The zero Memo is empty and ready to use. A Memo must not be copied
// after first use.
type Memo[K comparable, V any] struct {
	mu       sync.Mutex
	cells    map[K]*memoCell[V]
	computed atomic.Int64
	shared   atomic.Int64
}

type memoCell[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do returns key's memoized result, running fn to compute it when the
// memo holds none.
func (m *Memo[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	m.mu.Lock()
	c, ok := m.cells[key]
	if !ok {
		if m.cells == nil {
			m.cells = map[K]*memoCell[V]{}
		}
		c = &memoCell[V]{done: make(chan struct{})}
		m.cells[key] = c
	}
	m.mu.Unlock()
	if ok {
		m.shared.Add(1)
		<-c.done
		return c.val, c.err
	}
	m.computed.Add(1)
	finished := false
	defer func() {
		if !finished {
			c.err = fmt.Errorf("engine: memoized computation for %v panicked", key)
		}
		if errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded) {
			m.mu.Lock()
			if m.cells[key] == c {
				delete(m.cells, key)
			}
			m.mu.Unlock()
		}
		close(c.done)
	}()
	c.val, c.err = fn()
	finished = true
	return c.val, c.err
}

// Put installs v as key's result without running anything, replacing
// any result held; it primes a memo with artifacts produced elsewhere
// (ingested traces) and counts as neither computed nor shared.
func (m *Memo[K, V]) Put(key K, v V) {
	c := &memoCell[V]{done: make(chan struct{}), val: v}
	close(c.done)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cells == nil {
		m.cells = map[K]*memoCell[V]{}
	}
	m.cells[key] = c
}

// Computed counts the Do calls that ran their function: memo misses,
// including runs later evicted for a context error.
func (m *Memo[K, V]) Computed() int64 { return m.computed.Load() }

// Shared counts the Do calls served by another call's run, finished or
// in flight, without running their own function.
func (m *Memo[K, V]) Shared() int64 { return m.shared.Load() }
