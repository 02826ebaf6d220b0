package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestMemoKeepsErrors: a failure that is not a context error is the
// key's answer, memoized like a value, so the function runs once.
func TestMemoKeepsErrors(t *testing.T) {
	var m Memo[string, int]
	boom := errors.New("boom")
	runs := 0
	for i := 0; i < 3; i++ {
		_, err := m.Do("k", func() (int, error) { runs++; return 0, boom })
		if !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v, want %v", i, err, boom)
		}
	}
	if runs != 1 || m.Computed() != 1 || m.Shared() != 2 {
		t.Errorf("runs %d, computed %d, shared %d; want 1/1/2", runs, m.Computed(), m.Shared())
	}
}

// TestMemoEvictsContextErrors: a run that ends in context.Canceled or
// context.DeadlineExceeded, wrapped or not, is dropped, and the next
// call computes the key again.
func TestMemoEvictsContextErrors(t *testing.T) {
	for _, cut := range []error{context.Canceled, context.DeadlineExceeded, fmt.Errorf("replay: %w", context.Canceled)} {
		var m Memo[string, int]
		if _, err := m.Do("k", func() (int, error) { return 0, cut }); !errors.Is(err, cut) {
			t.Fatalf("first call err = %v, want %v", err, cut)
		}
		v, err := m.Do("k", func() (int, error) { return 7, nil })
		if err != nil || v != 7 || m.Computed() != 2 {
			t.Errorf("after %v: Do = %d, %v with %d runs; want 7, nil, 2 runs", cut, v, err, m.Computed())
		}
	}
}

// TestMemoSingleflight: concurrent first callers share one run, and a
// primed key runs nothing.
func TestMemoSingleflight(t *testing.T) {
	var m Memo[int, *int]
	release := make(chan struct{})
	var wg sync.WaitGroup
	got := make([]*int, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = m.Do(1, func() (*int, error) { <-release; return new(int), nil })
		}(i)
	}
	close(release)
	wg.Wait()
	for i := range got {
		if got[i] == nil || got[i] != got[0] {
			t.Fatalf("caller %d got %p, caller 0 got %p; want one shared result", i, got[i], got[0])
		}
	}
	if m.Computed() != 1 || m.Shared() != 7 {
		t.Errorf("computed %d, shared %d; want 1/7", m.Computed(), m.Shared())
	}
	primed := 5
	m.Put(2, &primed)
	if v, err := m.Do(2, func() (*int, error) { t.Error("primed key ran"); return nil, nil }); err != nil || v != &primed {
		t.Errorf("primed Do = %v, %v", v, err)
	}
}

// TestMemoPanicFailsWaiters: a panicking run re-panics on its own
// caller and leaves an error, not a zero value, for everyone else.
func TestMemoPanicFailsWaiters(t *testing.T) {
	var m Memo[string, []float64]
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not reach the caller that ran fn")
			}
		}()
		m.Do("k", func() ([]float64, error) { panic("predictor bug") })
	}()
	if v, err := m.Do("k", func() ([]float64, error) { return []float64{1}, nil }); err == nil || v != nil {
		t.Errorf("after a panic Do = %v, %v; want the memoized panic error", v, err)
	}
}
