package reuse

import (
	"sync"
	"testing"
)

// TestGetLengthAndClass: Get returns the asked length at the capacity
// of its power-of-two class, and Get(0) returns nil.
func TestGetLengthAndClass(t *testing.T) {
	var p Pool[uint32]
	for n, wantCap := range map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024, 1025: 2048} {
		s := p.Get(n)
		if len(s) != n || cap(s) != wantCap {
			t.Errorf("Get(%d): len %d cap %d, want len %d cap %d", n, len(s), cap(s), n, wantCap)
		}
	}
	if s := p.Get(0); s != nil {
		t.Errorf("Get(0) = %v, want nil", s)
	}
}

// TestReuseWithinClass: a released slice comes back for any length of
// its class, with its old contents, and never for another class. Under
// the race detector sync.Pool drops a quarter of its Puts at random, so
// reuse is only required within a few tries.
func TestReuseWithinClass(t *testing.T) {
	var p Pool[uint8]
	reused := false
	for try := 0; try < 64 && !reused; try++ {
		s := p.Get(100)
		for i := range s {
			s[i] = 0xFF
		}
		p.Put(s)
		r := p.Get(65) // class 128, as 100 is
		if len(r) != 65 || cap(r) != 128 {
			t.Fatalf("Get(65): len %d cap %d", len(r), cap(r))
		}
		if &r[0] == &s[0] {
			reused = true
			if r[64] != 0xFF {
				t.Errorf("reused slice lost its contents: r[64] = %#x", r[64])
			}
		}
		p.Put(r)
		other := p.Get(64) // class 64
		if &other[0] == &s[0] {
			t.Fatalf("a class-128 slice came back for Get(64)")
		}
	}
	if !reused {
		t.Error("a released slice was never reused")
	}
}

// TestPutOddCapacity: a slice whose capacity is not a power of two is
// filed under the class below it, so a Get never reaches past its
// array.
func TestPutOddCapacity(t *testing.T) {
	var p Pool[int64]
	for try := 0; try < 64; try++ {
		p.Put(make([]int64, 3, 100))
		s := p.Get(64)
		if cap(s) != 64 {
			t.Fatalf("Get(64): cap %d", cap(s))
		}
		s[63] = 1
	}
	p.Put(nil) // ignored
}

// TestZeroed: Zeroed clears a reused slice.
func TestZeroed(t *testing.T) {
	var p Pool[uint64]
	for try := 0; try < 16; try++ {
		s := p.Get(8)
		for i := range s {
			s[i] = ^uint64(0)
		}
		p.Put(s)
		for i, v := range p.Zeroed(8) {
			if v != 0 {
				t.Fatalf("Zeroed(8)[%d] = %#x", i, v)
			}
		}
	}
}

// TestConcurrentUse: goroutines getting, writing and releasing slices
// never share one while they hold it (run it under -race).
func TestConcurrentUse(t *testing.T) {
	var p Pool[uint32]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g uint32) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := p.Get(1 + i%300)
				for j := range s {
					s[j] = g
				}
				for j := range s {
					if s[j] != g {
						t.Errorf("goroutine %d: entry %d overwritten with %d", g, j, s[j])
						return
					}
				}
				p.Put(s)
			}
		}(uint32(g))
	}
	wg.Wait()
}
