package reuse

import (
	"runtime"
	"sync"
	"testing"
	"time"
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
// its class, with its old contents, and never for another class.
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
// while collections age the pool never share one while they hold it
// (run it under -race).
func TestConcurrentUse(t *testing.T) {
	var p Pool[uint32]
	var wg sync.WaitGroup
	stop := make(chan struct{})
	aged := make(chan struct{})
	go func() {
		defer close(aged)
		for {
			select {
			case <-stop:
				return
			default:
				p.age()
			}
		}
	}()
	defer func() {
		close(stop)
		<-aged
	}()
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

// TestNextGetReuses: a released slice is handed to the very next Get of
// its class, whichever goroutine asks, so a table released by one
// replay worker backs the next table another worker builds.
func TestNextGetReuses(t *testing.T) {
	var p Pool[uint8]
	s := p.Get(1000)
	p.Put(s)
	got := make(chan []uint8)
	go func() { got <- p.Get(600) }()
	if r := <-got; &r[0] != &s[0] {
		t.Error("a Get on another goroutine did not take the released slice")
	}
}

// TestAging: a released slice survives one collection and is dropped
// at the second if no Get took it.
func TestAging(t *testing.T) {
	var p Pool[uint32]
	s := p.Get(64)
	p.Put(s)
	p.age()
	if r := p.Get(64); &r[0] != &s[0] {
		t.Fatal("a slice released before one collection was not reused")
	}
	p.Put(s)
	p.age()
	p.age()
	if r := p.Get(64); &r[0] == &s[0] {
		t.Error("a slice idle for two collections was still in the pool")
	}
}

// TestCollectionsAgePools: the collection hook runs after garbage
// collections, so an idle pool empties itself.
func TestCollectionsAgePools(t *testing.T) {
	ran := make(chan struct{}, 1)
	afterCollections(func() {
		select {
		case ran <- struct{}{}:
		default:
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-ran:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("no collection hook ran after repeated collections")
		}
	}
}
