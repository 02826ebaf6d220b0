package vlp

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/xrand"
)

func TestNewHashSetValidation(t *testing.T) {
	for _, c := range []struct{ k, n int }{{0, 32}, {33, 32}, {9, 0}, {9, -1}} {
		if _, err := NewHashSet(uint(c.k), c.n); err == nil {
			t.Errorf("NewHashSet(%d, %d) accepted", c.k, c.n)
		}
	}
	h, err := NewHashSet(14, 32)
	if err != nil {
		t.Fatal(err)
	}
	if h.K() != 14 || h.MaxPath() != 32 {
		t.Errorf("K/MaxPath = %d/%d", h.K(), h.MaxPath())
	}
}

func TestCompressDiscardsHighBits(t *testing.T) {
	h, _ := NewHashSet(8, 4)
	// compress drops the 2 alignment bits then masks to k bits.
	if got := h.compress(0x12345678); got != uint32(0x12345678>>2)&0xff {
		t.Errorf("compress = %#x", got)
	}
}

func TestRotl(t *testing.T) {
	h, _ := NewHashSet(8, 4)
	cases := []struct {
		v    uint32
		r    uint
		want uint32
	}{
		{0b0000_0001, 0, 0b0000_0001},
		{0b0000_0001, 1, 0b0000_0010},
		{0b1000_0000, 1, 0b0000_0001}, // wraps within 8 bits
		{0b0000_0001, 8, 0b0000_0001}, // full rotation is identity
		{0b0000_0001, 9, 0b0000_0010}, // rotation amount mod k
	}
	for _, c := range cases {
		if got := h.rotl(c.v, c.r); got != c.want {
			t.Errorf("rotl(%#b, %d) = %#b, want %#b", c.v, c.r, got, c.want)
		}
	}
}

// TestIncrementalMatchesDirect is the §4.1 equivalence: the partial-sum
// registers must always equal the full rotate-and-XOR recomputation, for
// every path length, after any insertion sequence.
func TestIncrementalMatchesDirect(t *testing.T) {
	f := func(seed uint64, kRaw, nRaw uint8, steps uint8) bool {
		k := uint(kRaw)%16 + 1 // 1..16
		n := int(nRaw)%32 + 1  // 1..32
		h, err := NewHashSet(k, n)
		if err != nil {
			return false
		}
		rng := xrand.New(seed)
		for s := 0; s < int(steps); s++ {
			h.Insert(arch.Addr(rng.Uint64() & 0xfffffff))
			for l := 1; l <= n; l++ {
				if h.Index(l) != h.DirectIndex(l) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestIndicesViewMatchesIndex: the register view Indices exposes holds
// I_1..I_MaxNeeded, full bank or bounded, after every insert.
func TestIndicesViewMatchesIndex(t *testing.T) {
	rng := xrand.New(5)
	for _, bound := range []int{0, 8} {
		h, err := NewHashSet(12, 32)
		if err != nil {
			t.Fatal(err)
		}
		h.SetMaxNeeded(bound)
		for s := 0; s < 100; s++ {
			h.Insert(arch.Addr(rng.Uint64() & 0xfffffff))
			regs := h.Indices()
			if len(regs) != h.MaxNeeded() {
				t.Fatalf("bound %d: %d registers in view, want %d", bound, len(regs), h.MaxNeeded())
			}
			for l := 1; l <= h.MaxNeeded(); l++ {
				if regs[l-1] != h.Index(l) || regs[l-1] != h.DirectIndex(l) {
					t.Fatalf("bound %d step %d: view I_%d = %d, Index %d, DirectIndex %d",
						bound, s, l, regs[l-1], h.Index(l), h.DirectIndex(l))
				}
			}
		}
	}
}

func TestIndexEncodesOrder(t *testing.T) {
	// The same two targets inserted in opposite orders must generally
	// produce different I_2 (the point of the rotation, §3.3).
	h1, _ := NewHashSet(12, 4)
	h2, _ := NewHashSet(12, 4)
	a, b := arch.Addr(0x1004), arch.Addr(0x2008)
	h1.Insert(a)
	h1.Insert(b)
	h2.Insert(b)
	h2.Insert(a)
	if h1.Index(2) == h2.Index(2) {
		t.Error("I_2 identical for opposite insertion orders")
	}
	// Without rotation the XOR would be order-blind: verify the direct
	// computation differs from a plain XOR for this pair.
	plain := h1.compress(a) ^ h1.compress(b)
	if h1.Index(2) == plain && h2.Index(2) == plain {
		t.Error("rotation had no effect")
	}
}

func TestIndexDepthIsolation(t *testing.T) {
	// I_1 depends only on the most recent target.
	h, _ := NewHashSet(10, 8)
	h.Insert(0x1004)
	h.Insert(0x2008)
	i1 := h.Index(1)
	if i1 != h.compress(0x2008) {
		t.Errorf("I_1 = %#x, want compress of most recent target %#x", i1, h.compress(0x2008))
	}
	// Inserting a new target changes I_1 to the new target.
	h.Insert(0x300c)
	if h.Index(1) != h.compress(0x300c) {
		t.Error("I_1 did not track the newest target")
	}
}

func TestIndexPanicsOutOfRange(t *testing.T) {
	h, _ := NewHashSet(10, 4)
	for _, l := range []int{0, 5, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Index(%d) did not panic", l)
				}
			}()
			h.Index(l)
		}()
	}
}

func TestTargetRing(t *testing.T) {
	h, _ := NewHashSet(16, 3)
	if h.Target(0) != 0 {
		t.Error("empty THB Target(0) != 0")
	}
	h.Insert(0x1004)
	h.Insert(0x2008)
	if h.Target(0) != h.compress(0x2008) || h.Target(1) != h.compress(0x1004) {
		t.Error("Target order wrong")
	}
	if h.Target(2) != 0 {
		t.Error("unfilled THB slot not zero")
	}
	h.Insert(0x300c)
	h.Insert(0x4010) // evicts 0x1004
	if h.Target(2) != h.compress(0x2008) {
		t.Error("ring eviction wrong")
	}
	if h.Target(3) != 0 || h.Target(-1) != 0 {
		t.Error("out-of-range Target not zero")
	}
}

func TestSnapshotRestore(t *testing.T) {
	h, _ := NewHashSet(12, 8)
	h.Insert(0x1004)
	h.Insert(0x2008)
	snap := h.Snapshot()
	want2 := h.Index(2)
	h.Insert(0x300c)
	if h.Index(2) == want2 {
		t.Fatal("insert did not change I_2 (degenerate targets?)")
	}
	h.Restore(snap)
	if h.Index(2) != want2 {
		t.Error("Restore did not recover I_2")
	}
	// Mutating the snapshot after restore must not affect the HashSet.
	snap[1] = 0xdead
	if h.Index(2) != want2 {
		t.Error("Restore aliased the snapshot slice")
	}
}

func TestRestorePanicsOnDepthMismatch(t *testing.T) {
	h, _ := NewHashSet(12, 8)
	defer func() {
		if recover() == nil {
			t.Error("Restore with wrong depth did not panic")
		}
	}()
	h.Restore(make([]uint32, 4))
}

// TestPartialSumSubtraction verifies the algebra behind the second
// register-update technique of §4.1: the freshly computed I_X with the
// oldest contributing target "subtracted" equals I_{X-1} over the new THB
// window.
func TestPartialSumSubtraction(t *testing.T) {
	const k, n = 13, 6
	h, _ := NewHashSet(k, n)
	rng := xrand.New(7)
	for s := 0; s < 200; s++ {
		h.Insert(arch.Addr(rng.Uint64() & 0xffffff))
		if s < n {
			continue
		}
		for x := 2; x <= n; x++ {
			// I_{X-1} = I_X XOR rot_{X-1}(T_X)   (T_X = depth X-1)
			got := h.Index(x) ^ h.rotl(h.Target(x-1), uint(x-1))
			if got != h.Index(x-1) {
				t.Fatalf("step %d: subtracting T_%d from I_%d gave %#x, want I_%d = %#x",
					s, x, x, got, x-1, h.Index(x-1))
			}
		}
	}
}
