package vlp

import (
	"bytes"
	"io"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/bpred/state"
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
	if got := h.f.Compress(0x12345678); got != uint32(0x12345678>>2)&0xff {
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

// refBank is §4.1's partial-sum register bank, kept as the reference
// model of HashSet: the register of HF_X holds I_X, and inserting a
// compressed target t updates I_X = rotl(I_{X-1}, 1) XOR t, deep to
// shallow. Only the first live registers are maintained, the rest stay
// stale, which models a bank bounded to the lengths its predictor
// reads. Its state encodes in the vlps/v1 layout HashSet uses.
type refBank struct {
	k           uint
	mask        uint32
	live        int
	regs        []uint32
	thb         []uint32
	head, count int
}

func newRefBank(k uint, n, live int) *refBank {
	return &refBank{k: k, mask: uint32(1<<k - 1), live: live,
		regs: make([]uint32, n), thb: make([]uint32, n), head: n - 1}
}

func (b *refBank) insert(t uint32) {
	t &= b.mask
	for x := b.live - 1; x >= 1; x-- {
		v := b.regs[x-1]
		b.regs[x] = (v<<1|v>>(b.k-1))&b.mask ^ t
	}
	b.regs[0] = t
	b.head = (b.head + 1) % len(b.thb)
	b.thb[b.head] = t
	b.count = min(b.count+1, len(b.thb))
}

func (b *refBank) target(depth int) uint32 {
	if depth >= b.count {
		return 0
	}
	return b.thb[(b.head-depth+len(b.thb))%len(b.thb)]
}

func (b *refBank) snapshot() []uint32 { return slices.Clone(b.regs) }

// restoreCombined is the register-bank form of the history stack's
// restore, with the combine variant's re-inserted callee tail.
func (b *refBank) restoreCombined(s []uint32, combine int) {
	var tail []uint32
	for i := combine - 1; i >= 0; i-- {
		tail = append(tail, b.target(i))
	}
	copy(b.regs, s)
	for _, t := range tail {
		b.insert(t)
	}
}

func (b *refBank) saveState(w io.Writer) error {
	e := state.NewEncoder(w)
	e.U32s(b.regs)
	e.U32s(b.thb)
	e.Int(b.head)
	e.Int(b.count)
	return e.Err()
}

// TestIncrementalMatchesDirect is the three-way §4.1 equivalence: the
// prefix-XOR Index, the partial-sum register bank and the direct
// rotate-and-XOR recomputation agree at every path length, for every
// index width 1..32 and THB depth 1..32, across interleaved Insert,
// InsertCompressed, Snapshot/Restore and SaveState/LoadState. A restore
// makes Index deliberately diverge from DirectIndex (the THB keeps the
// true path), so DirectIndex is compared only at lengths the inserts
// since the last restore cover; the bank is compared always, and the
// saved state must be byte-identical to the bank's.
func TestIncrementalMatchesDirect(t *testing.T) {
	f := func(seed uint64, kRaw, nRaw uint8, steps uint8) bool {
		k := uint(kRaw)%32 + 1 // 1..32
		n := int(nRaw)%32 + 1  // 1..32
		h, err := NewHashSet(k, n)
		if err != nil {
			return false
		}
		ref := newRefBank(k, n, n)
		rng := xrand.New(seed)
		var saved [][]uint32
		since := n // inserts since the last restore, capped at n
		for s := 0; s < int(steps); s++ {
			switch rng.Uint64() % 8 {
			case 0, 1, 2, 3:
				a := arch.Addr(rng.Uint64())
				h.Insert(a)
				ref.insert(h.f.Compress(a))
				since = min(since+1, n)
			case 4:
				v := uint32(rng.Uint64())
				h.InsertCompressed(v)
				ref.insert(v)
				since = min(since+1, n)
			case 5:
				snap := h.Snapshot()
				if !slices.Equal(snap, ref.snapshot()) {
					return false
				}
				saved = append(saved, snap)
			case 6:
				if len(saved) > 0 {
					snap := saved[len(saved)-1]
					saved = saved[:len(saved)-1]
					h.Restore(snap)
					ref.restoreCombined(snap, 0)
					since = 0
				}
			default:
				var got, want bytes.Buffer
				if h.SaveState(&got) != nil || ref.saveState(&want) != nil ||
					!bytes.Equal(got.Bytes(), want.Bytes()) {
					return false
				}
				if h, err = NewHashSet(k, n); err != nil || h.LoadState(&want) != nil {
					return false
				}
			}
			for l := 1; l <= n; l++ {
				if h.Index(l) != ref.regs[l-1] {
					return false
				}
				if l <= since && h.Index(l) != h.DirectIndex(l) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
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
	plain := h1.f.Compress(a) ^ h1.f.Compress(b)
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
	if i1 != h.f.Compress(0x2008) {
		t.Errorf("I_1 = %#x, want compress of most recent target %#x", i1, h.f.Compress(0x2008))
	}
	// Inserting a new target changes I_1 to the new target.
	h.Insert(0x300c)
	if h.Index(1) != h.f.Compress(0x300c) {
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
	if h.Target(0) != h.f.Compress(0x2008) || h.Target(1) != h.f.Compress(0x1004) {
		t.Error("Target order wrong")
	}
	if h.Target(2) != 0 {
		t.Error("unfilled THB slot not zero")
	}
	h.Insert(0x300c)
	h.Insert(0x4010) // evicts 0x1004
	if h.Target(2) != h.f.Compress(0x2008) {
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
