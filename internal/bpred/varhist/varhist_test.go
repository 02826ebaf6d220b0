package varhist

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/bpred/bimodal"
	"repro/internal/bpred/gshare"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func condRec(pc arch.Addr, taken bool) trace.Record {
	next := pc.FallThrough()
	if taken {
		next = 0x9000
	}
	return trace.Record{PC: pc, Kind: arch.Cond, Taken: taken, Next: next}
}

func TestValidation(t *testing.T) {
	if _, err := New(3000, Fixed{N: 4}); err == nil {
		t.Error("bad budget accepted")
	}
	if _, err := NewBits(10, Fixed{N: -1}); err == nil {
		t.Error("negative history accepted")
	}
	if _, err := NewBits(10, Fixed{N: 11}); err == nil {
		t.Error("history wider than index accepted")
	}
	p, err := New(4096, Fixed{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if p.SizeBytes() != 4096 {
		t.Errorf("SizeBytes = %d", p.SizeBytes())
	}
}

// TestFullHistoryEqualsGshare: with N = k the predictor must behave
// exactly like gshare on any stream.
func TestFullHistoryEqualsGshare(t *testing.T) {
	const k = 10
	v, err := NewBits(k, Fixed{N: k})
	if err != nil {
		t.Fatal(err)
	}
	g := gshare.NewBits(k)
	rng := xrand.New(5)
	for i := 0; i < 5000; i++ {
		pc := arch.Addr(0x1000 + 4*rng.Intn(64))
		if v.Predict(pc) != g.Predict(pc) {
			t.Fatalf("step %d: varhist(k) and gshare disagree", i)
		}
		r := condRec(pc, rng.Bool(0.6))
		v.Update(r)
		g.Update(r)
	}
}

// TestZeroHistoryEqualsBimodal: with N = 0 the predictor must behave
// exactly like a bimodal table.
func TestZeroHistoryEqualsBimodal(t *testing.T) {
	const k = 10
	v, err := NewBits(k, Fixed{N: 0})
	if err != nil {
		t.Fatal(err)
	}
	b := bimodal.NewBits(k)
	rng := xrand.New(6)
	for i := 0; i < 5000; i++ {
		pc := arch.Addr(0x1000 + 4*rng.Intn(64))
		if v.Predict(pc) != b.Predict(pc) {
			t.Fatalf("step %d: varhist(0) and bimodal disagree", i)
		}
		r := condRec(pc, rng.Bool(0.6))
		v.Update(r)
		b.Update(r)
	}
}

// TestPerBranchLengths: a biased branch at 0 bits and an alternating
// branch at 1+ bits coexist without cross-pollution through the history.
func TestPerBranchLengths(t *testing.T) {
	sel := &PerBranch{Bits_: map[arch.Addr]int{0x1004: 0, 0x1008: 4}, Default: 0}
	if sel.Bits(0x1008) != 4 || sel.Bits(0x9999) != 0 {
		t.Fatal("selector lookup wrong")
	}
	p, err := NewBits(12, sel)
	if err != nil {
		t.Fatal(err)
	}
	// Predict immediately before each branch's update, as the fetch/
	// retire loop does — the history at lookup must match the history at
	// training time.
	miss := 0
	for i := 0; i < 4000; i++ {
		alt := i%2 == 0
		if i > 2000 && !p.Predict(0x1004) {
			miss++
		}
		p.Update(condRec(0x1004, true))
		if i > 2000 && p.Predict(0x1008) != alt {
			miss++
		}
		p.Update(condRec(0x1008, alt))
	}
	if miss != 0 {
		t.Errorf("per-branch history lengths mispredicted %d times", miss)
	}
}

// TestSelectedBitsClamp: a selector may name any history length, and the
// predictor clamps it into 0..k rather than panicking, so selecting -5
// and 99 bits behaves exactly like selecting 0 and k.
func TestSelectedBitsClamp(t *testing.T) {
	const k = 8
	out, err := NewBits(k, &PerBranch{Bits_: map[arch.Addr]int{0x1004: -5, 0x1008: 99}})
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewBits(k, &PerBranch{Bits_: map[arch.Addr]int{0x1004: 0, 0x1008: k}})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(7)
	for i := 0; i < 5000; i++ {
		r := condRec(0x1004, rng.Bool(0.7))
		if rng.Bool(0.5) {
			r = condRec(0x1008, i%3 == 0)
		}
		if out.Predict(r.PC) != in.Predict(r.PC) {
			t.Fatalf("step %d: branch %v with out-of-range bits disagrees with its clamped length", i, r.PC)
		}
		out.Update(r)
		in.Update(r)
	}
}
