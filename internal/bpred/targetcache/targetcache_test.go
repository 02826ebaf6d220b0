package targetcache

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func TestBudgetSizing(t *testing.T) {
	p, err := NewPatternBudget(2048)
	if err != nil {
		t.Fatal(err)
	}
	if p.SizeBytes() != 2048 {
		t.Errorf("pattern SizeBytes = %d", p.SizeBytes())
	}
	pa, err := NewPathBudget(2048)
	if err != nil {
		t.Fatal(err)
	}
	if pa.SizeBytes() != 2048 {
		t.Errorf("path SizeBytes = %d", pa.SizeBytes())
	}
	// 2KB -> 512 entries -> k=9 -> default geometry 3x3.
	if pa.Name() != "path(3x3)-2048B" {
		t.Errorf("path Name = %q", pa.Name())
	}
	b, err := NewBTBBudget(512)
	if err != nil {
		t.Fatal(err)
	}
	if b.SizeBytes() != 512 {
		t.Errorf("btb SizeBytes = %d", b.SizeBytes())
	}
	if _, err := NewPatternBudget(3); err == nil {
		t.Error("sub-entry budget accepted")
	}
	if _, err := NewPath(9, 0, 3); err == nil {
		t.Error("zero path depth accepted")
	}
	if _, err := NewPath(9, 9, 8); err == nil {
		t.Error("oversized path history accepted")
	}
}

func TestBTBLearnsLastTarget(t *testing.T) {
	b := NewBTB(8)
	pc := arch.Addr(0x1000)
	b.Update(trace.Record{PC: pc, Kind: arch.Indirect, Taken: true, Next: 0x4000})
	if got := b.Predict(pc); got != 0x4000 {
		t.Errorf("Predict = %v, want 0x4000", got)
	}
	b.Update(trace.Record{PC: pc, Kind: arch.Indirect, Taken: true, Next: 0x5000})
	if got := b.Predict(pc); got != 0x5000 {
		t.Errorf("Predict after update = %v, want 0x5000", got)
	}
	// Conditional and return records must not touch the table.
	b.Update(trace.Record{PC: pc, Kind: arch.Cond, Taken: true, Next: 0x6000})
	b.Update(trace.Record{PC: pc, Kind: arch.Return, Taken: true, Next: 0x7000})
	if got := b.Predict(pc); got != 0x5000 {
		t.Errorf("non-indirect record changed BTB: %v", got)
	}
}

// TestPatternSeparatesByOutcomeHistory: an indirect branch whose target is
// decided by the direction of the preceding conditional branch. The
// pattern-based cache disambiguates the two contexts; a BTB cannot.
func TestPatternSeparatesByOutcomeHistory(t *testing.T) {
	p := NewPattern(10)
	btb := NewBTB(10)
	condPC, indPC := arch.Addr(0x1000), arch.Addr(0x2000)
	targets := map[bool]arch.Addr{true: 0x8000, false: 0x9000}
	missP, missB := 0, 0
	for i := 0; i < 4000; i++ {
		taken := i%2 == 0
		cr := trace.Record{PC: condPC, Kind: arch.Cond, Taken: taken, Next: 0x3000}
		if !taken {
			cr.Next = condPC.FallThrough()
		}
		p.Update(cr)
		btb.Update(cr)
		want := targets[taken]
		if i > 2000 {
			if p.Predict(indPC) != want {
				missP++
			}
			if btb.Predict(indPC) != want {
				missB++
			}
		}
		ir := trace.Record{PC: indPC, Kind: arch.Indirect, Taken: true, Next: want}
		p.Update(ir)
		btb.Update(ir)
	}
	if missP != 0 {
		t.Errorf("pattern cache mispredicted %d times after warm-up", missP)
	}
	if missB == 0 {
		t.Error("BTB predicted alternating targets perfectly — history leak?")
	}
}

// TestPathSeparatesByTargetHistory: an indirect branch alternating between
// two targets, where the next target depends on the previous one. The path
// cache (whose history records target bits) separates the contexts even
// with no conditional branches at all; the pattern cache sees an empty
// history and cannot.
func TestPathSeparatesByTargetHistory(t *testing.T) {
	path, err := NewPath(10, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	pattern := NewPattern(10)
	indPC := arch.Addr(0x2000)
	targets := []arch.Addr{0x8004, 0x9108, 0xa20c} // distinct low-order path bits
	missPath, missPat := 0, 0
	for i := 0; i < 6000; i++ {
		want := targets[i%3]
		if i > 3000 {
			if path.Predict(indPC) != want {
				missPath++
			}
			if pattern.Predict(indPC) != want {
				missPat++
			}
		}
		r := trace.Record{PC: indPC, Kind: arch.Indirect, Taken: true, Next: want}
		path.Update(r)
		pattern.Update(r)
	}
	if missPath != 0 {
		t.Errorf("path cache mispredicted a period-3 target cycle %d times", missPath)
	}
	if missPat == 0 {
		t.Error("pattern cache predicted a target cycle with no outcome history — leak?")
	}
}

func TestPathRecordsOnlyTHBEvents(t *testing.T) {
	p, err := NewPath(10, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	before := p.hist.Value()
	// Returns, unconditional jumps, and not-taken conditionals must not
	// enter the path history.
	p.Update(trace.Record{PC: 0x100, Kind: arch.Return, Taken: true, Next: 0x4000})
	p.Update(trace.Record{PC: 0x100, Kind: arch.Uncond, Taken: true, Next: 0x4000})
	p.Update(trace.Record{PC: 0x100, Kind: arch.Cond, Taken: false, Next: arch.Addr(0x100).FallThrough()})
	if p.hist.Value() != before {
		t.Error("ineligible records entered the path history")
	}
	p.Update(trace.Record{PC: 0x100, Kind: arch.Cond, Taken: true, Next: 0x4004})
	if p.hist.Value() == before {
		t.Error("taken conditional did not enter the path history")
	}
}

func TestPathPerAddrValidation(t *testing.T) {
	if _, err := NewPathPerAddr(9, 8, 0, 3); err == nil {
		t.Error("zero depth accepted")
	}
	if _, err := NewPathPerAddr(9, 0, 3, 3); err == nil {
		t.Error("zero history table accepted")
	}
	p, err := NewPathPerAddr(9, 8, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 512 targets * 4B + 256 regs * 9 bits = 2048 + 288.
	if p.SizeBytes() != 2048+288 {
		t.Errorf("SizeBytes = %d", p.SizeBytes())
	}
}

// TestPathPerAddrLearnsOwnSequence: a branch cycling its own targets is
// predictable from its private history.
func TestPathPerAddrLearnsOwnSequence(t *testing.T) {
	p, err := NewPathPerAddr(10, 8, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	pc := arch.Addr(0x1004)
	targets := []arch.Addr{0x8004, 0x9108, 0xa20c}
	miss := 0
	for i := 0; i < 4000; i++ {
		want := targets[i%3]
		if i > 2000 && p.Predict(pc) != want {
			miss++
		}
		p.Update(trace.Record{PC: pc, Kind: arch.Indirect, Taken: true, Next: want})
	}
	if miss != 0 {
		t.Errorf("own-sequence cycle mispredicted %d times", miss)
	}
}

// TestPathPerAddrBlindToGlobalContext: the defining weakness — a branch
// whose target depends on ANOTHER branch's target cannot be separated by
// a per-address history that never sees the other branch.
func TestPathPerAddrBlindToGlobalContext(t *testing.T) {
	perAddr, err := NewPathPerAddr(10, 8, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	global, err := NewPath(10, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	leader, follower := arch.Addr(0x1004), arch.Addr(0x2008)
	lt := []arch.Addr{0x8004, 0x9108}
	ft := map[arch.Addr]arch.Addr{0x8004: 0xa20c, 0x9108: 0xb310}
	rng := xrand.New(17)
	missPA, missG := 0, 0
	for i := 0; i < 6000; i++ {
		l := lt[rng.Intn(2)] // random leader: only the global path sees it
		rl := trace.Record{PC: leader, Kind: arch.Indirect, Taken: true, Next: l}
		perAddr.Update(rl)
		global.Update(rl)
		want := ft[l]
		if i > 3000 {
			if perAddr.Predict(follower) != want {
				missPA++
			}
			if global.Predict(follower) != want {
				missG++
			}
		}
		rf := trace.Record{PC: follower, Kind: arch.Indirect, Taken: true, Next: want}
		perAddr.Update(rf)
		global.Update(rf)
	}
	if missG != 0 {
		t.Errorf("global path cache mispredicted cross-branch correlation %d times", missG)
	}
	if missPA <= missG {
		t.Errorf("per-address path should be worse on cross-branch correlation: PA=%d G=%d", missPA, missG)
	}
}
