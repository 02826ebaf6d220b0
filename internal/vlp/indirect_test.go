package vlp

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/trace"
)

func indRec(pc, target arch.Addr) trace.Record {
	return trace.Record{PC: pc, Kind: arch.Indirect, Taken: true, Next: target}
}

func TestNewIndirectValidation(t *testing.T) {
	if _, err := NewIndirect(3, Fixed{L: 4}, Options{}); err == nil {
		t.Error("sub-entry budget accepted")
	}
	if _, err := NewIndirect(512, Fixed{L: 0}, Options{}); err == nil {
		t.Error("fixed length 0 accepted")
	}
	p, err := NewIndirect(2048, Fixed{L: 11}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.SizeBytes() != 2048 {
		t.Errorf("SizeBytes = %d", p.SizeBytes())
	}
}

func TestIndirectLearnsTargetCycle(t *testing.T) {
	// Dispatch cycling through 4 handlers: each target determines the
	// next, so path length >= 1 over the THB (which records the handler
	// addresses) predicts perfectly once trained.
	p, err := NewIndirectBits(10, Fixed{L: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pc := arch.Addr(0x1004)
	targets := []arch.Addr{0x5004, 0x6008, 0x700c, 0x8010}
	miss := 0
	for i := 0; i < 2000; i++ {
		want := targets[i%4]
		if i > 1000 && p.Predict(pc) != want {
			miss++
		}
		p.Update(indRec(pc, want))
	}
	if miss != 0 {
		t.Errorf("period-4 dispatch mispredicted %d times after warm-up", miss)
	}
}

func TestIndirectDeepContext(t *testing.T) {
	// The target depends on the *pair* of preceding handler targets
	// (order-2 Markov): needs path length >= 2; length 1 confuses
	// contexts that share the immediately preceding handler.
	run := func(l int) int {
		p, err := NewIndirectBits(12, Fixed{L: l}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		pc := arch.Addr(0x1004)
		targets := []arch.Addr{0x5004, 0x6008, 0x700c}
		// Order-2 deterministic sequence with a shared middle symbol:
		// 0,1,2 then 0,2,1 alternating — after "0", the next depends on
		// what preceded the 0.
		seq := []int{0, 1, 2, 0, 2, 1}
		miss := 0
		for i := 0; i < 6000; i++ {
			want := targets[seq[i%len(seq)]]
			if i > 3000 && p.Predict(pc) != want {
				miss++
			}
			p.Update(indRec(pc, want))
		}
		return miss
	}
	deep := run(3)
	shallow := run(1)
	if deep != 0 {
		t.Errorf("order-2 dispatch with path length 3 mispredicted %d times", deep)
	}
	if shallow == 0 {
		t.Error("path length 1 predicted an order-2 sequence perfectly — context leak?")
	}
}

func TestIndirectTHBPolicy(t *testing.T) {
	p, err := NewIndirectBits(10, Fixed{L: 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := p.HashSet().Index(4)
	p.Update(trace.Record{PC: 0x100, Kind: arch.Return, Taken: true, Next: 0x5004})
	p.Update(trace.Record{PC: 0x100, Kind: arch.Uncond, Taken: true, Next: 0x5004})
	if p.HashSet().Index(4) != before {
		t.Error("ineligible kinds entered the THB")
	}
	p.Update(condRec(0x200, true, 0x5004))
	if p.HashSet().Index(4) == before {
		t.Error("taken conditional did not enter the THB")
	}
}

func TestIndirectCallAlsoPredictedAndRecorded(t *testing.T) {
	p, err := NewIndirectBits(10, Fixed{L: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pc := arch.Addr(0x1004)
	r := trace.Record{PC: pc, Kind: arch.IndirectCall, Taken: true, Next: 0x5004}
	p.Update(r)
	p.Update(r)
	if p.Predict(pc) != 0x5004 {
		t.Error("indirect call target not learned")
	}
}

func TestIndirectHistoryStack(t *testing.T) {
	p, err := NewIndirectBits(12, Fixed{L: 6}, Options{HistoryStack: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p.Update(condRec(arch.Addr(0x1004+8*i), true, arch.Addr(0x5004+8*i)))
	}
	saved := p.HashSet().Index(6)
	p.Update(trace.Record{PC: 0x2000, Kind: arch.IndirectCall, Taken: true, Next: 0x8000})
	for i := 0; i < 20; i++ {
		p.Update(condRec(arch.Addr(0x8004+8*i), true, arch.Addr(0x9004+8*i)))
	}
	p.Update(trace.Record{PC: 0x9500, Kind: arch.Return, Taken: true, Next: 0x2004})
	if p.HashSet().Index(6) != saved {
		t.Error("return did not restore caller history")
	}
}
