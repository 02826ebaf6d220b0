package factory

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func TestNewCondAllNames(t *testing.T) {
	prof := &profile.Profile{Kind: "cond", TableBits: 14,
		Lengths: map[arch.Addr]int{0x1004: 3}, Default: 2}
	for _, name := range CondNames() {
		p, err := Spec{Name: name, BudgetBytes: 4096, Profile: prof}.Cond()
		if err != nil {
			t.Errorf("Spec{%s}.Cond(): %v", name, err)
			continue
		}
		if p.Name() == "" {
			t.Errorf("%s: empty predictor name", name)
		}
		if p.SizeBytes() <= 0 {
			t.Errorf("%s: non-positive size", name)
		}
	}
}

func TestNewIndirectAllNames(t *testing.T) {
	prof := &profile.Profile{Kind: "indirect", TableBits: 9,
		Lengths: map[arch.Addr]int{0x1004: 5}, Default: 8}
	for _, name := range IndirectNames() {
		p, err := Spec{Name: name, BudgetBytes: 2048, Profile: prof}.Indirect()
		if err != nil {
			t.Errorf("Spec{%s}.Indirect(): %v", name, err)
			continue
		}
		// Tagless schemes use the budget exactly; the tagged cascaded
		// predictor rounds down to whole entries.
		if p.SizeBytes() <= 0 || p.SizeBytes() > 2048 {
			t.Errorf("%s: SizeBytes = %d exceeds budget", name, p.SizeBytes())
		}
	}
}

func TestVLPRequiresProfile(t *testing.T) {
	if _, err := (Spec{Name: "vlp", BudgetBytes: 4096}).Cond(); err == nil {
		t.Error("cond vlp without profile accepted")
	}
	if _, err := (Spec{Name: "vlp", BudgetBytes: 2048}).Indirect(); err == nil {
		t.Error("indirect vlp without profile accepted")
	}
	wrong := &profile.Profile{Kind: "indirect", TableBits: 9, Default: 1}
	if _, err := (Spec{Name: "vlp", BudgetBytes: 4096, Profile: wrong}).Cond(); err == nil {
		t.Error("cond vlp with indirect profile accepted")
	}
}

func TestUnknownNames(t *testing.T) {
	if _, err := (Spec{Name: "tage", BudgetBytes: 4096}).Cond(); err == nil {
		t.Error("unknown cond name accepted")
	}
	if _, err := (Spec{Name: "ittage", BudgetBytes: 2048}).Indirect(); err == nil {
		t.Error("unknown indirect name accepted")
	}
}

func TestBadBudgetPropagates(t *testing.T) {
	for _, name := range []string{"bimodal", "gshare", "gas", "flp"} {
		if _, err := (Spec{Name: name, BudgetBytes: 3000}).Cond(); err == nil {
			t.Errorf("%s accepted non-power-of-two budget", name)
		}
	}
}

// TestPredictorsRobustToArbitraryStreams feeds every factory-buildable
// predictor an adversarial random record stream — every branch kind,
// scattered PCs, not-taken fall-throughs — interleaving predictions. No
// predictor may panic, and budgets must stay stable.
func TestPredictorsRobustToArbitraryStreams(t *testing.T) {
	prof := &profile.Profile{Kind: "cond", TableBits: 12,
		Lengths: map[arch.Addr]int{0x1004: 32}, Default: 1}
	iprof := &profile.Profile{Kind: "indirect", TableBits: 9,
		Lengths: map[arch.Addr]int{0x1004: 17}, Default: 3}
	stream := func(seed uint64, n int) []trace.Record {
		rng := xrand.New(seed)
		recs := make([]trace.Record, n)
		for i := range recs {
			pc := arch.Addr(uint64(rng.Intn(1<<22)) * 4)
			kind := arch.BranchKind(rng.Intn(arch.NumKinds))
			taken := true
			next := arch.Addr(uint64(rng.Intn(1<<22)) * 4)
			if kind == arch.Cond && rng.Bool(0.5) {
				taken = false
				next = pc.FallThrough()
			}
			recs[i] = trace.Record{PC: pc, Kind: kind, Taken: taken, Next: next}
		}
		return recs
	}
	recs := stream(1, 4000)
	for _, name := range CondNames() {
		p, err := Spec{Name: name, BudgetBytes: 1024, Profile: prof}.Cond()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		size := p.SizeBytes()
		for i, r := range recs {
			if i%3 == 0 {
				_ = p.Predict(r.PC)
			}
			p.Update(r)
		}
		if p.SizeBytes() != size {
			t.Errorf("%s: SizeBytes drifted", name)
		}
	}
	for _, name := range IndirectNames() {
		p, err := Spec{Name: name, BudgetBytes: 1024, Profile: iprof}.Indirect()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, r := range recs {
			if i%3 == 0 {
				_ = p.Predict(r.PC)
			}
			p.Update(r)
		}
	}
}
