package vlp

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// shareTrace builds a deterministic mixed-kind trace for the sharing
// tests.
func shareTrace(n int) []trace.Record {
	rng := xrand.New(7)
	recs := make([]trace.Record, 0, n)
	pcs := []arch.Addr{0x1004, 0x2008, 0x300c, 0x4010}
	for i := 0; i < n; i++ {
		pc := pcs[rng.Uint64()%uint64(len(pcs))]
		switch rng.Uint64() % 4 {
		case 0, 1:
			taken := rng.Bool(0.6)
			next := pc.FallThrough()
			if taken {
				next = arch.Addr(0x9000 + (rng.Uint64()&0x7)*16)
			}
			recs = append(recs, trace.Record{PC: pc, Kind: arch.Cond, Taken: taken, Next: next})
		case 2:
			recs = append(recs, trace.Record{PC: pc, Kind: arch.Indirect, Taken: true,
				Next: arch.Addr(0xa000 + (rng.Uint64()&0x7)*16)})
		default:
			recs = append(recs, trace.Record{PC: pc, Kind: arch.Return, Taken: true, Next: 0xc000})
		}
	}
	return recs
}

func mustCond(t *testing.T, budget int, sel Selector, opts Options) *Cond {
	t.Helper()
	p, err := NewCond(budget, sel, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestShareCondHistoriesGrouping pins the grouping rules: same (k,
// depth, returns policy) shares; different table sizes, StoreReturns
// settings, history-stack predictors, and non-path predictors do not.
func TestShareCondHistoriesGrouping(t *testing.T) {
	a := mustCond(t, 1024, Fixed{L: 3}, Options{})
	b := mustCond(t, 1024, Fixed{L: 7}, Options{})
	big := mustCond(t, 4096, Fixed{L: 3}, Options{})
	ret := mustCond(t, 1024, Fixed{L: 3}, Options{StoreReturns: true})
	stack := mustCond(t, 1024, Fixed{L: 3}, Options{HistoryStack: true})
	preds := []bpred.CondPredictor{a, b, big, ret, stack, notAPathPredictor{}}
	groups := ShareCondHistories(preds)
	if len(groups) != 1 {
		t.Fatalf("got %d shared groups, want 1", len(groups))
	}
	g := groups[0]
	if len(g.Members) != 2 || g.Members[0] != 0 || g.Members[1] != 1 {
		t.Fatalf("group members = %v, want [0 1]", g.Members)
	}
	if a.hs != b.hs {
		t.Error("group members do not share one HashSet")
	}
	if !a.extHist || !b.extHist {
		t.Error("attached members still maintain their own history")
	}
	if big.extHist || ret.extHist || stack.extHist {
		t.Error("singleton / excluded predictors were attached")
	}
}

type notAPathPredictor struct{}

func (notAPathPredictor) Name() string           { return "stub" }
func (notAPathPredictor) SizeBytes() int         { return 0 }
func (notAPathPredictor) Update(trace.Record)    {}
func (notAPathPredictor) Predict(arch.Addr) bool { return false }

// TestSharedHistoryBitIdentical replays a shared group with the
// member-train-then-observer-insert protocol and checks every member
// predicts exactly as its solo twin with a private HashSet, including a
// StoreReturns group.
func TestSharedHistoryBitIdentical(t *testing.T) {
	recs := shareTrace(30000)
	for _, opts := range []Options{{}, {StoreReturns: true}} {
		shared := []*Cond{
			mustCond(t, 1024, Fixed{L: 3}, opts),
			mustCond(t, 1024, Fixed{L: 8}, opts),
			mustCond(t, 1024, Fixed{L: 12}, opts),
		}
		preds := make([]bpred.CondPredictor, len(shared))
		for i, p := range shared {
			preds[i] = p
		}
		groups := ShareCondHistories(preds)
		if len(groups) != 1 {
			t.Fatalf("got %d groups, want 1", len(groups))
		}
		solo := []*Cond{
			mustCond(t, 1024, Fixed{L: 3}, opts),
			mustCond(t, 1024, Fixed{L: 8}, opts),
			mustCond(t, 1024, Fixed{L: 12}, opts),
		}
		var misses, soloMisses [3]int64
		for ri := range recs {
			r := recs[ri]
			for i, p := range shared {
				if scored, correct := p.StepCond(r); scored && !correct {
					misses[i]++
				}
			}
			groups[0].Observer.Update(r)
			for i, p := range solo {
				if r.Kind == arch.Cond && p.Predict(r.PC) != r.Taken {
					soloMisses[i]++
				}
				p.Update(r)
			}
		}
		for i := range shared {
			if misses[i] != soloMisses[i] {
				t.Errorf("opts %+v member %d: %d misses shared, %d solo", opts, i, misses[i], soloMisses[i])
			}
		}
	}
}

// TestStepCondMatchesPredictUpdate pins the fused CondStepper step to
// the two-call surface on identical record streams, for the plain and
// instrumented predictors — including the instrumented Stats, which a
// promoted (unshadowed) StepCond would silently skip.
func TestStepCondMatchesPredictUpdate(t *testing.T) {
	recs := shareTrace(30000)
	stepped, err := NewInstrumentedCond(2048, Fixed{L: 6}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	classic, err := NewInstrumentedCond(2048, Fixed{L: 6}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var fusedMiss, classicMiss int64
	for _, r := range recs {
		if scored, correct := stepped.StepCond(r); scored && !correct {
			fusedMiss++
		}
		if r.Kind == arch.Cond && classic.Predict(r.PC) != r.Taken {
			classicMiss++
		}
		classic.Update(r)
	}
	if fusedMiss != classicMiss {
		t.Errorf("fused %d misses, classic %d", fusedMiss, classicMiss)
	}
	if stepped.Stats != classic.Stats {
		t.Errorf("instrumented Stats diverge:\n fused   %+v\n classic %+v", stepped.Stats, classic.Stats)
	}
	if stepped.Stats.Misses == 0 {
		t.Error("trace produced no misses; test is vacuous")
	}
}
