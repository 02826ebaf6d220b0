package vlp

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func condRec(pc arch.Addr, taken bool, target arch.Addr) trace.Record {
	next := pc.FallThrough()
	if taken {
		next = target
	}
	return trace.Record{PC: pc, Kind: arch.Cond, Taken: taken, Next: next}
}

// TestSelectorLengthValidation pins that both constructors reject every
// Fixed or PerBranch length outside 1..MaxPath with ErrPathLength,
// instead of building a predictor that panics in HashSet.Index on the
// first branch the bad length covers.
func TestSelectorLengthValidation(t *testing.T) {
	build := map[string]func(Selector, Options) error{
		"cond": func(sel Selector, o Options) error {
			_, err := NewCondBits(10, sel, o)
			return err
		},
		"indirect": func(sel Selector, o Options) error {
			_, err := NewIndirectBits(9, sel, o)
			return err
		},
	}
	for name, fn := range build {
		for _, tc := range []struct {
			what string
			sel  Selector
			opts Options
			bad  bool
		}{
			{"fixed 33", Fixed{L: 33}, Options{}, true},
			{"fixed past MaxPath", Fixed{L: 9}, Options{MaxPath: 8}, true},
			{"branch 40", &PerBranch{Lengths: map[arch.Addr]int{0x1000: 3, 0x1004: 40}, Default: 4}, Options{}, true},
			{"branch 0", &PerBranch{Lengths: map[arch.Addr]int{0x1004: 0}, Default: 4}, Options{}, true},
			{"branch past MaxPath", &PerBranch{Lengths: map[arch.Addr]int{0x1004: 12}, Default: 4}, Options{MaxPath: 8}, true},
			{"default 33", &PerBranch{Lengths: map[arch.Addr]int{0x1004: 3}, Default: 33}, Options{}, true},
			{"default 0", &PerBranch{Default: 0}, Options{}, true},
			{"in range", &PerBranch{Lengths: map[arch.Addr]int{0x1004: 32}, Default: 1}, Options{}, false},
		} {
			err := fn(tc.sel, tc.opts)
			if tc.bad && !errors.Is(err, ErrPathLength) {
				t.Errorf("%s %s: err = %v, want ErrPathLength", name, tc.what, err)
			}
			if !tc.bad && err != nil {
				t.Errorf("%s %s: %v", name, tc.what, err)
			}
		}
	}
}

func TestNewCondValidation(t *testing.T) {
	if _, err := NewCond(3000, Fixed{L: 4}, Options{}); err == nil {
		t.Error("non-power-of-two budget accepted")
	}
	if _, err := NewCond(1024, Fixed{L: 0}, Options{}); err == nil {
		t.Error("fixed length 0 accepted")
	}
	if _, err := NewCond(1024, Fixed{L: 33}, Options{}); err == nil {
		t.Error("fixed length beyond THB accepted")
	}
	p, err := NewCond(16*1024, Fixed{L: 9}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.SizeBytes() != 16*1024 {
		t.Errorf("SizeBytes = %d", p.SizeBytes())
	}
	if p.HashSet().MaxPath() != DefaultMaxPath {
		t.Errorf("default MaxPath = %d", p.HashSet().MaxPath())
	}
}

func TestFixedLearnsLoopExit(t *testing.T) {
	// A trip-8 loop: the back edge is taken 7 times then falls through.
	// With path length >= 7 the exit context is distinguishable.
	p, err := NewCondBits(14, Fixed{L: 10}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pc, body := arch.Addr(0x1004), arch.Addr(0x2008)
	miss, total := 0, 0
	for iter := 0; iter < 600; iter++ {
		for i := 0; i < 8; i++ {
			taken := i < 7
			if iter > 300 {
				total++
				if p.Predict(pc) != taken {
					miss++
				}
			}
			p.Update(condRec(pc, taken, body))
		}
	}
	if miss != 0 {
		t.Errorf("trip-8 loop mispredicted %d/%d after warm-up", miss, total)
	}
}

func TestShortPathBeatsLongOnShallowCorrelation(t *testing.T) {
	// A branch whose outcome depends only on which of two blocks preceded
	// it, with the preceding block chosen randomly (data-dependent). Path
	// length 1 suffices and is perfect; length 16 drags in 15 irrelevant
	// random targets, spreading the branch over exponentially many
	// contexts (§5.3: "an unnecessarily high number of predictor table
	// entries ... longer training times and more interference").
	run := func(l int) int {
		p, err := NewCondBits(8, Fixed{L: l}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(99)
		pc := arch.Addr(0x5028)
		preA, preB := arch.Addr(0x1004), arch.Addr(0x2008)
		miss := 0
		for i := 0; i < 4000; i++ {
			pre := preA
			if rng.Bool(0.5) {
				pre = preB
			}
			p.Update(condRec(0xa004, true, pre))
			want := pre == preA
			if i > 2000 && p.Predict(pc) != want {
				miss++
			}
			p.Update(condRec(pc, want, 0xb024))
		}
		return miss
	}
	short, long := run(1), run(16)
	if short != 0 {
		t.Errorf("path length 1 mispredicted %d times on depth-1 correlation", short)
	}
	if long < 100 {
		t.Errorf("expected long path to suffer on shallow random correlation: short=%d long=%d", short, long)
	}
}

func TestPerBranchSelector(t *testing.T) {
	sel := &PerBranch{Lengths: map[arch.Addr]int{0x1004: 3, 0x2008: 7}, Default: 5}
	if sel.Length(0x1004) != 3 || sel.Length(0x2008) != 7 {
		t.Error("profiled lengths not returned")
	}
	if sel.Length(0x9999) != 5 {
		t.Error("default length not returned")
	}
	lengths, counts := sel.LengthHistogram()
	if len(lengths) != 2 || lengths[0] != 3 || lengths[1] != 7 || counts[0] != 1 || counts[1] != 1 {
		t.Errorf("histogram = %v %v", lengths, counts)
	}
}

func TestVariableSelectorUsesPerBranchLengths(t *testing.T) {
	// Two branches that need different path lengths: one depth-1
	// correlated, one a trip-6 loop. A per-branch selector handles both.
	sel := &PerBranch{Lengths: map[arch.Addr]int{
		0x5004: 1, // shallow correlation
		0x6008: 8, // loop exit
	}, Default: 1}
	p, err := NewCondBits(12, sel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	preA, preB := arch.Addr(0x1004), arch.Addr(0x2008)
	miss := 0
	for i := 0; i < 3000; i++ {
		pre := preA
		if (i*7)%3 == 1 {
			pre = preB
		}
		p.Update(condRec(0x4004, true, pre))
		want := pre == preA
		if i > 1500 && p.Predict(0x5004) != want {
			miss++
		}
		p.Update(condRec(0x5004, want, 0x7010))
		for j := 0; j < 6; j++ {
			taken := j < 5
			if i > 1500 && p.Predict(0x6008) != taken {
				miss++
			}
			p.Update(condRec(0x6008, taken, 0x8014))
		}
	}
	if miss != 0 {
		t.Errorf("per-branch selector mispredicted %d times after warm-up", miss)
	}
}

func TestTHBPolicyExcludesReturnsAndUnconds(t *testing.T) {
	p, err := NewCondBits(10, Fixed{L: 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := p.HashSet().Index(4)
	p.Update(trace.Record{PC: 0x100, Kind: arch.Return, Taken: true, Next: 0x5004})
	p.Update(trace.Record{PC: 0x100, Kind: arch.Uncond, Taken: true, Next: 0x5004})
	p.Update(trace.Record{PC: 0x100, Kind: arch.Call, Taken: true, Next: 0x5004})
	if p.HashSet().Index(4) != before {
		t.Error("return/uncond/call entered the THB")
	}
	p.Update(trace.Record{PC: 0x100, Kind: arch.Indirect, Taken: true, Next: 0x5004})
	if p.HashSet().Index(4) == before {
		t.Error("indirect target did not enter the THB")
	}
}

func TestStoreReturnsOption(t *testing.T) {
	p, err := NewCondBits(10, Fixed{L: 4}, Options{StoreReturns: true})
	if err != nil {
		t.Fatal(err)
	}
	before := p.HashSet().Index(4)
	p.Update(trace.Record{PC: 0x100, Kind: arch.Return, Taken: true, Next: 0x5004})
	if p.HashSet().Index(4) == before {
		t.Error("StoreReturns did not insert return target")
	}
}

func TestNotTakenFallThroughEntersTHB(t *testing.T) {
	// A not-taken conditional still transfers control (to PC+4), and
	// that address is the path element — direction is thereby encoded in
	// the path (DESIGN.md §6).
	p, err := NewCondBits(10, Fixed{L: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.Update(condRec(0x1004, false, 0x9008))
	if got := p.HashSet().Target(0); got != p.HashSet().f.Compress(arch.Addr(0x1004).FallThrough()) {
		t.Errorf("THB top = %#x, want compressed fall-through", got)
	}
}

func TestHistoryStackSaveRestore(t *testing.T) {
	p, err := NewCondBits(12, Fixed{L: 6}, Options{HistoryStack: true})
	if err != nil {
		t.Fatal(err)
	}
	// Build some history, call, scramble inside the callee, return.
	for i := 0; i < 10; i++ {
		p.Update(condRec(arch.Addr(0x1004+8*i), true, arch.Addr(0x5004+8*i)))
	}
	saved := p.HashSet().Index(6)
	p.Update(trace.Record{PC: 0x2000, Kind: arch.Call, Taken: true, Next: 0x8000})
	for i := 0; i < 20; i++ {
		p.Update(condRec(arch.Addr(0x8004+8*i), true, arch.Addr(0x9004+8*i)))
	}
	if p.HashSet().Index(6) == saved {
		t.Fatal("callee did not perturb history")
	}
	p.Update(trace.Record{PC: 0x9500, Kind: arch.Return, Taken: true, Next: 0x2004})
	if p.HashSet().Index(6) != saved {
		t.Error("return did not restore caller history")
	}
}

func TestHistoryStackOverflowDropsOldest(t *testing.T) {
	p, err := NewCondBits(10, Fixed{L: 2}, Options{HistoryStack: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < historyStackCap+10; i++ {
		p.Update(trace.Record{PC: 0x100, Kind: arch.Call, Taken: true, Next: 0x5004})
	}
	if p.stack.depth != historyStackCap {
		t.Errorf("stack depth = %d, want cap %d", p.stack.depth, historyStackCap)
	}
	// Unwinding more returns than frames must not panic.
	for i := 0; i < historyStackCap+10; i++ {
		p.Update(trace.Record{PC: 0x200, Kind: arch.Return, Taken: true, Next: 0x6004})
	}
}

// TestHistoryStackRingOrder nests more calls than the stack holds, each
// from a distinct history, and unwinds: every return must restore the
// indices saved by its own call, newest first, until the frames the
// overflow dropped; further returns leave the history alone. A call
// and a return allocate nothing.
func TestHistoryStackRingOrder(t *testing.T) {
	p, err := NewCondBits(12, Fixed{L: 4}, Options{HistoryStack: true})
	if err != nil {
		t.Fatal(err)
	}
	call := trace.Record{PC: 0x2000, Kind: arch.Call, Taken: true, Next: 0x8000}
	ret := trace.Record{PC: 0x9000, Kind: arch.Return, Taken: true, Next: 0x2004}
	const calls = historyStackCap + 6
	var saved [calls][]uint32
	for i := range saved {
		p.Update(condRec(arch.Addr(0x1004+8*i), true, arch.Addr(0x5004+8*i)))
		saved[i] = p.HashSet().Snapshot()
		p.Update(call)
	}
	for i := calls - 1; i >= calls-historyStackCap; i-- {
		p.Update(condRec(0x7004, true, 0x7104)) // callee path
		p.Update(ret)
		if got := p.HashSet().Snapshot(); !slices.Equal(got, saved[i]) {
			t.Fatalf("return %d restored %v, want the history of call %d", calls-1-i, got[:4], i)
		}
	}
	before := p.HashSet().Snapshot()
	p.Update(ret)
	if !slices.Equal(p.HashSet().Snapshot(), before) {
		t.Error("a return on an empty stack changed the history")
	}
	if n := testing.AllocsPerRun(100, func() {
		p.Update(call)
		p.Update(ret)
	}); n != 0 {
		t.Errorf("a call and a return allocate %v times, want 0", n)
	}
}

func TestNoRotationOptionChangesIndex(t *testing.T) {
	mk := func(opts Options) *Cond {
		p, err := NewCondBits(12, Fixed{L: 3}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := mk(Options{}), mk(Options{NoRotation: true})
	recs := []trace.Record{
		condRec(0x1004, true, 0x5008),
		condRec(0x2008, true, 0x600c),
		condRec(0x300c, true, 0x7010),
	}
	for _, r := range recs {
		a.Update(r)
		b.Update(r)
	}
	if a.index(0x4004) == b.index(0x4004) {
		t.Error("NoRotation produced the same index as rotated hashing")
	}
}

func TestHistoryStackCombine(t *testing.T) {
	p, err := NewCondBits(12, Fixed{L: 6}, Options{HistoryStack: true, HistoryCombine: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p.Update(condRec(arch.Addr(0x1004+8*i), true, arch.Addr(0x5004+8*i)))
	}
	saved := p.HashSet().Index(6)
	p.Update(trace.Record{PC: 0x2000, Kind: arch.Call, Taken: true, Next: 0x8000})
	var calleeTail [2]uint32
	for i := 0; i < 20; i++ {
		p.Update(condRec(arch.Addr(0x8004+8*i), true, arch.Addr(0x9004+8*i)))
	}
	calleeTail[0] = p.HashSet().Target(1)
	calleeTail[1] = p.HashSet().Target(0)
	p.Update(trace.Record{PC: 0x9500, Kind: arch.Return, Taken: true, Next: 0x2004})
	// The combine variant must NOT equal the pure restore (the callee
	// tail was replayed on top)...
	if p.HashSet().Index(6) == saved {
		t.Error("combine variant behaved like pure restore")
	}
	// ...and must equal the restored history with the two tail targets
	// re-inserted, which we can verify via a reference HashSet.
	ref, _ := NewHashSet(12, DefaultMaxPath)
	for i := 0; i < 10; i++ {
		ref.Insert(arch.Addr(0x5004 + 8*i))
	}
	ref.InsertCompressed(calleeTail[0])
	ref.InsertCompressed(calleeTail[1])
	if p.HashSet().Index(6) != ref.Index(6) {
		t.Errorf("combine result %#x, want reference %#x", p.HashSet().Index(6), ref.Index(6))
	}
}

// mixedTrace builds a deterministic trace of conditional, indirect and
// return records.
func mixedTrace(n int) []trace.Record {
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

// TestStepCondMatchesPredictUpdate pins the fused CondStepper step to
// the two-call surface on identical record streams, for the plain and
// instrumented predictors — including the instrumented Stats, which a
// promoted (unshadowed) StepCond would silently skip.
func TestStepCondMatchesPredictUpdate(t *testing.T) {
	recs := mixedTrace(30000)
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
