package profile

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/bpred/counter"
	"repro/internal/bpred/varhist"
	"repro/internal/engine/pool"
	"repro/internal/reuse"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vlp"
	"repro/internal/xrand"
)

// profileFixture builds a deterministic trace mixing conditionals with
// correlated outcomes, an indirect dispatch site with order-2 target
// patterns, and calls/returns that extend the path without being scored.
func profileFixture(seed uint64, n int) *trace.Buffer {
	rng := xrand.New(seed)
	buf := &trace.Buffer{}
	condPCs := []arch.Addr{0x1004, 0x2008, 0x300c}
	targets := []arch.Addr{0x5004, 0x6008, 0x700c}
	seq := []int{0, 1, 2, 0, 2, 1}
	for i := 0; i < n; i++ {
		pc := condPCs[rng.Uint64()%uint64(len(condPCs))]
		taken := rng.Bool(0.6)
		next := pc.FallThrough()
		if taken {
			next = arch.Addr(0x8000 + (rng.Uint64()&0x3)*16)
		}
		buf.Append(trace.Record{PC: pc, Kind: arch.Cond, Taken: taken, Next: next})
		switch rng.Uint64() % 4 {
		case 0:
			buf.Append(trace.Record{PC: 0x4010, Kind: arch.Indirect, Taken: true,
				Next: targets[seq[i%len(seq)]]})
		case 1:
			buf.Append(trace.Record{PC: 0x9004, Kind: arch.Call, Taken: true, Next: 0xa000})
		case 2:
			buf.Append(trace.Record{PC: 0xa010, Kind: arch.Return, Taken: true, Next: 0x9008})
		}
	}
	return buf
}

// refStep1Cond is the pre-flat-array step 1 for conditionals, kept as the
// reference semantics: replay through the Source interface, one private
// FLP table per candidate, correct counts accumulated in a per-PC map.
func refStep1Cond(src trace.Source, k uint, n int, lengths []int) (map[arch.Addr][]int64, []int64, int64) {
	hs, err := vlp.NewHashSet(k, n)
	if err != nil {
		panic(err)
	}
	tables := make([]*counter.Array, len(lengths))
	for i := range tables {
		tables[i] = counter.NewArray(1<<k, 2, 1)
	}
	perPC := map[arch.Addr][]int64{}
	correct := make([]int64, len(lengths))
	var total int64
	src.Reset()
	var r trace.Record
	for src.Next(&r) {
		if r.Kind == arch.Cond {
			total++
			row := perPC[r.PC]
			if row == nil {
				row = make([]int64, len(lengths))
				perPC[r.PC] = row
			}
			for i, l := range lengths {
				idx := int(hs.Index(l))
				if tables[i].Taken(idx) == r.Taken {
					row[i]++
					correct[i]++
				}
				tables[i].Train(idx, r.Taken)
			}
		}
		if r.Kind.RecordsInTHB() {
			hs.Insert(r.Next)
		}
	}
	return perPC, correct, total
}

// refStep1Indirect is the indirect-class reference: target registers
// instead of counters, last-target-match scoring.
func refStep1Indirect(src trace.Source, k uint, n int, lengths []int) (map[arch.Addr][]int64, []int64, int64) {
	hs, err := vlp.NewHashSet(k, n)
	if err != nil {
		panic(err)
	}
	tables := make([][]uint32, len(lengths))
	for i := range tables {
		tables[i] = make([]uint32, 1<<k)
	}
	perPC := map[arch.Addr][]int64{}
	correct := make([]int64, len(lengths))
	var total int64
	src.Reset()
	var r trace.Record
	for src.Next(&r) {
		if r.Kind.IndirectTarget() {
			total++
			row := perPC[r.PC]
			if row == nil {
				row = make([]int64, len(lengths))
				perPC[r.PC] = row
			}
			target := uint32(r.Next)
			for i, l := range lengths {
				idx := hs.Index(l)
				if tables[i][idx] == target {
					row[i]++
					correct[i]++
				}
				tables[i][idx] = target
			}
		}
		if r.Kind.RecordsInTHB() {
			hs.Insert(r.Next)
		}
	}
	return perPC, correct, total
}

// refRanking is the reference ranking of one branch's per-length correct
// counts: candidate indices by count, most first, stable on ties.
func refRanking(correct []int64) []uint8 {
	idx := make([]uint8, len(correct))
	for i := range idx {
		idx[i] = uint8(i)
	}
	sort.SliceStable(idx, func(a, b int) bool { return correct[idx[a]] > correct[idx[b]] })
	return idx
}

// step1Configs are the step-1 differential inputs: narrow, middling
// and wide tables, the cheaper hash-function subset of §3.1, a
// shallower THB, and a one-deep THB, where every index is the newest
// target and the prefix array's padding is a single zero. k = 1 is the
// rotating frame's other edge: its phase never turns.
var step1Configs = []Config{
	{TableBits: 1},
	{TableBits: 9},
	{TableBits: 17},
	{TableBits: 9, Lengths: []int{1, 2, 4, 8, 16, 32}},
	{TableBits: 9, MaxPath: 8},
	{TableBits: 9, MaxPath: 1},
}

// poolCaps are the worker-pool ceilings the differentials run under:
// sequential, and sharded with uneven chunks.
var poolCaps = []int{1, 3}

func withPoolCap(t *testing.T, n int) {
	t.Helper()
	pool.SetCap(n)
	t.Cleanup(func() { pool.SetCap(0) })
}

// TestInputIndicesMatchHashSet pins the index every profiling pass
// computes from the input's prefix array, I_L at every scored record, to
// a vlp.HashSet replaying the same records, for both branch classes and
// every length. It covers k = 32, where a shift by k must clear the
// value and which no table-backed test can reach (a 2^32-entry table
// does not fit in test memory), and one-deep THBs.
func TestInputIndicesMatchHashSet(t *testing.T) {
	recs := profileFixture(5, 3000).Records
	for _, k := range []uint{1, 9, 17, 32} {
		for _, n := range []int{1, 8, 32} {
			for _, indirect := range []bool{false, true} {
				x, err := NewInput(recs).index(pathClass(indirect), k, n)
				if err != nil {
					t.Fatal(err)
				}
				hs, err := vlp.NewHashSet(k, n)
				if err != nil {
					t.Fatal(err)
				}
				s := 0
				for j, r := range recs {
					if scores(r.Kind, indirect) {
						for l := 1; l <= n; l++ {
							if got, want := index(x.frame, x.pre, x.branches[s], l), hs.Index(l); got != want {
								t.Fatalf("k=%d n=%d indirect=%v: record %d: I_%d = %#x, HashSet %#x",
									k, n, indirect, j, l, got, want)
							}
						}
						s++
					}
					if r.Kind.RecordsInTHB() {
						hs.Insert(r.Next)
					}
				}
			}
		}
	}
}

// TestStep1FlatMatchesMapReference pins the prefix-driven step 1
// (including its worker-pool sharding, per-worker table reuse and
// column merge) to the map-based reference — aggregate counts, and each
// branch's candidate ranking by its counts — for both branch classes
// across table widths, candidate sets and pool sizes.
func TestStep1FlatMatchesMapReference(t *testing.T) {
	buf := profileFixture(11, 6000)
	for _, class := range []struct {
		name     string
		indirect bool
		ref      func(trace.Source, uint, int, []int) (map[arch.Addr][]int64, []int64, int64)
	}{
		{"cond", false, refStep1Cond},
		{"indirect", true, refStep1Indirect},
	} {
		for _, cfg := range step1Configs {
			lengths := cfg.lengths(condPath)
			wantPerPC, wantCorrect, wantTotal := class.ref(buf, cfg.TableBits, cfg.maxPath(), lengths)
			for _, workers := range poolCaps {
				name := fmt.Sprintf("%s/k=%d/lengths=%v/workers=%d", class.name, cfg.TableBits, lengths, workers)
				withPoolCap(t, workers)
				s1, err := RunStep1(buf, cfg, class.indirect)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if s1.Total != wantTotal {
					t.Errorf("%s: scored %d branches, reference scored %d", name, s1.Total, wantTotal)
				}
				if !reflect.DeepEqual(s1.Lengths, lengths) || s1.TableBits != cfg.TableBits || s1.class != pathClass(class.indirect) {
					t.Errorf("%s: step 1 labelled lengths %v k=%d class %s", name, s1.Lengths, s1.TableBits, s1.class)
				}
				if !reflect.DeepEqual(s1.Correct, wantCorrect) {
					t.Errorf("%s: aggregate correct counts diverge:\n flat %v\n ref  %v", name, s1.Correct, wantCorrect)
				}
				if len(s1.PCs) != len(wantPerPC) {
					t.Fatalf("%s: interned %d PCs, reference saw %d", name, len(s1.PCs), len(wantPerPC))
				}
				w := len(lengths)
				for id, pc := range s1.PCs {
					if want := refRanking(wantPerPC[pc]); !reflect.DeepEqual(s1.Ranks[id*w:(id+1)*w], want) {
						t.Errorf("%s: PC %v candidate ranking diverges:\n flat %v\n ref  %v (counts %v)",
							name, pc, s1.Ranks[id*w:(id+1)*w], want, wantPerPC[pc])
					}
				}
			}
		}
	}
}

// refTwoStepCond is the pre-flat-array two-step heuristic for
// conditionals, rebuilt from the public pieces: reference step 1 above,
// then step-2 iterations that run a real vlp.Cond with a PerBranch
// selector through sim.RunCond and read per-PC mispredictions off the
// Result. The production twoStep must produce the identical Profile.
func refTwoStepCond(src trace.Source, cfg Config) (*Profile, error) {
	lengths := cfg.lengths(condPath)
	k, n := cfg.TableBits, cfg.maxPath()
	perPC, correct, _ := refStep1Cond(src, k, n, lengths)

	// Candidate sets in the reference are keyed by PC; ordering across
	// PCs is irrelevant because each branch's record array is private.
	cands := map[arch.Addr][]int{}
	for pc, row := range perPC {
		cands[pc] = topCandidates(lengths, row, cfg.candidates())
	}
	def := Step1Result{Lengths: lengths, Correct: correct}.BestLength()

	record := map[arch.Addr][]int64{}
	for pc, cs := range cands {
		record[pc] = make([]int64, len(cs))
	}
	chosen := map[arch.Addr]int{}
	for iter := 0; iter < cfg.iterations(); iter++ {
		assign := map[arch.Addr]int{}
		for pc, cs := range cands {
			ci := argmin(record[pc])
			chosen[pc] = ci
			assign[pc] = cs[ci]
		}
		p, err := vlp.NewCondBits(k, &vlp.PerBranch{Lengths: assign, Default: def}, vlp.Options{MaxPath: n})
		if err != nil {
			return nil, err
		}
		res := sim.RunCond(context.Background(), p, src, sim.Options{PerPC: true})
		if res.Err != nil {
			return nil, res.Err
		}
		for pc, ci := range chosen {
			var misses int64
			if st := res.PerPC[pc]; st != nil {
				misses = st.Mispredicts
			}
			record[pc][ci] = misses
		}
	}
	final := make(map[arch.Addr]int, len(cands))
	for pc, cs := range cands {
		final[pc] = cs[argmin(record[pc])]
	}
	return &Profile{Kind: "cond", TableBits: k, Lengths: final, Default: def}, nil
}

// refTwoStepIndirect is the indirect counterpart, driving vlp.Indirect
// through sim.RunIndirect.
func refTwoStepIndirect(src trace.Source, cfg Config) (*Profile, error) {
	lengths := cfg.lengths(condPath)
	k, n := cfg.TableBits, cfg.maxPath()
	perPC, correct, _ := refStep1Indirect(src, k, n, lengths)

	cands := map[arch.Addr][]int{}
	for pc, row := range perPC {
		cands[pc] = topCandidates(lengths, row, cfg.candidates())
	}
	def := Step1Result{Lengths: lengths, Correct: correct}.BestLength()

	record := map[arch.Addr][]int64{}
	for pc, cs := range cands {
		record[pc] = make([]int64, len(cs))
	}
	chosen := map[arch.Addr]int{}
	for iter := 0; iter < cfg.iterations(); iter++ {
		assign := map[arch.Addr]int{}
		for pc, cs := range cands {
			ci := argmin(record[pc])
			chosen[pc] = ci
			assign[pc] = cs[ci]
		}
		p, err := vlp.NewIndirectBits(k, &vlp.PerBranch{Lengths: assign, Default: def}, vlp.Options{MaxPath: n})
		if err != nil {
			return nil, err
		}
		res := sim.RunIndirect(context.Background(), p, src, sim.Options{PerPC: true})
		if res.Err != nil {
			return nil, res.Err
		}
		for pc, ci := range chosen {
			var misses int64
			if st := res.PerPC[pc]; st != nil {
				misses = st.Mispredicts
			}
			record[pc][ci] = misses
		}
	}
	final := make(map[arch.Addr]int, len(cands))
	for pc, cs := range cands {
		final[pc] = cs[argmin(record[pc])]
	}
	return &Profile{Kind: "indirect", TableBits: k, Lengths: final, Default: def}, nil
}

// TestTwoStepMatchesReference is the end-to-end differential: the
// production Cond/Indirect heuristics — one prefix array, flat count
// matrices, devirtualised step-2 passes — must emit exactly the Profile
// the reference implementation built from public predictors does,
// across table widths, candidate sets, candidate/iteration settings and
// pool sizes. Two-step built from a separately computed step 1
// (RunStep1 then RunStep2) must equal Cond/Indirect exactly, and a step
// 1 of the wrong class, k, lengths or input must be rejected.
func TestTwoStepMatchesReference(t *testing.T) {
	buf := profileFixture(23, 4000)
	configs := append(append([]Config(nil), step1Configs...),
		Config{TableBits: 9, Candidates: 1, Iterations: 1},
		Config{TableBits: 9, Candidates: 5, Iterations: 7},
	)
	for _, class := range []struct {
		name     string
		indirect bool
		run      func(trace.Source, Config) (*Profile, Step1Result, error)
		ref      func(trace.Source, Config) (*Profile, error)
	}{
		{"cond", false, Cond, refTwoStepCond},
		{"indirect", true, Indirect, refTwoStepIndirect},
	} {
		for _, cfg := range configs {
			want, err := class.ref(buf, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range poolCaps {
				name := fmt.Sprintf("%s/%+v/workers=%d", class.name, cfg, workers)
				withPoolCap(t, workers)
				got, agg, err := class.run(buf, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: profiles diverge:\n flat %+v\n ref  %+v", name, got, want)
				}
				if agg.Total == 0 {
					t.Errorf("%s: step-1 aggregate empty", name)
				}

				s1, err := RunStep1(buf, cfg, class.indirect)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(s1.Step1Result, agg) {
					t.Errorf("%s: RunStep1 aggregate %+v, two-step reported %+v", name, s1.Step1Result, agg)
				}
				memo, err := RunStep2(buf, cfg, class.indirect, s1)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(memo, got) {
					t.Errorf("%s: two-step from a memoized step 1 diverges:\n memo %+v\n full %+v", name, memo, got)
				}
			}
		}
	}

	s1, err := RunStep1(buf, Config{TableBits: 9}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		name     string
		src      trace.Source
		cfg      Config
		indirect bool
	}{
		{"class", buf, Config{TableBits: 9}, true},
		{"k", buf, Config{TableBits: 10}, false},
		{"lengths", buf, Config{TableBits: 9, Lengths: []int{1, 2, 4, 8, 16, 32}}, false},
		{"maxpath", buf, Config{TableBits: 9, MaxPath: 8}, false},
		{"input", profileFixture(24, 4000), Config{TableBits: 9}, false},
	} {
		if _, err := RunStep2(bad.src, bad.cfg, bad.indirect, s1); err == nil {
			t.Errorf("RunStep2 accepted a step 1 with the wrong %s", bad.name)
		}
	}
}

// patternFixture builds conditionals whose best history length differs
// by branch — periodic ones, one repeating the outcome two conditionals
// back, and biased-random ones — interleaved with calls and indirect
// jumps, which are not scored and must not shift the outcome history.
func patternFixture(seed uint64, n int) *trace.Buffer {
	rng := xrand.New(seed)
	buf := &trace.Buffer{}
	var prev, prev2 bool
	for i := 0; i < n; i++ {
		slot := rng.Intn(10)
		pc := arch.Addr(0x1000 + 4*slot)
		var taken bool
		switch {
		case slot < 4:
			taken = i%(slot+2) == 0
		case slot < 6:
			taken = prev2
		default:
			taken = rng.Bool(0.15 * float64(slot-4))
		}
		next := pc.FallThrough()
		if taken {
			next = arch.Addr(0x8000 + 16*slot)
		}
		buf.Append(trace.Record{PC: pc, Kind: arch.Cond, Taken: taken, Next: next})
		prev, prev2 = taken, prev
		switch rng.Uint64() % 5 {
		case 0:
			buf.Append(trace.Record{PC: 0x4010, Kind: arch.Indirect, Taken: true, Next: 0x5004})
		case 1:
			buf.Append(trace.Record{PC: 0x9004, Kind: arch.Call, Taken: true, Next: 0xa000})
		}
	}
	return buf
}

// refPatternCond is the map-based elastic-history heuristic, kept as the
// reference semantics for the pattern class: step 1 keeps one private
// gshare-style table per candidate bit count and per-PC correct counts
// in a map; each step-2 iteration replays a real varhist.Predictor built
// from a PerBranch selector and reads per-PC mispredictions off a map.
// PatternCond must produce the identical profile and step-1 aggregate.
func refPatternCond(src trace.Source, cfg Config) (*PatternProfile, Step1Result) {
	k := cfg.TableBits
	lengths := cfg.Lengths
	if lengths == nil {
		for bits := 0; bits <= int(k); bits++ {
			lengths = append(lengths, bits)
		}
	}

	// Step 1: one table per candidate history length.
	tables := make([]*counter.Array, len(lengths))
	for i := range tables {
		tables[i] = counter.NewArray(1<<k, 2, 1)
	}
	hist := counter.NewShiftReg(k)
	mask := uint64(1<<k - 1)
	perPC := map[arch.Addr][]int64{}
	agg := Step1Result{Lengths: append([]int(nil), lengths...), Correct: make([]int64, len(lengths))}
	src.Reset()
	var r trace.Record
	for src.Next(&r) {
		if r.Kind != arch.Cond {
			continue
		}
		counts := perPC[r.PC]
		if counts == nil {
			counts = make([]int64, len(lengths))
			perPC[r.PC] = counts
		}
		agg.Total++
		for i, bits := range lengths {
			h := hist.Value() & (1<<uint(bits) - 1)
			idx := int((bpred.PCBits(r.PC) ^ h) & mask)
			if tables[i].Taken(idx) == r.Taken {
				counts[i]++
				agg.Correct[i]++
			}
			tables[i].Train(idx, r.Taken)
		}
		hist.Push(r.Taken)
	}
	cands := map[arch.Addr][]int{}
	for pc, counts := range perPC {
		cands[pc] = topCandidates(lengths, counts, cfg.candidates())
	}
	def := agg.BestLength()

	// Step 2: iterate the shared-table varhist simulation.
	record := map[arch.Addr][]int64{}
	for pc, cs := range cands {
		record[pc] = make([]int64, len(cs))
	}
	for iter := 0; iter < cfg.iterations(); iter++ {
		assign := map[arch.Addr]int{}
		chosen := map[arch.Addr]int{}
		for pc, cs := range cands {
			ci := argmin(record[pc])
			chosen[pc] = ci
			assign[pc] = cs[ci]
		}
		p, err := varhist.NewBits(k, &varhist.PerBranch{Bits_: assign, Default: def})
		if err != nil {
			panic(err)
		}
		misses := map[arch.Addr]int64{}
		src.Reset()
		for src.Next(&r) {
			if r.Kind == arch.Cond && p.Predict(r.PC) != r.Taken {
				misses[r.PC]++
			}
			p.Update(r)
		}
		for pc, ci := range chosen {
			record[pc][ci] = misses[pc]
		}
	}
	final := make(map[arch.Addr]int, len(cands))
	for pc, cs := range cands {
		final[pc] = cs[argmin(record[pc])]
	}
	return &PatternProfile{TableBits: k, Bits: final, Default: def}, agg
}

// TestPatternCondMatchesReference is the pattern class's differential:
// PatternCond — the shared input, drivers and ranking with the pattern
// kernels — must emit exactly the profile and step-1 aggregate of the
// map-based reference, across table widths, candidate sets,
// candidate/iteration settings and pool sizes.
func TestPatternCondMatchesReference(t *testing.T) {
	buf := patternFixture(31, 5000)
	var configs []Config
	for _, k := range []uint{1, 9, 17} {
		sets := [][]int{nil}
		if k >= 8 {
			sets = append(sets, []int{0, 2, 4, 8})
		}
		for _, lengths := range sets {
			for _, ci := range [][2]int{{1, 1}, {3, 7}, {5, 7}} {
				configs = append(configs, Config{TableBits: k, Lengths: lengths, Candidates: ci[0], Iterations: ci[1]})
			}
		}
	}
	for _, cfg := range configs {
		want, wantAgg := refPatternCond(buf, cfg)
		for _, workers := range poolCaps {
			name := fmt.Sprintf("%+v/workers=%d", cfg, workers)
			withPoolCap(t, workers)
			got, agg, err := PatternCond(buf, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: profiles diverge:\n flat %+v\n ref  %+v", name, got, want)
			}
			if !reflect.DeepEqual(agg, wantAgg) {
				t.Errorf("%s: step-1 aggregates diverge:\n flat %+v\n ref  %+v", name, agg, wantAgg)
			}
		}
	}
}

// TestInternPCs pins the dense-id contract the kernels rely on:
// first-sight order, one id per scored record, per-class filtering, the
// THB insert count, and one table per class however often it is asked
// for.
func TestInternPCs(t *testing.T) {
	recs := []trace.Record{
		{PC: 0x2008, Kind: arch.Cond, Taken: true, Next: 0x3000},
		{PC: 0x9004, Kind: arch.Call, Taken: true, Next: 0xa000},
		{PC: 0x1004, Kind: arch.Cond, Taken: false, Next: 0x1008},
		{PC: 0x2008, Kind: arch.Cond, Taken: true, Next: 0x3000},
		{PC: 0x4010, Kind: arch.Indirect, Taken: true, Next: 0x5000},
	}
	in := NewInput(recs)
	ct := in.table(false)
	if !reflect.DeepEqual(ct.pcs, []arch.Addr{0x2008, 0x1004}) {
		t.Errorf("pcs = %v, want first-sight order [0x2008 0x1004]", ct.pcs)
	}
	if !reflect.DeepEqual(ct.ids, []int32{0, 1, 0}) {
		t.Errorf("ids = %v, want [0 1 0] for the 3 conditionals", ct.ids)
	}
	it := in.table(true)
	if len(it.ids) != 1 || len(it.pcs) != 1 || it.pcs[0] != 0x4010 {
		t.Errorf("indirect interning = %v (%d scored)", it.pcs, len(it.ids))
	}
	if ct.inserts != it.inserts || ct.inserts != 4 {
		t.Errorf("inserts = %d, %d, want 4 (the call is not a THB insert)", ct.inserts, it.inserts)
	}
	if in.table(false) != ct || in.table(true) != it {
		t.Error("a second request rebuilt a branch table")
	}
}

// TestInputSharedAcrossCalls checks that every profiling call on one
// Input reuses its branch tables, and that its results equal the
// source-taking entry points', which build an Input per call.
func TestInputSharedAcrossCalls(t *testing.T) {
	buf := profileFixture(3, 4000)
	in := NewInput(buf.Records)
	for _, indirect := range []bool{false, true} {
		for _, k := range []uint{6, 11} {
			cfg := Config{TableBits: k}
			s1, err := in.Step1(cfg, indirect)
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunStep1(trace.NewBuffer(buf.Records), cfg, indirect)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(s1, want) {
				t.Errorf("indirect=%v k=%d: Input.Step1 differs from RunStep1", indirect, k)
			}
			if &s1.PCs[0] != &in.table(indirect).pcs[0] {
				t.Errorf("indirect=%v k=%d: step 1 does not share the input's branch table", indirect, k)
			}
			p, err := in.Step2(cfg, indirect, s1)
			if err != nil {
				t.Fatal(err)
			}
			wantP, err := RunStep2(trace.NewBuffer(buf.Records), cfg, indirect, s1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(p, wantP) {
				t.Errorf("indirect=%v k=%d: Input.Step2 differs from RunStep2", indirect, k)
			}
		}
	}
	pp, agg, err := in.PatternCond(Config{TableBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	wantPP, wantAgg, err := PatternCond(trace.NewBuffer(buf.Records), Config{TableBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pp, wantPP) || !reflect.DeepEqual(agg, wantAgg) {
		t.Error("Input.PatternCond differs from PatternCond")
	}
}

// poisonPools files slices full of fill values in every size class the
// fixtures below reach, in every pool a profiling call takes storage
// from, so the call's Gets hand out garbage: an entry it reads before
// writing changes its result.
func poisonPools() {
	for c := 0; c <= 17; c++ {
		poison(&branches, branch{at: -1, id: -1, phase: 0xFF, taken: true}, c)
		poison(&reuse.Uint8, 0xFF, c)
		poison(&reuse.Uint32, ^uint32(0), c)
		poison(&reuse.Int64, -1, c)
	}
}

func poison[T any](p *reuse.Pool[T], fill T, class int) {
	s := make([]T, 1<<class)
	for i := range s {
		s[i] = fill
	}
	p.Put(s)
}

// TestPoisonedPoolsMatchReference runs step 1, step 2 and the pattern
// heuristic on pools filled with garbage, each call right after a
// refill, and checks them against the map-based references: every
// array a call takes from the pools — the index arrays, the prefix
// array's leading zeros, the count matrix, the tables — is written
// before it is read.
func TestPoisonedPoolsMatchReference(t *testing.T) {
	withPoolCap(t, 1)
	buf := profileFixture(41, 4000)
	for _, class := range []struct {
		name     string
		indirect bool
		step1    func(trace.Source, uint, int, []int) (map[arch.Addr][]int64, []int64, int64)
		twoStep  func(trace.Source, Config) (*Profile, error)
	}{
		{"cond", false, refStep1Cond, refTwoStepCond},
		{"indirect", true, refStep1Indirect, refTwoStepIndirect},
	} {
		for _, cfg := range []Config{{TableBits: 9}, {TableBits: 9, MaxPath: 8}, {TableBits: 17, Lengths: []int{1, 2, 4, 8, 16, 32}}} {
			name := fmt.Sprintf("%s/%+v", class.name, cfg)
			_, wantCorrect, wantTotal := class.step1(buf, cfg.TableBits, cfg.maxPath(), cfg.lengths(condPath))
			poisonPools()
			s1, err := RunStep1(buf, cfg, class.indirect)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if s1.Total != wantTotal || !reflect.DeepEqual(s1.Correct, wantCorrect) {
				t.Errorf("%s: step 1 on poisoned pools: %d scored, correct %v; reference %d, %v",
					name, s1.Total, s1.Correct, wantTotal, wantCorrect)
			}
			want, err := class.twoStep(buf, cfg)
			if err != nil {
				t.Fatal(err)
			}
			poisonPools()
			got, err := RunStep2(buf, cfg, class.indirect, s1)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: step 2 on poisoned pools diverges:\n got %+v\n ref %+v", name, got, want)
			}
		}
	}
	pbuf := patternFixture(43, 4000)
	for _, cfg := range []Config{{TableBits: 9}, {TableBits: 17, Lengths: []int{0, 2, 4, 8}}} {
		want, wantAgg := refPatternCond(pbuf, cfg)
		poisonPools()
		got, agg, err := PatternCond(pbuf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(agg, wantAgg) {
			t.Errorf("pattern %+v on poisoned pools diverges:\n got %+v %+v\n ref %+v %+v", cfg, got, agg, want, wantAgg)
		}
	}
}
