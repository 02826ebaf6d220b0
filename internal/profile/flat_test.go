package profile

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/arch"
	"repro/internal/bpred/counter"
	"repro/internal/engine/pool"
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
// and wide tables, the cheaper hash-function subset of §3.1, and a
// shallower THB.
var step1Configs = []Config{
	{TableBits: 1},
	{TableBits: 9},
	{TableBits: 17},
	{TableBits: 9, Lengths: []int{1, 2, 4, 8, 16, 32}},
	{TableBits: 9, MaxPath: 8},
}

// poolCaps are the worker-pool ceilings the differentials run under:
// sequential, and sharded with uneven chunks.
var poolCaps = []int{1, 3}

func withPoolCap(t *testing.T, n int) {
	t.Helper()
	pool.SetCap(n)
	t.Cleanup(func() { pool.SetCap(0) })
}

// TestStep1FlatMatchesMapReference pins the tape-driven step 1
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
			lengths := cfg.lengths()
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
				if !reflect.DeepEqual(s1.Lengths, lengths) || s1.TableBits != cfg.TableBits || s1.Indirect != class.indirect {
					t.Errorf("%s: step 1 labelled lengths %v k=%d indirect=%v", name, s1.Lengths, s1.TableBits, s1.Indirect)
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
	lengths := cfg.lengths()
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
	lengths := cfg.lengths()
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
// production Cond/Indirect heuristics — one index tape, flat count
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

// TestInternPCs pins the dense-id contract the kernels rely on:
// first-sight order, -1 for unscored records, per-class filtering.
func TestInternPCs(t *testing.T) {
	recs := []trace.Record{
		{PC: 0x2008, Kind: arch.Cond, Taken: true, Next: 0x3000},
		{PC: 0x9004, Kind: arch.Call, Taken: true, Next: 0xa000},
		{PC: 0x1004, Kind: arch.Cond, Taken: false, Next: 0x1008},
		{PC: 0x2008, Kind: arch.Cond, Taken: true, Next: 0x3000},
		{PC: 0x4010, Kind: arch.Indirect, Taken: true, Next: 0x5000},
	}
	recIDs, pcs, scored := internPCs(recs, false)
	if scored != 3 {
		t.Errorf("scored = %d, want 3 conditionals", scored)
	}
	if !reflect.DeepEqual(pcs, []arch.Addr{0x2008, 0x1004}) {
		t.Errorf("pcs = %v, want first-sight order [0x2008 0x1004]", pcs)
	}
	if !reflect.DeepEqual(recIDs, []int32{0, -1, 1, 0, -1}) {
		t.Errorf("recIDs = %v", recIDs)
	}
	_, ipcs, iscored := internPCs(recs, true)
	if iscored != 1 || len(ipcs) != 1 || ipcs[0] != 0x4010 {
		t.Errorf("indirect interning = %v (%d scored)", ipcs, iscored)
	}
}
