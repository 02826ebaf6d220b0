// Package profile implements the paper's two-step profiling heuristic
// (§3.5) that assigns each static branch the hash function number (path
// length) used by the variable length path predictor.
//
// Step 1 simulates one fixed length path predictor per candidate hash
// function — each with its own predictor table — on the profile input, and
// records per static branch how many times each predictor was correct. The
// top candidates per branch (three in the paper) move to step 2.
//
// Step 2 simulates the real variable length path predictor (one shared
// table, hence inter-branch interference) for several iterations (seven in
// the paper). Each iteration assigns every branch its candidate with the
// fewest recorded mispredictions — untested candidates count zero, so they
// are tried first — runs the predictor, and writes each tested candidate's
// misprediction count back into the record. The final assignment is the
// per-branch candidate with the fewest recorded mispredictions.
package profile

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/bpred/counter"
	"repro/internal/engine/pool"
	"repro/internal/obs"
	"repro/internal/reuse"
	"repro/internal/trace"
	"repro/internal/vlp"
)

// Config parameterises the heuristic. The zero value of each field selects
// the paper's setting.
type Config struct {
	// TableBits is the index width k of the predictor table being
	// profiled for (required, 1..32). The profile is tuned to a table
	// size; the paper profiles each hardware budget separately.
	TableBits uint
	// MaxPath is the THB depth N; 0 means vlp.DefaultMaxPath (32).
	MaxPath int
	// Lengths is the candidate hash function set; nil means 1..MaxPath
	// (all N hash functions, as in the paper's experiments). A subset
	// such as {1,2,4,8,16,32} models the cheaper implementation of §3.1.
	Lengths []int
	// Candidates per branch kept after step 1; 0 means 3.
	Candidates int
	// Iterations of step 2; 0 means 7. The paper notes it must be at
	// least the number of candidates so each gets tested.
	Iterations int
}

func (c Config) maxPath() int {
	if c.MaxPath == 0 {
		return vlp.DefaultMaxPath
	}
	return c.MaxPath
}

// span returns the candidate range of cls: path lengths 1..MaxPath, or
// pattern history bit counts 0..TableBits (0 is bimodal).
func (c Config) span(cls class) (lo, hi int) {
	if cls == condPattern {
		return 0, int(c.TableBits)
	}
	return 1, c.maxPath()
}

// lengths returns the candidate set of cls; nil Lengths means the whole
// span.
func (c Config) lengths(cls class) []int {
	if c.Lengths != nil {
		return c.Lengths
	}
	lo, hi := c.span(cls)
	ls := make([]int, hi-lo+1)
	for i := range ls {
		ls[i] = lo + i
	}
	return ls
}

func (c Config) candidates() int {
	if c.Candidates == 0 {
		return 3
	}
	return c.Candidates
}

func (c Config) iterations() int {
	if c.Iterations == 0 {
		return 7
	}
	return c.Iterations
}

// Resolved returns c with every path-class default filled in, so two
// spellings of one configuration compare equal (callers key memoized
// profiles by it).
func (c Config) Resolved() Config {
	return Config{
		TableBits:  c.TableBits,
		MaxPath:    c.maxPath(),
		Lengths:    c.lengths(condPath),
		Candidates: c.candidates(),
		Iterations: c.iterations(),
	}
}

// validate checks c for the class cls. The pattern class indexes a
// varhist table, whose history register is at most 30 bits wide here.
func (c Config) validate(cls class) error {
	maxK := uint(32)
	if cls == condPattern {
		maxK = 30
	}
	if c.TableBits < 1 || c.TableBits > maxK {
		return fmt.Errorf("profile: table bits %d out of range 1..%d", c.TableBits, maxK)
	}
	ls := c.lengths(cls)
	if n := len(ls); n == 0 || n > maxLengths {
		return fmt.Errorf("profile: %d candidate lengths, want 1..%d", n, maxLengths)
	}
	lo, hi := c.span(cls)
	for i, l := range ls {
		if l < lo || l > hi {
			return fmt.Errorf("profile: candidate length %d out of range %d..%d", l, lo, hi)
		}
		if i > 0 && l <= ls[i-1] {
			return fmt.Errorf("profile: candidate lengths %v not strictly ascending", ls)
		}
	}
	if c.candidates() < 1 {
		return fmt.Errorf("profile: candidate count %d invalid", c.Candidates)
	}
	if c.iterations() < c.candidates() {
		return fmt.Errorf("profile: %d iterations cannot test %d candidates",
			c.iterations(), c.candidates())
	}
	return nil
}

// Profile is the heuristic's output: the per-branch hash function numbers
// plus the default for unprofiled branches. It is the information the
// compiler would encode into branch instructions (§4.2).
type Profile struct {
	// Kind is "cond" or "indirect".
	Kind string `json:"kind"`
	// TableBits records the table size the profile was tuned for.
	TableBits uint `json:"table_bits"`
	// Lengths maps each profiled static branch to its hash number.
	Lengths map[arch.Addr]int `json:"lengths"`
	// Default is the hash number for unprofiled branches: the candidate
	// with the highest step-1 accuracy over all profiled branches.
	Default int `json:"default"`
}

// Selector returns the vlp selector realising this profile.
func (p *Profile) Selector() *vlp.PerBranch {
	return &vlp.PerBranch{Lengths: p.Lengths, Default: p.Default}
}

// Step1Result reports the per-length aggregate accuracy measured by step 1;
// the experiment harness uses it directly for the paper's Table 2 (the
// best average fixed length).
type Step1Result struct {
	// Lengths are the candidate path lengths, ascending.
	Lengths []int
	// Correct[i] counts correct predictions by the fixed length path
	// predictor of Lengths[i] over the whole profile input.
	Correct []int64
	// Total is the number of scored dynamic branches.
	Total int64
}

// BestLength returns the candidate with the most correct predictions
// (ties to the shorter length, whose index trains faster).
func (s Step1Result) BestLength() int {
	best, bestC := s.Lengths[0], s.Correct[0]
	for i := 1; i < len(s.Lengths); i++ {
		if s.Correct[i] > bestC {
			best, bestC = s.Lengths[i], s.Correct[i]
		}
	}
	return best
}

// maxLengths bounds the candidate set, so a candidate's index fits the
// byte each rank entry of Step1 holds.
const maxLengths = 256

// rankCandidates fills rank with the candidate indices ordered by correct
// count, most correct first. The insertion sort is stable, so ties keep
// candidate order (the shorter length first, for ascending lengths).
func rankCandidates(correct []int64, rank []uint8) {
	for i := range rank {
		rank[i] = uint8(i)
		for j := i; j > 0 && correct[rank[j-1]] < correct[rank[j]]; j-- {
			rank[j-1], rank[j] = rank[j], rank[j-1]
		}
	}
}

// topCandidates returns, for one branch's per-length correct counts, the
// candidate lengths ranked by correctness (ties to shorter), at most n.
func topCandidates(lengths []int, correct []int64, n int) []int {
	rank := make([]uint8, len(lengths))
	rankCandidates(correct, rank)
	out := make([]int, min(n, len(rank)))
	for i := range out {
		out[i] = lengths[rank[i]]
	}
	return out
}

// class is what one profiling call scores: a branch class and the history
// its predictor indexes with.
type class uint8

const (
	condPath     class = iota // conditionals on path history (vlp.Cond)
	indirectPath              // indirect targets on path history (vlp.Indirect)
	condPattern               // conditionals on pattern history (varhist)
)

// pathClass returns the path class RunStep1 and RunStep2 name by a bool.
func pathClass(indirect bool) class {
	if indirect {
		return indirectPath
	}
	return condPath
}

// String returns the class name, which is Profile.Kind for the path
// classes.
func (c class) String() string { return [...]string{"cond", "indirect", "pattern"}[c] }

// Step1 is step 1's whole output on one profile input: the aggregate
// per-length accuracy plus each branch's candidates ranked by its correct
// counts, which is all step 2 reads of them. It holds no table indices
// and one byte per branch and candidate, so it is small enough to
// memoize: callers that profile one input at one k with several step-2
// settings run step 1 once and pass it to RunStep2.
type Step1 struct {
	Step1Result
	// class is what the sweep scored.
	class class
	// TableBits is the index width k the sweep ran at.
	TableBits uint
	// PCs are the scored static branches in first-sight order.
	PCs []arch.Addr
	// Ranks holds each branch's candidate indices (into Lengths) ranked
	// by its correct count, most correct first, ties to the earlier
	// candidate: len(PCs)×len(Lengths), row-major by branch (the order
	// of PCs).
	Ranks []uint8
}

// Cond runs the full two-step heuristic for conditional branches on the
// profile input and returns the per-branch assignment together with the
// step-1 aggregate.
func Cond(src trace.Source, cfg Config) (*Profile, Step1Result, error) {
	return newInputOf(src).pathProfile(cfg, condPath)
}

// Indirect runs the full two-step heuristic for indirect branches.
func Indirect(src trace.Source, cfg Config) (*Profile, Step1Result, error) {
	return newInputOf(src).pathProfile(cfg, indirectPath)
}

func (in *Input) pathProfile(cfg Config, cls class) (*Profile, Step1Result, error) {
	lengths, agg, err := in.twoStep(cfg, cls)
	if err != nil {
		return nil, Step1Result{}, err
	}
	return &Profile{Kind: cls.String(), TableBits: cfg.TableBits, Lengths: lengths, Default: agg.BestLength()}, agg, nil
}

// RunStep1 runs step 1 alone: one fixed length path predictor per
// candidate length, each with a private table, over the profile input.
func RunStep1(src trace.Source, cfg Config, indirect bool) (*Step1, error) {
	return newInputOf(src).Step1(cfg, indirect)
}

// Step1 is RunStep1 on the input.
func (in *Input) Step1(cfg Config, indirect bool) (*Step1, error) {
	x, s1, err := in.sweep(cfg, pathClass(indirect))
	if err != nil {
		return nil, err
	}
	x.release()
	return s1, nil
}

// RunStep2 runs step 2 on the profile input from a step 1 already
// computed on that same input, so a memoized step 1 is not recomputed.
// s1 must match the class, TableBits and candidate lengths of cfg; a
// mismatch, or a step 1 computed on a different input, is an error.
func RunStep2(src trace.Source, cfg Config, indirect bool, s1 *Step1) (*Profile, error) {
	return newInputOf(src).Step2(cfg, indirect, s1)
}

// Step2 is RunStep2 on the input.
func (in *Input) Step2(cfg Config, indirect bool, s1 *Step1) (*Profile, error) {
	cls := pathClass(indirect)
	if err := cfg.validate(cls); err != nil {
		return nil, err
	}
	if s1.class != cls || s1.TableBits != cfg.TableBits || !slices.Equal(s1.Lengths, cfg.lengths(cls)) {
		return nil, fmt.Errorf("profile: step 1 (%s, k=%d, lengths %v) does not match the step-2 config (%s, k=%d, lengths %v)",
			s1.class, s1.TableBits, s1.Lengths, cls, cfg.TableBits, cfg.lengths(cls))
	}
	if len(s1.Ranks) != len(s1.PCs)*len(s1.Lengths) {
		return nil, fmt.Errorf("profile: step 1 holds %d ranks for %d branches × %d lengths",
			len(s1.Ranks), len(s1.PCs), len(s1.Lengths))
	}
	x, err := in.index(cls, cfg.TableBits, slices.Max(s1.Lengths))
	if err != nil {
		return nil, err
	}
	defer x.release()
	if int64(len(x.branches)) != s1.Total || !slices.Equal(x.pcs, s1.PCs) {
		return nil, fmt.Errorf("profile: step 1 was computed on a different profile input")
	}
	lengths := x.step2(cfg, s1)
	return &Profile{Kind: cls.String(), TableBits: cfg.TableBits, Lengths: lengths, Default: s1.BestLength()}, nil
}

// twoStep is the shared driver behind Cond, Indirect and PatternCond: one
// input feeds both steps. It returns the per-branch assignment and the
// step-1 aggregate, whose BestLength is the default.
func (in *Input) twoStep(cfg Config, cls class) (map[arch.Addr]int, Step1Result, error) {
	x, s1, err := in.sweep(cfg, cls)
	if err != nil {
		return nil, Step1Result{}, err
	}
	defer x.release()
	return x.step2(cfg, s1), s1.Step1Result, nil
}

// sweep validates cfg for cls, indexes the input at its table size and
// runs step 1 on it. The caller releases the index.
func (in *Input) sweep(cfg Config, cls class) (*indexed, *Step1, error) {
	if err := cfg.validate(cls); err != nil {
		return nil, nil, err
	}
	lengths := cfg.lengths(cls)
	x, err := in.index(cls, cfg.TableBits, slices.Max(lengths))
	if err != nil {
		return nil, nil, err
	}
	return x, x.step1(lengths), nil
}

// candidates returns every branch's top n candidate lengths, c =
// min(n, len(Lengths)) of them per branch, row-major by dense id.
func (s *Step1) candidates(n int) (cands []int32, c int) {
	w := len(s.Lengths)
	c = min(n, w)
	cands = make([]int32, len(s.PCs)*c)
	for id := range s.PCs {
		for i := 0; i < c; i++ {
			cands[id*c+i] = int32(s.Lengths[s.Ranks[id*w+i]])
		}
	}
	return cands, c
}

// --- Hot-path kernels -----------------------------------------------------
//
// Both steps replay the profile input many times (once per candidate
// hash function in step 1, once per iteration in step 2), so the replay
// loops are the pipeline's cost. The index I_L at a branch depends only
// on the input and on k, not on which predictor reads it — the paper's
// hardware shares one THB across all N hash functions (§3.1, §4.1) — and
// in vlp.Frame's rotating frame any I_L is one XOR and one rotation of
// two prefix XORs. So each path profiling call runs the THB once, into
// one prefix array, and every pass computes the indices it reads inline.
// The pattern class does the same with the global outcome history: one
// k-bit history value per scored record, masked to each candidate's bit
// count inline.
//
//   - static branches are interned into dense ids once per input and
//     class (Input), so every pass indexes flat arrays instead of
//     touching a map per branch, and no call re-interns its input;
//   - step 1 runs one candidate at a time over the scored records; the
//     candidates are sharded across the engine's worker pool
//     (engine/pool), and each worker reuses one table for every
//     candidate of its shard;
//   - each step-2 iteration is one pass over the scored records plus one
//     table, reused across iterations;
//   - the tables, the index arrays and step 1's count matrix come from
//     the process-wide pools (internal/reuse) and go back at the end of
//     each call, so the calls of a pass reuse each other's storage.

// Input is one profile input: its records and, per branch class, the
// table interning the class's static branches into dense ids. A table
// is built on the first profiling call that needs it and is then shared
// by every later call on the input, whatever its table size, candidate
// set or step, so a trace is interned once per class. The conditional
// table serves the path and the pattern classes alike. An Input is safe
// for concurrent use; its records must not change once it is built.
type Input struct {
	Records []trace.Record

	cond, indirect lazyTable
}

// NewInput returns the profile input over recs.
func NewInput(recs []trace.Record) *Input { return &Input{Records: recs} }

// newInputOf is the input of a source-taking entry point: the record
// slice behind src, materialising non-buffer sources once so every
// profiling pass can iterate the slice directly. Profiling sources must
// be replayable anyway (the heuristic replays the input many times), so
// buffering them is a net saving.
func newInputOf(src trace.Source) *Input {
	if b, ok := src.(*trace.Buffer); ok {
		return NewInput(b.Records)
	}
	return NewInput(trace.Collect(src).Records)
}

type lazyTable struct {
	once sync.Once
	t    branchTable
}

// branchTable is the static-branch table of one input for one class:
// ids holds each scored record's dense id, in trace order; pcs maps ids
// back to addresses, in first-sight order; inserts counts the input's
// THB inserts, which every path-class index sizes its prefix array by.
type branchTable struct {
	ids     []int32
	pcs     []arch.Addr
	inserts int
}

// table returns the input's branch table for the class that scores
// conditionals, or indirect targets when indirect is set.
func (in *Input) table(indirect bool) *branchTable {
	l := &in.cond
	if indirect {
		l = &in.indirect
	}
	l.once.Do(func() { l.t = internPCs(in.Records, indirect) })
	return &l.t
}

// CondBranches returns the input's conditional branch table: the dense
// id of every conditional record, in trace order, and the address of
// every id, in first-sight order. It is built once per input and shared;
// callers must not modify it.
func (in *Input) CondBranches() (ids []int32, pcs []arch.Addr) {
	t := in.table(false)
	return t.ids, t.pcs
}

// scores reports whether a record of kind k is scored by the class that
// scores conditionals, or indirect targets when indirect is set.
func scores(k arch.BranchKind, indirect bool) bool {
	if indirect {
		return k.IndirectTarget()
	}
	return k == arch.Cond
}

// internPCs builds the branch table of recs for one class.
func internPCs(recs []trace.Record, indirect bool) branchTable {
	var t branchTable
	ids := map[arch.Addr]int32{}
	scored := 0
	for j := range recs {
		if scores(recs[j].Kind, indirect) {
			scored++
		}
		if recs[j].Kind.RecordsInTHB() {
			t.inserts++
		}
	}
	t.ids = make([]int32, 0, scored)
	for j := range recs {
		r := &recs[j]
		if !scores(r.Kind, indirect) {
			continue
		}
		id, ok := ids[r.PC]
		if !ok {
			id = int32(len(t.pcs))
			ids[r.PC] = id
			t.pcs = append(t.pcs, r.PC)
		}
		t.ids = append(t.ids, id)
	}
	return t
}

// indexed is the profile input as the predictors of one table size see
// it: one branch per scored record, and for the path classes pre, the
// prefix XOR after every THB insert of the input behind maxL leading
// zeros, so index reaches back any candidate length with no bounds
// special case. Memory is one entry per scored record and per THB
// insert, whatever the number of candidate lengths; it lives only for
// the profiling call that built it, which releases it to the pools.
type indexed struct {
	class    class
	frame    vlp.Frame
	branches []branch
	next     []uint32 // indirect outcomes, by scored record
	hist     []uint32 // pattern class: the k-bit outcome history before each scored record
	pre      []uint32
	pcs      []arch.Addr
}

// branch is one scored record: its dense id, its place on the path and
// its conditional outcome. at is the position in pre of the newest
// prefix before the branch, and phase that insert's frame phase.
type branch struct {
	at    int32
	id    int32
	phase uint8
	taken bool
}

// branches is the process-wide pool of indexed branch arrays.
var branches reuse.Pool[branch]

// index returns I_l at branch b.
func index(f vlp.Frame, pre []uint32, b branch, l int) uint32 {
	return f.Index(pre[b.at], pre[int(b.at)-l], uint(b.phase))
}

// index runs the input's history over its records once, at table size
// k: for the path classes the THB, for candidate lengths up to maxL; for
// the pattern class the global outcome history register, which every
// conditional shifts, as varhist.Predictor.Update does. The dense ids
// come from the class's branch table.
func (in *Input) index(cls class, k uint, maxL int) (*indexed, error) {
	f, err := vlp.NewFrame(k)
	if err != nil {
		return nil, err
	}
	indirect := cls == indirectPath
	t := in.table(indirect)
	recs := in.Records
	n := len(t.ids)
	x := &indexed{class: cls, frame: f, branches: branches.Get(n), pcs: t.pcs}
	if cls == condPattern {
		x.hist = reuse.Uint32.Get(n)
		h, mask, s := uint32(0), uint32(1)<<k-1, 0
		for j := range recs {
			if scores(recs[j].Kind, false) {
				taken := recs[j].Taken
				x.branches[s] = branch{id: t.ids[s], taken: taken}
				x.hist[s] = h
				h = (h<<1 | uint32(one(taken))) & mask
				s++
			}
		}
		return x, nil
	}
	x.pre = reuse.Uint32.Get(maxL + 1 + t.inserts)
	clear(x.pre[:maxL+1])
	if indirect {
		x.next = reuse.Uint32.Get(n)
	}
	at, phase, s := maxL, uint(0), 0
	for j := range recs {
		r := &recs[j]
		if scores(r.Kind, indirect) {
			x.branches[s] = branch{at: int32(at), id: t.ids[s], phase: uint8(phase), taken: r.Taken}
			if x.next != nil {
				x.next[s] = uint32(r.Next)
			}
			s++
		}
		if r.Kind.RecordsInTHB() {
			x.pre[at+1], phase = f.Push(x.pre[at], phase, f.Compress(r.Next))
			at++
		}
	}
	return x, nil
}

// release returns the index arrays to the pools. x must not be used
// afterwards.
func (x *indexed) release() {
	branches.Put(x.branches)
	reuse.Uint32.Put(x.hist)
	reuse.Uint32.Put(x.pre)
	reuse.Uint32.Put(x.next)
	*x = indexed{}
}

func (x *indexed) k() uint { return x.frame.K() }

// table is one predictor table of a class: a 2-bit counter array, or the
// indirect class's target registers. Every pass resets the table it
// replays on.
type table struct {
	pht *counter.Array
	reg []uint32
}

// getTable returns a table of the class at 2^k entries, taken from the
// process-wide pools; its contents are unspecified until a pass resets
// it.
func (x *indexed) getTable() table {
	if x.class == indirectPath {
		return table{reg: reuse.Uint32.Get(1 << x.k())}
	}
	return table{pht: counter.NewArray(1<<x.k(), 2, 1)}
}

// put releases t to the pools.
func (t table) put() {
	if t.pht != nil {
		t.pht.Release()
	}
	reuse.Uint32.Put(t.reg)
}

// step1 runs one fixed-length predictor per candidate length, each on a
// table of 2^k entries. The candidates are sharded into contiguous
// chunks across the worker pool; a worker reuses one table and one count
// column for every candidate of its chunk and copies each finished
// column into its own cells of the count matrix, so the result is
// bit-identical to a sequential sweep at any pool size. The matrix is
// then reduced to each branch's ranking.
func (x *indexed) step1(lengths []int) *Step1 {
	w := len(lengths)
	s1 := &Step1{
		Step1Result: Step1Result{
			Lengths: append([]int(nil), lengths...),
			Correct: make([]int64, w),
			Total:   int64(len(x.branches)),
		},
		class:     x.class,
		TableBits: x.k(),
		PCs:       x.pcs,
		Ranks:     make([]uint8, len(x.pcs)*w),
	}
	counts := reuse.Int64.Get(len(x.pcs) * w)
	defer reuse.Int64.Put(counts)
	workers := pool.Size(w)
	pool.Fan(workers, workers, func(shard int) {
		lo, hi := shard*w/workers, (shard+1)*w/workers
		col := make([]int64, len(x.pcs))
		t := x.getTable()
		defer t.put()
		for i := lo; i < hi; i++ {
			clear(col)
			switch x.class {
			case condPath:
				t.pht.Reset(1)
				flpCond(x, lengths[i], t.pht, col)
			case indirectPath:
				clear(t.reg)
				flpIndirect(x, lengths[i], t.reg, col)
			case condPattern:
				t.pht.Reset(1)
				fixedPattern(x, lengths[i], t.pht, col)
			}
			for id, c := range col {
				counts[id*w+i] = c
				s1.Correct[i] += c
			}
		}
	})
	for id := range x.pcs {
		rankCandidates(counts[id*w:(id+1)*w], s1.Ranks[id*w:(id+1)*w])
	}
	obs.CountBranches(s1.Total)
	return s1
}

// one is 1 for true and 0 for false, so the kernels count without a
// data-dependent branch.
func one(b bool) int64 {
	var v int64
	if b {
		v = 1
	}
	return v
}

// flpCond replays the fixed length path predictor of length l for
// conditionals, adding each correct prediction to its branch's entry of
// col.
func flpCond(x *indexed, l int, pht *counter.Array, col []int64) {
	f, pre := x.frame, x.pre
	for _, b := range x.branches {
		col[b.id] += one(pht.Step(int(index(f, pre, b, l)), b.taken))
	}
}

// flpIndirect is flpCond for the indirect class: target registers,
// last-target-match scoring. A register holds a whole address, since
// arch.Addr is 32 bits wide, so this scores exactly what replaying a
// vlp.Indirect scores.
func flpIndirect(x *indexed, l int, reg []uint32, col []int64) {
	f, pre, next := x.frame, x.pre, x.next[:len(x.branches)]
	for s, b := range x.branches {
		i, target := index(f, pre, b, l), next[s]
		col[b.id] += one(reg[i] == target)
		reg[i] = target
	}
}

// fixedPattern is flpCond for the pattern class: a gshare-style table
// whose index XORs the PC bits with the newest bits outcomes of the
// global history (0 bits is bimodal, k bits is gshare).
func fixedPattern(x *indexed, bits int, pht *counter.Array, col []int64) {
	pcs, hist := x.pcs, x.hist[:len(x.branches)]
	low, mask := uint32(1)<<bits-1, uint64(1)<<x.k()-1
	for s, b := range x.branches {
		i := (bpred.PCBits(pcs[b.id]) ^ uint64(hist[s]&low)) & mask
		col[b.id] += one(pht.Step(int(i), b.taken))
	}
}

// step2 iterates the shared-table simulation over the input, from the
// candidates step 1 ranked on it, and returns the final per-branch
// assignment. The test input of each pass is the
// profile input itself, so every profiled branch executes in every pass:
// the candidate chosen for a branch always has its misprediction count
// written back (untested candidates keep their implicit zero, matching
// the paper's initialisation, so they are tried first in candidate rank
// order).
func (x *indexed) step2(cfg Config, s1 *Step1) map[arch.Addr]int {
	cands, c := s1.candidates(cfg.candidates())
	n := len(x.pcs)
	record := make([]int64, n*c) // per branch, per candidate: fewest misses seen
	chosen := make([]int, n)
	assigned := make([]int32, n) // each branch's assigned length
	misses := make([]int64, n)
	t := x.getTable()
	defer t.put()
	for iter := 0; iter < cfg.iterations(); iter++ {
		for id := range chosen {
			ci := argmin(record[id*c : (id+1)*c])
			chosen[id] = ci
			assigned[id] = cands[id*c+ci]
		}
		clear(misses)
		switch x.class {
		case condPath:
			t.pht.Reset(1)
			vlpCond(x, assigned, t.pht, misses)
		case indirectPath:
			clear(t.reg)
			vlpIndirect(x, assigned, t.reg, misses)
		case condPattern:
			t.pht.Reset(1)
			elasticPattern(x, assigned, t.pht, misses)
		}
		obs.CountBranches(int64(len(x.branches)))
		for id, ci := range chosen {
			record[id*c+ci] = misses[id]
		}
	}
	final := make(map[arch.Addr]int, n)
	for id, pc := range x.pcs {
		final[pc] = int(cands[id*c+argmin(record[id*c:(id+1)*c])])
	}
	return final
}

// vlpCond is one shared-table VLP pass for conditionals: the same table
// and update order as replaying a vlp.Cond built from a PerBranch
// selector, with each branch's index at its assigned length.
func vlpCond(x *indexed, assigned []int32, pht *counter.Array, misses []int64) {
	f, pre := x.frame, x.pre
	for _, b := range x.branches {
		i := index(f, pre, b, int(assigned[b.id]))
		misses[b.id] += 1 - one(pht.Step(int(i), b.taken))
	}
}

// vlpIndirect is vlpCond for the indirect class.
func vlpIndirect(x *indexed, assigned []int32, reg []uint32, misses []int64) {
	f, pre, next := x.frame, x.pre, x.next[:len(x.branches)]
	for s, b := range x.branches {
		i := index(f, pre, b, int(assigned[b.id]))
		misses[b.id] += one(reg[i] != next[s])
		reg[i] = next[s]
	}
}

// elasticPattern is vlpCond for the pattern class: the same table and
// update order as replaying a varhist.Predictor built from a PerBranch
// selector, with each branch's index at its assigned history bits.
func elasticPattern(x *indexed, assigned []int32, pht *counter.Array, misses []int64) {
	pcs, hist := x.pcs, x.hist[:len(x.branches)]
	mask := uint64(1)<<x.k() - 1
	for s, b := range x.branches {
		low := uint32(1)<<uint(assigned[b.id]) - 1
		i := (bpred.PCBits(pcs[b.id]) ^ uint64(hist[s]&low)) & mask
		misses[b.id] += 1 - one(pht.Step(int(i), b.taken))
	}
}

// argmin returns the index of the smallest value (first on ties, which
// makes untested zero-entries win in candidate rank order, §3.5).
func argmin(v []int64) int {
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] < v[best] {
			best = i
		}
	}
	return best
}

// BestAverageLength returns the length minimising the *unweighted mean* of
// the benchmarks' misprediction rates — the paper's Table 2 criterion
// ("the length used was that for which the average misprediction rate for
// all the benchmarks was the lowest", §5.1). Benchmarks with no scored
// branches are skipped. Ties go to the shorter length.
func BestAverageLength(results []Step1Result) (int, error) {
	if len(results) == 0 {
		return 0, fmt.Errorf("profile: averaging no results")
	}
	lengths := results[0].Lengths
	sumRate := make([]float64, len(lengths))
	n := 0
	for _, r := range results {
		if len(r.Lengths) != len(lengths) {
			return 0, fmt.Errorf("profile: averaging mismatched length sets")
		}
		if r.Total == 0 {
			continue
		}
		for i := range lengths {
			if r.Lengths[i] != lengths[i] {
				return 0, fmt.Errorf("profile: averaging mismatched length sets")
			}
			sumRate[i] += 1 - float64(r.Correct[i])/float64(r.Total)
		}
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("profile: no benchmark had scored branches")
	}
	best := 0
	for i := 1; i < len(lengths); i++ {
		if sumRate[i] < sumRate[best] {
			best = i
		}
	}
	return lengths[best], nil
}

// Ensure bpred's interfaces stay implemented by the predictors this
// package instantiates (compile-time check).
var (
	_ bpred.CondPredictor     = (*vlp.Cond)(nil)
	_ bpred.IndirectPredictor = (*vlp.Indirect)(nil)
)
