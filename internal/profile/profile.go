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

	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/bpred/counter"
	"repro/internal/engine/pool"
	"repro/internal/obs"
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

func (c Config) lengths() []int {
	if c.Lengths != nil {
		return c.Lengths
	}
	ls := make([]int, c.maxPath())
	for i := range ls {
		ls[i] = i + 1
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

// Resolved returns c with every default filled in, so two spellings of
// one configuration compare equal (callers key memoized profiles by it).
func (c Config) Resolved() Config {
	return Config{
		TableBits:  c.TableBits,
		MaxPath:    c.maxPath(),
		Lengths:    c.lengths(),
		Candidates: c.candidates(),
		Iterations: c.iterations(),
	}
}

func (c Config) validate() error {
	if c.TableBits < 1 || c.TableBits > 32 {
		return fmt.Errorf("profile: table bits %d out of range 1..32", c.TableBits)
	}
	mp := c.maxPath()
	if n := len(c.lengths()); n == 0 || n > maxLengths {
		return fmt.Errorf("profile: %d candidate lengths, want 1..%d", n, maxLengths)
	}
	for _, l := range c.lengths() {
		if l < 1 || l > mp {
			return fmt.Errorf("profile: candidate length %d out of range 1..%d", l, mp)
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

// rankedLengths returns the lengths of the first n ranked candidates.
func rankedLengths(lengths []int, rank []uint8, n int) []int {
	out := make([]int, min(n, len(rank)))
	for i := range out {
		out[i] = lengths[rank[i]]
	}
	return out
}

// topCandidates returns, for one branch's per-length correct counts, the
// candidate lengths ranked by correctness (ties to shorter), at most n.
func topCandidates(lengths []int, correct []int64, n int) []int {
	rank := make([]uint8, len(lengths))
	rankCandidates(correct, rank)
	return rankedLengths(lengths, rank, n)
}

// Step1 is step 1's whole output on one profile input: the aggregate
// per-length accuracy plus each branch's candidates ranked by its correct
// counts, which is all step 2 reads of them. It holds no table indices
// and one byte per branch and candidate, so it is small enough to
// memoize: callers that profile one input at one k with several step-2
// settings run step 1 once and pass it to RunStep2.
type Step1 struct {
	Step1Result
	// Indirect reports the branch class the sweep scored.
	Indirect bool
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
	return twoStep(src, cfg, false)
}

// Indirect runs the full two-step heuristic for indirect branches.
func Indirect(src trace.Source, cfg Config) (*Profile, Step1Result, error) {
	return twoStep(src, cfg, true)
}

// RunStep1 runs step 1 alone: one fixed length path predictor per
// candidate length, each with a private table, over the profile input.
func RunStep1(src trace.Source, cfg Config, indirect bool) (*Step1, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t, err := newTape(asRecords(src), indirect, cfg.TableBits, cfg.lengths())
	if err != nil {
		return nil, err
	}
	return t.step1(), nil
}

// RunStep2 runs step 2 on the profile input from a step 1 already
// computed on that same input, so a memoized step 1 is not recomputed.
// s1 must match the class, TableBits and candidate lengths of cfg; a
// mismatch, or a step 1 computed on a different input, is an error.
func RunStep2(src trace.Source, cfg Config, indirect bool, s1 *Step1) (*Profile, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if s1.Indirect != indirect || s1.TableBits != cfg.TableBits || !slices.Equal(s1.Lengths, cfg.lengths()) {
		return nil, fmt.Errorf("profile: step 1 (%s, k=%d, lengths %v) does not match the step-2 config (%s, k=%d, lengths %v)",
			kindName(s1.Indirect), s1.TableBits, s1.Lengths, kindName(indirect), cfg.TableBits, cfg.lengths())
	}
	if len(s1.Ranks) != len(s1.PCs)*len(s1.Lengths) {
		return nil, fmt.Errorf("profile: step 1 holds %d ranks for %d branches × %d lengths",
			len(s1.Ranks), len(s1.PCs), len(s1.Lengths))
	}
	t, err := newTape(asRecords(src), indirect, cfg.TableBits, s1.Lengths)
	if err != nil {
		return nil, err
	}
	if scored, pcs := t.branches(); int64(scored) != s1.Total || !slices.Equal(pcs, s1.PCs) {
		return nil, fmt.Errorf("profile: step 1 was computed on a different profile input")
	}
	return t.step2(cfg, s1, s1.candidates(cfg.candidates())), nil
}

// twoStep is the shared driver behind Cond and Indirect: one tape feeds
// both steps.
func twoStep(src trace.Source, cfg Config, indirect bool) (*Profile, Step1Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, Step1Result{}, err
	}
	t, err := newTape(asRecords(src), indirect, cfg.TableBits, cfg.lengths())
	if err != nil {
		return nil, Step1Result{}, err
	}
	s1 := t.step1()
	return t.step2(cfg, s1, s1.candidates(cfg.candidates())), s1.Step1Result, nil
}

func kindName(indirect bool) string {
	if indirect {
		return "indirect"
	}
	return "cond"
}

// candidates returns every branch's top n candidate lengths, by dense id.
func (s *Step1) candidates(n int) [][]int {
	w := len(s.Lengths)
	cands := make([][]int, len(s.PCs))
	for id := range cands {
		cands[id] = rankedLengths(s.Lengths, s.Ranks[id*w:(id+1)*w], n)
	}
	return cands
}

// --- Hot-path kernels -----------------------------------------------------
//
// Both steps replay the profile input many times (once per candidate
// hash function in step 1, once per iteration in step 2), so the replay
// loops are the pipeline's cost. The index I_X at a branch depends only
// on the input and on k, not on which predictor reads it — the paper's
// hardware shares one THB across all N hash functions (§3.1, §4.1) — so
// each profiling call runs the THB once, into an index tape, and every
// pass reads its indices from the tape:
//
//   - static branches are interned into dense ids up front, so every
//     pass indexes flat arrays instead of touching a map per branch;
//   - step 1 runs one candidate at a time over its contiguous tape row;
//     the candidates are sharded across the engine's worker pool
//     (engine/pool), and each worker reuses one table for every
//     candidate of its shard;
//   - each step-2 iteration is one pass over the tape plus one table,
//     reused across iterations.

// asRecords exposes the record slice behind src, materialising non-buffer
// sources once so every profiling pass can iterate the slice directly.
// Profiling sources must be replayable anyway (the heuristic replays the
// input many times), so buffering them is a net saving.
func asRecords(src trace.Source) []trace.Record {
	if b, ok := src.(*trace.Buffer); ok {
		return b.Records
	}
	return trace.Collect(src).Records
}

// internPCs assigns dense ids to the static branches of the scored class,
// in first-sight order. recIDs holds one entry per record: the branch's id
// for scored records, -1 otherwise. pcs maps ids back to addresses, and
// scored counts the dynamic branches of the class.
func internPCs(recs []trace.Record, indirect bool) (recIDs []int32, pcs []arch.Addr, scored int64) {
	ids := map[arch.Addr]int32{}
	recIDs = make([]int32, len(recs))
	for j := range recs {
		r := &recs[j]
		in := r.Kind == arch.Cond
		if indirect {
			in = r.Kind.IndirectTarget()
		}
		if !in {
			recIDs[j] = -1
			continue
		}
		id, ok := ids[r.PC]
		if !ok {
			id = int32(len(pcs))
			ids[r.PC] = id
			pcs = append(pcs, r.PC)
		}
		recIDs[j] = id
		scored++
	}
	return recIDs, pcs, scored
}

// indexTape is an index tape of either element width.
type indexTape interface {
	step1() *Step1
	step2(cfg Config, s1 *Step1, cands [][]int) *Profile
	// branches reports the scored dynamic branches and the interned
	// static branches.
	branches() (scored int, pcs []arch.Addr)
}

// index is a tape element: uint16 when every index fits (k <= 16),
// which halves the tape, else uint32.
type index interface{ uint16 | uint32 }

// tape is the profile input as the predictors see it: for every scored
// record s, the branch's dense id, its outcome, and the index
// I_lengths[r] of every requested length r, stored length-major
// (idx[r*len(ids)+s]) so a step-1 candidate reads one contiguous row.
// It is built by one vlp.HashSet pass. A tape grows with the profile
// input (S × |lengths| indices) where the tables it replaces grow only
// with k, so it lives only for the profiling call that built it and is
// never cached.
type tape[T index] struct {
	indirect bool
	k        uint
	lengths  []int
	rowOf    []int // rowOf[l] is length l's row, -1 when not recorded
	ids      []int32
	taken    []bool      // cond outcomes
	next     []arch.Addr // indirect outcomes
	pcs      []arch.Addr
	idx      []T
}

func newTape(recs []trace.Record, indirect bool, k uint, lengths []int) (indexTape, error) {
	if k <= 16 {
		return buildTape[uint16](recs, indirect, k, lengths)
	}
	return buildTape[uint32](recs, indirect, k, lengths)
}

func buildTape[T index](recs []trace.Record, indirect bool, k uint, lengths []int) (*tape[T], error) {
	recIDs, pcs, scored := internPCs(recs, indirect)
	maxL := slices.Max(lengths)
	t := &tape[T]{indirect: indirect, k: k, lengths: lengths, rowOf: make([]int, maxL+1), pcs: pcs}
	for l := range t.rowOf {
		t.rowOf[l] = -1
	}
	for r, l := range lengths {
		t.rowOf[l] = r
	}
	hs, err := vlp.NewHashSet(k, maxL)
	if err != nil {
		return nil, err
	}
	n := int(scored)
	t.ids = make([]int32, n)
	t.idx = make([]T, len(lengths)*n)
	if indirect {
		t.next = make([]arch.Addr, n)
	} else {
		t.taken = make([]bool, n)
	}
	// Indices are gathered record-major into a small block, then
	// written out row by row, so the tape is filled by contiguous runs
	// rather than one scattered write per row per record.
	const block = 256
	w := len(lengths)
	buf := make([]T, block*w)
	flush := func(end int) {
		base := end - (end-1)%block - 1
		for row := 0; row < w; row++ {
			dst := t.idx[row*n+base : row*n+end]
			for b := range dst {
				dst[b] = buf[b*w+row]
			}
		}
	}
	s := 0
	for j := range recs {
		r := &recs[j]
		if id := recIDs[j]; id >= 0 {
			t.ids[s] = id
			if indirect {
				t.next[s] = r.Next
			} else {
				t.taken[s] = r.Taken
			}
			b, regs := buf[s%block*w:s%block*w+w], hs.Indices()
			for row, l := range lengths {
				b[row] = T(regs[l-1])
			}
			s++
			if s%block == 0 {
				flush(s)
			}
		}
		if r.Kind.RecordsInTHB() {
			hs.Insert(r.Next)
		}
	}
	if s%block != 0 {
		flush(s)
	}
	return t, nil
}

func (t *tape[T]) branches() (int, []arch.Addr) { return len(t.ids), t.pcs }

// row returns the indices of tape row r.
func (t *tape[T]) row(r int) []T {
	n := len(t.ids)
	return t.idx[r*n : (r+1)*n]
}

// step1 runs one FLP predictor per tape row, each on a table of 2^k
// entries. The rows are sharded into contiguous chunks across the worker
// pool; a worker reuses one table and one count column for every
// candidate of its chunk and copies each finished column into its own
// cells of the count matrix, so the result is bit-identical to a
// sequential sweep at any pool size. The matrix is then reduced to each
// branch's ranking.
func (t *tape[T]) step1() *Step1 {
	w := len(t.lengths)
	s1 := &Step1{
		Step1Result: Step1Result{
			Lengths: append([]int(nil), t.lengths...),
			Correct: make([]int64, w),
			Total:   int64(len(t.ids)),
		},
		Indirect:  t.indirect,
		TableBits: t.k,
		PCs:       t.pcs,
		Ranks:     make([]uint8, len(t.pcs)*w),
	}
	counts := make([]int64, len(t.pcs)*w)
	workers := pool.Size(w)
	pool.Fan(workers, workers, func(shard int) {
		lo, hi := shard*w/workers, (shard+1)*w/workers
		col := make([]int64, len(t.pcs))
		var (
			pht *counter.Array
			reg []uint32
		)
		if t.indirect {
			reg = make([]uint32, 1<<t.k)
		} else {
			pht = counter.NewArray(1<<t.k, 2, 1)
		}
		for i := lo; i < hi; i++ {
			clear(col)
			if t.indirect {
				clear(reg)
				s1.Correct[i] = flpIndirect(t.row(i), t.ids, t.next, reg, col)
			} else {
				pht.Reset(1)
				s1.Correct[i] = flpCond(t.row(i), t.ids, t.taken, pht, col)
			}
			for id, c := range col {
				counts[id*w+i] = c
			}
		}
	})
	for id := range t.pcs {
		rankCandidates(counts[id*w:(id+1)*w], s1.Ranks[id*w:(id+1)*w])
	}
	obs.CountBranches(s1.Total)
	return s1
}

// flpCond replays one fixed length path predictor for conditionals over
// its tape row, adding each correct prediction to its branch's entry of
// col, and returns the total correct.
func flpCond[T index](row []T, ids []int32, taken []bool, pht *counter.Array, col []int64) (correct int64) {
	ids, taken = ids[:len(row)], taken[:len(row)]
	for s, ix := range row {
		i, tk := int(ix), taken[s]
		if pht.Taken(i) == tk {
			col[ids[s]]++
			correct++
		}
		pht.Train(i, tk)
	}
	return correct
}

// flpIndirect is flpCond for the indirect class: target registers,
// last-target-match scoring on the low 32 target bits.
func flpIndirect[T index](row []T, ids []int32, next []arch.Addr, reg []uint32, col []int64) (correct int64) {
	ids, next = ids[:len(row)], next[:len(row)]
	for s, ix := range row {
		target := uint32(next[s])
		if reg[ix] == target {
			col[ids[s]]++
			correct++
		}
		reg[ix] = target
	}
	return correct
}

// step2 iterates the shared-table VLP simulation over the tape. The test
// input of each pass is the profile input itself, so every profiled
// branch executes in every pass: the candidate chosen for a branch
// always has its misprediction count written back (untested candidates
// keep their implicit zero, matching the paper's initialisation, so they
// are tried first in candidate rank order).
func (t *tape[T]) step2(cfg Config, s1 *Step1, cands [][]int) *Profile {
	n := len(t.ids)
	record := make([][]int64, len(cands)) // per branch, per candidate: fewest misses seen
	for id := range record {
		record[id] = make([]int64, len(cands[id]))
	}
	chosen := make([]int, len(cands))
	off := make([]int, len(cands)) // tape offset of each branch's assigned row
	misses := make([]int64, len(cands))
	var (
		pht *counter.Array
		reg []uint32
	)
	if t.indirect {
		reg = make([]uint32, 1<<t.k)
	} else {
		pht = counter.NewArray(1<<t.k, 2, 1)
	}
	for iter := 0; iter < cfg.iterations(); iter++ {
		for id := range cands {
			ci := argmin(record[id])
			chosen[id] = ci
			off[id] = t.rowOf[cands[id][ci]] * n
		}
		clear(misses)
		if t.indirect {
			clear(reg)
			vlpIndirect(t, off, reg, misses)
		} else {
			pht.Reset(1)
			vlpCond(t, off, pht, misses)
		}
		obs.CountBranches(int64(n))
		for id, ci := range chosen {
			record[id][ci] = misses[id]
		}
	}
	final := make(map[arch.Addr]int, len(cands))
	for id, pc := range t.pcs {
		final[pc] = cands[id][argmin(record[id])]
	}
	return &Profile{Kind: kindName(t.indirect), TableBits: t.k, Lengths: final, Default: s1.BestLength()}
}

// vlpCond is one shared-table VLP pass for conditionals: the same table
// and update order as replaying a vlp.Cond built from a PerBranch
// selector, with each branch's index read from its assigned tape row.
func vlpCond[T index](t *tape[T], off []int, pht *counter.Array, misses []int64) {
	taken := t.taken[:len(t.ids)]
	for s, id := range t.ids {
		i, tk := int(t.idx[off[id]+s]), taken[s]
		if pht.Taken(i) != tk {
			misses[id]++
		}
		pht.Train(i, tk)
	}
}

// vlpIndirect is vlpCond for the indirect class.
func vlpIndirect[T index](t *tape[T], off []int, reg []uint32, misses []int64) {
	next := t.next[:len(t.ids)]
	for s, id := range t.ids {
		ix := t.idx[off[id]+s]
		// The register holds the low 32 target bits (§3.1 footnote)
		// but the prediction it implies is a full address — mirror
		// vlp.Indirect.Predict exactly.
		if arch.Addr(reg[ix]) != next[s] {
			misses[id]++
		}
		reg[ix] = uint32(next[s])
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

// BestFixedLength runs only step 1 and returns the single path length with
// the highest aggregate accuracy — how the paper tunes its fixed length
// path predictors ("the length used was that for which the average
// misprediction rate for all the benchmarks was the lowest", §5.1, and
// the per-benchmark "tuned" variant of §5.2.3). For multi-benchmark
// averages, sum the returned Step1Results with MergeStep1.
func BestFixedLength(src trace.Source, cfg Config, indirect bool) (int, Step1Result, error) {
	s1, err := RunStep1(src, cfg, indirect)
	if err != nil {
		return 0, Step1Result{}, err
	}
	return s1.BestLength(), s1.Step1Result, nil
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

// MergeStep1 sums step-1 aggregates from several benchmarks; the result's
// BestLength is the dynamic-count-weighted cross-benchmark fixed length
// (BestAverageLength implements the paper's unweighted Table 2 criterion).
func MergeStep1(results []Step1Result) (Step1Result, error) {
	if len(results) == 0 {
		return Step1Result{}, fmt.Errorf("profile: merging no results")
	}
	out := Step1Result{
		Lengths: append([]int(nil), results[0].Lengths...),
		Correct: make([]int64, len(results[0].Correct)),
	}
	for _, r := range results {
		if len(r.Lengths) != len(out.Lengths) {
			return Step1Result{}, fmt.Errorf("profile: merging mismatched length sets")
		}
		for i := range r.Lengths {
			if r.Lengths[i] != out.Lengths[i] {
				return Step1Result{}, fmt.Errorf("profile: merging mismatched length sets")
			}
			out.Correct[i] += r.Correct[i]
		}
		out.Total += r.Total
	}
	return out, nil
}

// Ensure bpred's interfaces stay implemented by the predictors this
// package instantiates (compile-time check).
var (
	_ bpred.CondPredictor     = (*vlp.Cond)(nil)
	_ bpred.IndirectPredictor = (*vlp.Indirect)(nil)
)
