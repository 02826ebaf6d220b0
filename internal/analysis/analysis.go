// Package analysis measures how much path information each branch
// actually needs — the question behind the paper's §5.3 explanation
// ("Evers et. al. showed that only a small amount of the path information
// leading up to a branch is needed for prediction. If parts of the path
// that have no bearing on the outcome of the current branch are included
// in the history, an unnecessarily high number of predictor table entries
// will be used").
//
// For every static conditional branch and every path depth d, an *ideal*
// predictor is simulated: an unbounded, collision-free table keyed by
// (branch, exact d-deep path) of 2-bit counters, trained online. Its
// accuracy at depth d isolates the information content of the path prefix
// from all capacity and aliasing effects; the per-branch accuracy-versus-
// depth curve then shows the depth where information saturates, and its
// downward slope past that point is pure training cost.
package analysis

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/profile"
	"repro/internal/reuse"
	"repro/internal/vlp"
	"repro/internal/xrand"
)

// Config parameterises an analysis run.
type Config struct {
	// Depths are the path depths to evaluate; nil means {0, 1, 2, 4, 8,
	// 16, 32}. Depth 0 keys on the branch alone (ideal bimodal).
	Depths []int
	// MinExecutions drops branches executed fewer times (their curves
	// are noise); 0 means 32.
	MinExecutions int64
}

func (c Config) depths() []int {
	if c.Depths != nil {
		return c.Depths
	}
	return []int{0, 1, 2, 4, 8, 16, 32}
}

func (c Config) minExec() int64 {
	if c.MinExecutions == 0 {
		return 32
	}
	return c.MinExecutions
}

// BranchCurve is one static branch's predictability-by-depth curve.
type BranchCurve struct {
	PC       arch.Addr
	Executed int64
	Correct  []int64 // per configured depth
	Contexts []int64 // distinct (branch, path) contexts seen per depth
}

// Accuracy returns the ideal accuracy at depth index i.
func (b *BranchCurve) Accuracy(i int) float64 {
	if b.Executed == 0 {
		return 0
	}
	return float64(b.Correct[i]) / float64(b.Executed)
}

// Report is the full analysis result.
type Report struct {
	Depths   []int
	Branches []*BranchCurve
	// TotalExecuted counts scored dynamic branches.
	TotalExecuted int64
}

// Analyze runs the ideal-predictor sweep over the input's records. It
// reads the input's conditional branch table, so the branches' dense
// ids are interned once per input, not once per sweep.
func Analyze(in *profile.Input, cfg Config) (*Report, error) {
	depths := cfg.depths()
	maxDepth := 0
	for _, d := range depths {
		if d < 0 || d > vlp.DefaultMaxPath {
			return nil, fmt.Errorf("analysis: depth %d out of range 0..%d", d, vlp.DefaultMaxPath)
		}
		if d > maxDepth {
			maxDepth = d
		}
	}
	if maxDepth == 0 {
		maxDepth = 1
	}
	// One uncompressed path hash per depth; 64-bit mixing makes
	// collisions negligible at trace scale.
	hs, err := vlp.NewHashSet(32, maxDepth)
	if err != nil {
		return nil, err
	}

	// Curves and their per-depth counts are laid out flat by dense
	// branch id; each depth's contexts live in one table keyed by (id,
	// path key).
	ids, pcs := in.CondBranches()
	curves := make([]BranchCurve, len(pcs))
	for id, pc := range pcs {
		curves[id].PC = pc
	}
	w := len(depths)
	counts := make([]int64, len(pcs)*2*w) // per branch: Correct then Contexts, one per depth
	tables := make([]ctxTable, w)
	defer func() {
		for i := range tables {
			ctxSlots.Put(tables[i].slots)
		}
	}()

	s := 0
	for j := range in.Records {
		r := &in.Records[j]
		if r.Kind == arch.Cond {
			id := ids[s]
			s++
			curves[id].Executed++
			row := counts[int(id)*2*w : (int(id)+1)*2*w]
			for i, d := range depths {
				ctr, fresh := tables[i].lookup(id, pathKey(hs, d))
				if fresh {
					row[w+i]++
				}
				if (*ctr >= 2) == r.Taken {
					row[i]++
				}
				if r.Taken && *ctr < 3 {
					*ctr++
				} else if !r.Taken && *ctr > 0 {
					*ctr--
				}
			}
		}
		if r.Kind.RecordsInTHB() {
			hs.Insert(r.Next)
		}
	}

	rep := &Report{Depths: depths, TotalExecuted: int64(len(ids))}
	for id := range curves {
		c := &curves[id]
		if c.Executed >= cfg.minExec() {
			row := counts[id*2*w : (id+1)*2*w]
			c.Correct, c.Contexts = row[:w:w], row[w:2*w:2*w]
			rep.Branches = append(rep.Branches, c)
		}
	}
	sort.Slice(rep.Branches, func(i, j int) bool { return rep.Branches[i].PC < rep.Branches[j].PC })
	return rep, nil
}

// ctxTable holds the ideal predictor's 2-bit counters at one depth, one
// per (branch id, path key) context seen: an open-addressed table with
// linear probing, doubled when half full. Its slots come from ctxSlots,
// and Analyze releases them when it returns.
type ctxTable struct {
	slots []ctxSlot
	used  int
}

// ctxSlot is one context; id is the branch id plus one, so the zero
// slot is empty.
type ctxSlot struct {
	key uint64
	id  int32
	ctr uint8
}

// ctxSlots is the process-wide pool of context tables.
var ctxSlots reuse.Pool[ctxSlot]

// lookup returns the counter of context (id, key), inserting it weakly
// not-taken, as the predictors start, when fresh.
func (t *ctxTable) lookup(id int32, key uint64) (ctr *uint8, fresh bool) {
	if 2*(t.used+1) > len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := ctxHash(id, key) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.id == id+1 && s.key == key {
			return &s.ctr, false
		}
		if s.id == 0 {
			*s = ctxSlot{key: key, id: id + 1, ctr: 1}
			t.used++
			return &s.ctr, true
		}
	}
}

func (t *ctxTable) grow() {
	old := t.slots
	t.slots = ctxSlots.Get(max(1024, 2*len(old)))
	clear(t.slots)
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.id == 0 {
			continue
		}
		i := ctxHash(s.id-1, s.key) & mask
		for t.slots[i].id != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
	ctxSlots.Put(old)
}

// ctxHash spreads a context over the table: the path key is already
// mixed, and an odd multiple of the id keeps ids apart at depth 0,
// where every branch shares one key.
func ctxHash(id int32, key uint64) uint64 {
	return key ^ uint64(id)*0x9e3779b97f4a7c15
}

// pathKey combines the exact (uncompressed 30-bit-per-target) path prefix
// of depth d into a collision-resistant 64-bit key.
func pathKey(hs *vlp.HashSet, d int) uint64 {
	h := xrand.Mix64(uint64(d))
	for j := 0; j < d; j++ {
		h = xrand.Mix64(h ^ uint64(hs.Target(j)))
	}
	return h
}

// BestDepthIndex returns the index of the smallest depth whose accuracy is
// within tolerance of the curve's maximum — the branch's *sufficient* path
// depth: deeper prefixes carry no more usable information, only training
// cost.
func (b *BranchCurve) BestDepthIndex(depths []int, tolerance float64) int {
	best := 0.0
	for i := range depths {
		if a := b.Accuracy(i); a > best {
			best = a
		}
	}
	for i := range depths {
		if b.Accuracy(i) >= best-tolerance {
			return i
		}
	}
	return 0
}

// SufficientDepthHistogram buckets the report's branches by their
// sufficient depth (tolerance 0.01), weighting each branch by its dynamic
// execution count. The result is the Evers-style "how much path
// information is needed" distribution.
func (r *Report) SufficientDepthHistogram() (depths []int, weight []float64) {
	depths = r.Depths
	weight = make([]float64, len(depths))
	var total float64
	for _, b := range r.Branches {
		i := b.BestDepthIndex(depths, 0.01)
		weight[i] += float64(b.Executed)
		total += float64(b.Executed)
	}
	if total > 0 {
		for i := range weight {
			weight[i] = 100 * weight[i] / total
		}
	}
	return depths, weight
}

// MeanAccuracyAt returns the execution-weighted mean ideal accuracy at
// each configured depth.
func (r *Report) MeanAccuracyAt() []float64 {
	out := make([]float64, len(r.Depths))
	var total float64
	for _, b := range r.Branches {
		for i := range r.Depths {
			out[i] += float64(b.Correct[i])
		}
		total += float64(b.Executed)
	}
	if total > 0 {
		for i := range out {
			out[i] /= total
		}
	}
	return out
}
