package profile

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/bpred/counter"
	"repro/internal/bpred/varhist"
	"repro/internal/obs"
	"repro/internal/trace"
)

// PatternCond runs the two-step heuristic over *pattern* history lengths
// — the number of global outcome bits a gshare-style index uses — instead
// of path lengths. This profiles the elastic-history predictor of
// Tarlescu et al. (paper citation [21], internal/bpred/varhist) with
// exactly the methodology of §3.5, letting the ablations compare
// variable-length pattern history against variable length paths on equal
// footing.
//
// cfg.Lengths holds candidate history bit counts (0 = bimodal); nil means
// 0..TableBits. cfg.MaxPath is ignored.
func PatternCond(src trace.Source, cfg Config) (*PatternProfile, Step1Result, error) {
	if cfg.TableBits < 1 || cfg.TableBits > 30 {
		return nil, Step1Result{}, fmt.Errorf("profile: table bits %d out of range", cfg.TableBits)
	}
	lengths := cfg.Lengths
	if lengths == nil {
		lengths = make([]int, cfg.TableBits+1)
		for i := range lengths {
			lengths[i] = i
		}
	}
	if len(lengths) > maxLengths {
		return nil, Step1Result{}, fmt.Errorf("profile: %d candidate history lengths, at most %d", len(lengths), maxLengths)
	}
	for _, l := range lengths {
		if l < 0 || l > int(cfg.TableBits) {
			return nil, Step1Result{}, fmt.Errorf("profile: history bits %d out of range 0..%d", l, cfg.TableBits)
		}
	}
	if cfg.candidates() < 1 || cfg.iterations() < cfg.candidates() {
		return nil, Step1Result{}, fmt.Errorf("profile: %d iterations cannot test %d candidates",
			cfg.iterations(), cfg.candidates())
	}
	k := cfg.TableBits

	// --- Step 1: one table per candidate history length. ---
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
			if bits == 0 {
				h = 0
			}
			idx := int((bpred.PCBits(r.PC) ^ h) & mask)
			if tables[i].Taken(idx) == r.Taken {
				counts[i]++
				agg.Correct[i]++
			}
			tables[i].Train(idx, r.Taken)
		}
		hist.Push(r.Taken)
	}
	obs.CountBranches(agg.Total)
	tables = nil

	candidates := map[arch.Addr][]int{}
	for pc, counts := range perPC {
		candidates[pc] = topCandidates(lengths, counts, cfg.candidates())
	}
	def := agg.BestLength()

	// --- Step 2: iterate the shared-table simulation. ---
	record := map[arch.Addr][]int64{}
	for pc, cands := range candidates {
		record[pc] = make([]int64, len(cands))
	}
	assign := make(map[arch.Addr]int, len(candidates))
	for iter := 0; iter < cfg.iterations(); iter++ {
		chosenIdx := map[arch.Addr]int{}
		for pc, cands := range candidates {
			ci := argmin(record[pc])
			chosenIdx[pc] = ci
			assign[pc] = cands[ci]
		}
		misses := simulatePatternVarhist(src, k, assign, def)
		for pc, m := range misses {
			if ci, ok := chosenIdx[pc]; ok {
				record[pc][ci] = m
			}
		}
		for pc, ci := range chosenIdx {
			if _, executed := misses[pc]; !executed {
				record[pc][ci] = 0
			}
		}
	}
	final := make(map[arch.Addr]int, len(candidates))
	for pc, cands := range candidates {
		final[pc] = cands[argmin(record[pc])]
	}
	return &PatternProfile{TableBits: k, Bits: final, Default: def}, agg, nil
}

func simulatePatternVarhist(src trace.Source, k uint, assign map[arch.Addr]int, def int) map[arch.Addr]int64 {
	sel := &varhist.PerBranch{Bits_: assign, Default: def}
	p, err := varhist.NewBits(k, sel)
	if err != nil {
		panic(err)
	}
	misses := map[arch.Addr]int64{}
	var scored int64
	src.Reset()
	var r trace.Record
	for src.Next(&r) {
		if r.Kind == arch.Cond {
			scored++
			if p.Predict(r.PC) != r.Taken {
				misses[r.PC]++
			} else if _, ok := misses[r.PC]; !ok {
				misses[r.PC] = 0
			}
		}
		p.Update(r)
	}
	obs.CountBranches(scored)
	return misses
}

// PatternProfile is the elastic-history counterpart of Profile: per-branch
// pattern history bit counts.
type PatternProfile struct {
	TableBits uint              `json:"table_bits"`
	Bits      map[arch.Addr]int `json:"bits"`
	Default   int               `json:"default"`
}

// Selector returns the varhist selector realising this profile.
func (p *PatternProfile) Selector() *varhist.PerBranch {
	return &varhist.PerBranch{Bits_: p.Bits, Default: p.Default}
}
