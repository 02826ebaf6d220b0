package profile

import (
	"repro/internal/arch"
	"repro/internal/bpred/varhist"
	"repro/internal/trace"
)

// PatternCond runs the two-step heuristic over *pattern* history lengths
// — the number of global outcome bits a gshare-style index uses — instead
// of path lengths. This profiles the elastic-history predictor of
// Tarlescu et al. (paper citation [21], internal/bpred/varhist) with
// exactly the methodology of §3.5, letting the ablations compare
// variable-length pattern history against variable length paths on equal
// footing. It is the path heuristic's input, drivers and ranking with
// the pattern class's kernels: step 1 replays one gshare-style table per
// candidate bit count, and step 2 replays the varhist predictor's table
// and update order.
//
// cfg.Lengths holds strictly ascending candidate history bit counts in
// 0..TableBits (0 = bimodal); nil means 0..TableBits. TableBits is at
// most 30. cfg.MaxPath is ignored.
func PatternCond(src trace.Source, cfg Config) (*PatternProfile, Step1Result, error) {
	return newInputOf(src).PatternCond(cfg)
}

// PatternCond is the package-level PatternCond on the input.
func (in *Input) PatternCond(cfg Config) (*PatternProfile, Step1Result, error) {
	bits, agg, err := in.twoStep(cfg, condPattern)
	if err != nil {
		return nil, Step1Result{}, err
	}
	return &PatternProfile{TableBits: cfg.TableBits, Bits: bits, Default: agg.BestLength()}, agg, nil
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
