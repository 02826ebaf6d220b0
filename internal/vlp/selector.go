package vlp

import (
	"fmt"
	"sort"

	"repro/internal/arch"
)

// Selector chooses the hash function number (the path length N) used to
// predict each static branch (§3.4). The paper considers selection by the
// compiler (via profiling information carried in the ISA), by the
// hardware, or a combination; Fixed and PerBranch model the first, and
// Dynamic (dynsel.go) models the second.
type Selector interface {
	// Length returns the path length for the branch at pc, in 1..MaxPath
	// of the predictor it is attached to.
	Length(pc arch.Addr) int
	// Name identifies the selection policy for reports.
	Name() string
}

// Fixed selects the same path length for every branch: the fixed length
// path (FLP) predictor, which "can be selected without the aid of any
// profiling information" (§6).
type Fixed struct{ L int }

// Length implements Selector.
func (f Fixed) Length(arch.Addr) int { return f.L }

// Name implements Selector.
func (f Fixed) Name() string { return fmt.Sprintf("fixed(%d)", f.L) }

// PerBranch selects a profiled path length for each static branch, with a
// default for branches not seen during profiling: "All static branches not
// exercised during profiling are assigned the number of the hash function
// that provides the highest prediction accuracy for the branches that were
// profiled" (§3.5).
type PerBranch struct {
	// Lengths maps a static branch address to its hash function number.
	Lengths map[arch.Addr]int
	// Default is used for unprofiled branches.
	Default int
}

// Length implements Selector.
func (p *PerBranch) Length(pc arch.Addr) int {
	if l, ok := p.Lengths[pc]; ok {
		return l
	}
	return p.Default
}

// Name implements Selector.
func (p *PerBranch) Name() string {
	return fmt.Sprintf("profiled(%d branches,default %d)", len(p.Lengths), p.Default)
}

// LengthHistogram returns, for documentation and the ablation experiments,
// how many profiled branches use each path length, sorted by length.
func (p *PerBranch) LengthHistogram() (lengths, counts []int) {
	m := map[int]int{}
	for _, l := range p.Lengths {
		m[l]++
	}
	for l := range m {
		lengths = append(lengths, l)
	}
	sort.Ints(lengths)
	counts = make([]int, len(lengths))
	for i, l := range lengths {
		counts[i] = m[l]
	}
	return lengths, counts
}
