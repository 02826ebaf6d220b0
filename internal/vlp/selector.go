package vlp

import (
	"errors"
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

// ErrPathLength classifies a selector that names a path length outside
// 1..MaxPath of the predictor it is attached to; the constructors reject
// it up front instead of HashSet.Index panicking mid-replay.
var ErrPathLength = errors.New("vlp: path length out of range")

// checkSelector validates the lengths a Fixed or PerBranch selector can
// return against a THB of depth maxPath. Other selectors check their own
// lengths at construction.
func checkSelector(sel Selector, maxPath int) error {
	bad := func(l int) bool { return l < 1 || l > maxPath }
	switch sel := sel.(type) {
	case Fixed:
		if bad(sel.L) {
			return fmt.Errorf("%w: fixed length %d, want 1..%d", ErrPathLength, sel.L, maxPath)
		}
	case *PerBranch:
		if bad(sel.Default) {
			return fmt.Errorf("%w: default length %d, want 1..%d", ErrPathLength, sel.Default, maxPath)
		}
		// Report the lowest offending address, so the message is stable.
		var pc arch.Addr
		found := false
		for a, l := range sel.Lengths {
			if bad(l) && (!found || a < pc) {
				pc, found = a, true
			}
		}
		if found {
			return fmt.Errorf("%w: branch %v length %d, want 1..%d", ErrPathLength, pc, sel.Lengths[pc], maxPath)
		}
	}
	return nil
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
