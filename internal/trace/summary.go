package trace

import (
	"fmt"

	"repro/internal/arch"
)

// Summary aggregates the workload-characterisation statistics the paper
// reports in Table 1: dynamic and static counts of conditional and indirect
// branches (returns excluded from the indirect counts, §5.1), plus
// per-kind dynamic totals.
type Summary struct {
	// DynamicByKind counts executed branches of each kind.
	DynamicByKind [arch.NumKinds]int64
	// StaticCond and StaticIndirect count distinct branch sites.
	StaticCond     int
	StaticIndirect int
	// TakenCond counts taken conditional branches.
	TakenCond int64

	condPCs     map[arch.Addr]struct{}
	indirectPCs map[arch.Addr]struct{}
}

// NewSummary returns an empty summary ready to Observe records.
func NewSummary() *Summary {
	return &Summary{
		condPCs:     make(map[arch.Addr]struct{}),
		indirectPCs: make(map[arch.Addr]struct{}),
	}
}

// Observe folds one record into the summary.
func (s *Summary) Observe(r Record) {
	s.DynamicByKind[r.Kind]++
	switch {
	case r.Kind.Conditional():
		if _, ok := s.condPCs[r.PC]; !ok {
			s.condPCs[r.PC] = struct{}{}
			s.StaticCond++
		}
		if r.Taken {
			s.TakenCond++
		}
	case r.Kind.IndirectTarget():
		if _, ok := s.indirectPCs[r.PC]; !ok {
			s.indirectPCs[r.PC] = struct{}{}
			s.StaticIndirect++
		}
	}
}

// Summarize drains src (after resetting it) and returns its summary.
func Summarize(src Source) *Summary {
	src.Reset()
	s := NewSummary()
	var r Record
	for src.Next(&r) {
		s.Observe(r)
	}
	return s
}

// DynamicCond returns the number of executed conditional branches.
func (s *Summary) DynamicCond() int64 { return s.DynamicByKind[arch.Cond] }

// DynamicIndirect returns the number of executed indirect branches
// (computed jumps and indirect calls; returns excluded).
func (s *Summary) DynamicIndirect() int64 {
	return s.DynamicByKind[arch.Indirect] + s.DynamicByKind[arch.IndirectCall]
}

// DynamicTotal returns the number of executed branches of all kinds.
func (s *Summary) DynamicTotal() int64 {
	var t int64
	for _, v := range s.DynamicByKind {
		t += v
	}
	return t
}

// TakenRate returns the fraction of conditional branches that were taken,
// or 0 if none executed.
func (s *Summary) TakenRate() float64 {
	if n := s.DynamicCond(); n > 0 {
		return float64(s.TakenCond) / float64(n)
	}
	return 0
}

// String renders the summary in the shape of one row of the paper's
// Table 1.
func (s *Summary) String() string {
	return fmt.Sprintf("cond: %d dynamic / %d static; indirect: %d dynamic / %d static",
		s.DynamicCond(), s.StaticCond, s.DynamicIndirect(), s.StaticIndirect)
}
