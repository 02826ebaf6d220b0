package experiments

import (
	"context"
)

// AblationAdaptivity lays out the §2 design space of history-length
// adaptivity on one axis:
//
//	gshare                 — fixed-length pattern history
//	DHLF [12]              — per-phase pattern length, chosen by hardware
//	elastic pattern [21]   — per-branch pattern length, chosen by profiling
//	fixed length path      — fixed-length path history
//	variable length path   — per-branch path length, chosen by profiling
//
// The paper's thesis decomposes into two deltas this table exposes: path
// beats pattern at equal adaptivity, and per-branch selection beats fixed
// at equal history kind.
func (s *Suite) AblationAdaptivity(ctx context.Context) (*Report, error) {
	return s.gridReport(ctx, "ablation-adaptivity",
		"Extension: the history-length adaptivity spectrum (paper §2), conditional 16KB")
}
