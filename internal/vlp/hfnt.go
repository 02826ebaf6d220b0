package vlp

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/reuse"
	"repro/internal/trace"
)

// HFNT models the Hash Function Number Table of §4.3. The variable length
// path predictor needs two sequential table accesses — first look up the
// branch's hash function number, then use the selected index to access the
// predictor table — so the HFNT caches a *prediction* of the hash function
// number, indexed by the low branch-address bits. When the branch is
// decoded the actual number (from the opcode / profile) is compared with
// the predicted one; on a mismatch the branch is re-predicted with the
// actual number and the HFNT is corrected at retire.
//
// The model wraps a Cond predictor. Final prediction accuracy is identical
// to the wrapped predictor's — a mismatch costs a re-prediction bubble,
// not a wrong direction — so the interesting output is the re-prediction
// rate, which the ablation experiments report.
type HFNT struct {
	inner   *Cond
	entries []uint8
	mask    uint64

	// Lookups counts conditional predictions made; Repredicts counts
	// those whose HFNT entry disagreed with the actual hash number.
	Lookups    int64
	Repredicts int64
}

// NewHFNT wraps inner with a 2^j-entry hash function number table.
func NewHFNT(inner *Cond, j uint) (*HFNT, error) {
	if j < 1 || j > 30 {
		return nil, fmt.Errorf("vlp: HFNT index width %d out of range", j)
	}
	h := &HFNT{
		inner:   inner,
		entries: reuse.Uint8.Zeroed(1 << j),
		mask:    1<<j - 1,
	}
	// Entries start at the selector's notion of a default (use length 1
	// slots zeroed; 0 is interpreted as "predict length from entry+1"
	// being 1, a harmless cold-start choice).
	return h, nil
}

// Name implements bpred.CondPredictor.
func (h *HFNT) Name() string { return "hfnt+" + h.inner.Name() }

// Release implements bpred.Releaser: the HFNT and the wrapped
// predictor, which it owns once it is built. Lookups and Repredicts
// stay readable.
func (h *HFNT) Release() {
	h.inner.Release()
	reuse.Uint8.Put(h.entries)
	h.entries = nil
}

// SizeBytes implements bpred.CondPredictor: the wrapped predictor table
// plus one 5-bit hash function number per HFNT entry (enough for the
// paper's 32 hash functions), rounded up to bytes.
func (h *HFNT) SizeBytes() int {
	return h.inner.SizeBytes() + (len(h.entries)*5+7)/8
}

func (h *HFNT) slot(pc arch.Addr) int { return int(bpred.PCBits(pc) & h.mask) }

// PredictedLength returns the hash function number the HFNT currently
// predicts for pc.
func (h *HFNT) PredictedLength(pc arch.Addr) int { return int(h.entries[h.slot(pc)]) + 1 }

// Predict implements bpred.CondPredictor. It performs the two-cycle
// pipelined lookup: predict the hash number from the HFNT, and if decode
// reveals a different actual number, re-predict (counted in Repredicts).
func (h *HFNT) Predict(pc arch.Addr) bool {
	h.Lookups++
	predicted := h.PredictedLength(pc)
	actual := h.inner.sel.Length(pc)
	if predicted != actual {
		h.Repredicts++
	}
	// The final prediction always uses the actual number, as in §4.3:
	// "If the two numbers are not equal, the branch is re-predicted
	// using the actual hash function number."
	return h.inner.Predict(pc)
}

// Update implements bpred.CondPredictor: the wrapped predictor trains as
// usual, and "the hash function number for the branch is written into the
// HFNT when the branch retires".
func (h *HFNT) Update(r trace.Record) {
	if r.Kind == arch.Cond {
		h.entries[h.slot(r.PC)] = uint8(h.inner.sel.Length(r.PC) - 1)
	}
	h.inner.Update(r)
}

// RepredictRate returns the fraction of predictions that needed the
// two-cycle re-predict path.
func (h *HFNT) RepredictRate() float64 {
	if h.Lookups == 0 {
		return 0
	}
	return float64(h.Repredicts) / float64(h.Lookups)
}
