// Package bpred defines the predictor interfaces shared by every branch
// predictor in the repository, along with hardware-budget bookkeeping.
//
// Predictors are trace-driven, as in the paper's ATOM methodology (§5.1):
// the simulator asks for a prediction when a branch is fetched, then feeds
// the resolved record back in program order. Every predictor observes the
// full retired-branch stream through Update, because different schemes draw
// their first-level history from different record kinds (gshare needs only
// conditional outcomes; the path predictors also consume indirect branch
// targets).
package bpred

import (
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/trace"
)

// Predictor is the class-independent core every predictor implements:
// identity, training, and hardware accounting. The per-class interfaces
// embed it and add only their prediction signature, so code that drives,
// sizes, or reports on predictors — the simulation loop, the factory, the
// observability layer — can be written once against this interface.
type Predictor interface {
	// Name identifies the configuration for reports, e.g. "gshare-16KB".
	Name() string
	// Update observes one retired branch of any kind, in program order.
	// For a record of the predictor's own class it trains with the
	// outcome; records of other kinds feed history (or are ignored).
	Update(r trace.Record)
	// SizeBytes reports the hardware budget consumed by the predictor's
	// second-level table(s), the quantity the paper's size axes use.
	SizeBytes() int
}

// StateCodec is the optional checkpoint surface of a predictor: a
// predictor that implements it can externalize its mutable state —
// counter tables, history registers, THB contents — and later be
// restored to exactly that state. The contract is bit-identity: after
//
//	p.SaveState(w); q.LoadState(r)
//
// where q was built with the same configuration as p, q must predict
// identically to p on every future record. Configuration itself (table
// sizes, index widths, selectors, profiles) is NOT part of the encoded
// state; the snapshot container (internal/snap) records the factory
// spec alongside the state bytes and refuses to restore into a
// predictor built from a different spec.
//
// SaveState writes only to w and must not mutate the predictor.
// LoadState must validate everything it reads — lengths, value ranges,
// history bits beyond the register mask — and reject damaged input
// with an error classified under state.ErrCorrupt rather than loading
// it partially or panicking; on error the predictor may be left in an
// unspecified state and must be discarded.
type StateCodec interface {
	SaveState(w io.Writer) error
	LoadState(r io.Reader) error
}

// Releaser is implemented by every predictor whose constructor takes
// its tables from the process-wide pool (internal/reuse). Release hands
// them back for the next predictor to reuse; the predictor must not be
// used afterwards. Whoever owns a predictor releases it once it is done
// with it: the engine for the cells it builds, any other caller for the
// predictors it keeps. Releasing is optional — a predictor that is never
// released is collected as usual — and releasing twice is harmless.
type Releaser interface {
	Release()
}

// Release releases p if it implements Releaser.
func Release(p Predictor) {
	if r, ok := p.(Releaser); ok {
		r.Release()
	}
}

// CondPredictor predicts conditional branch directions.
type CondPredictor interface {
	Predictor
	// Predict returns the predicted direction of the conditional branch
	// at pc, given all previously observed records.
	Predict(pc arch.Addr) bool
}

// IndirectPredictor predicts the targets of indirect (computed) branches.
// Returns are excluded, matching the paper (§5.1).
type IndirectPredictor interface {
	Predictor
	// Predict returns the predicted target of the indirect branch at pc.
	Predict(pc arch.Addr) arch.Addr
}

// CondStepper is an optional fast path for conditional predictors driven
// by the fused replay kernel (sim.RunMany): one call replays a whole
// record — score it if it is a conditional branch, then apply Update —
// so implementations can compute their table index once instead of once
// in Predict and again in Update, and the driver pays one dynamic
// dispatch per record instead of two.
//
// StepCond must be observably identical to
//
//	scored = r.Kind == arch.Cond
//	if scored { correct = Predict(r.PC) == r.Taken }
//	Update(r)
//
// including every side effect, so a predictor driven through either
// surface produces bit-identical rates. The differential tests in
// sim pin the two paths together for the predictors that implement it.
// A type that wraps or embeds a CondStepper and changes Update's
// behaviour must shadow StepCond to match.
type CondStepper interface {
	StepCond(r trace.Record) (scored, correct bool)
}

// Log2Entries converts a table budget in bytes into a power-of-two entry
// count for entries of the given width in bits, returning the index width
// k (the table holds 1<<k entries). It errors if the budget does not yield
// a positive power-of-two entry count, mirroring how the paper's size axes
// (1, 4, 16, ... KB) always describe power-of-two tables.
func Log2Entries(budgetBytes int, entryBits int) (k uint, err error) {
	if budgetBytes <= 0 {
		return 0, fmt.Errorf("bpred: non-positive budget %d bytes", budgetBytes)
	}
	if entryBits <= 0 {
		return 0, fmt.Errorf("bpred: non-positive entry width %d bits", entryBits)
	}
	entries := budgetBytes * 8 / entryBits
	if entries == 0 {
		return 0, fmt.Errorf("bpred: budget %d bytes below one %d-bit entry", budgetBytes, entryBits)
	}
	for entries > 1 {
		if entries&1 != 0 {
			return 0, fmt.Errorf("bpred: budget %d bytes with %d-bit entries is not a power-of-two table", budgetBytes, entryBits)
		}
		entries >>= 1
		k++
	}
	return k, nil
}

// MustLog2Entries is Log2Entries for statically known-good configurations;
// it panics on error.
func MustLog2Entries(budgetBytes, entryBits int) uint {
	k, err := Log2Entries(budgetBytes, entryBits)
	if err != nil {
		panic(err)
	}
	return k
}

// PCBits extracts the word-address bits of pc. Instructions are 4 bytes
// wide, so the low two PC bits carry no information; every predictor in
// this repository indexes with pc>>2, the standard practice the paper's
// structures inherit from the two-level predictor literature.
func PCBits(pc arch.Addr) uint64 { return uint64(pc) >> 2 }
