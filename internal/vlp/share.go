package vlp

import (
	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/trace"
)

// This file implements path-history sharing for fused predictor
// columns. A HashSet's state is a pure function of its configuration
// (index width k, THB depth, which record kinds insert) and the target
// stream it has observed — it does not depend on the predictor table,
// the selector, or the path lengths read from it. So when a column
// evaluates several path predictors at the same table size (Table 2's
// lengths, Figure 9's FLP/tuned/VLP trio), their HashSets march through
// identical states and the per-record Insert — the dominant cost of a
// path predictor's Update — can be done once for the whole group
// instead of once per member.
//
// The sharing protocol matches the hardware ordering the solo predictor
// implements: a branch's counter is trained from pre-branch history,
// and only then does the branch's target enter the THB. In a fused
// column the group's members are stepped first (each trains from the
// shared pre-insert registers) and a trailing PathObserver performs the
// single Insert, so every member sees exactly the HashSet states of its
// solo run and predicts bit-identically.

// HistoryKey identifies a path-history configuration. Predictors whose
// keys are equal observe identical HashSet state over any record stream
// and may share one HashSet.
type HistoryKey struct {
	K            uint
	MaxPath      int
	StoreReturns bool
}

// HistoryKey returns the predictor's path-history configuration and
// whether its history is shareable. The history-stack extension
// mutates the registers per predictor (snapshots on calls, restores on
// returns could diverge if members disagreed on combine depth), and an
// already-attached predictor has no history of its own to share.
func (c *Cond) HistoryKey() (HistoryKey, bool) {
	if c.opts.HistoryStack || c.extHist {
		return HistoryKey{}, false
	}
	return HistoryKey{K: c.hs.K(), MaxPath: c.hs.MaxPath(), StoreReturns: c.opts.StoreReturns}, true
}

// AttachHistory rebinds the predictor to an externally maintained
// HashSet and stops ObservePath from inserting. The caller owns
// advancing hs — exactly once per record, after every attached
// predictor has trained — and must attach only freshly built predictors
// to a freshly built HashSet, so no member starts with history another
// member has not seen.
func (c *Cond) AttachHistory(hs *HashSet) {
	c.hs = hs
	c.extHist = true
}

// PathObserver advances a shared HashSet: an update-only column
// participant (sim.ObserverJob) that performs the group's single THB
// insert per record. It implements bpred.Predictor but predicts
// nothing; its SizeBytes is zero because the shared registers replace
// the members' own, they do not add hardware.
type PathObserver struct {
	hs           *HashSet
	storeReturns bool
}

// Name implements bpred.Predictor.
func (o *PathObserver) Name() string { return "path-observer" }

// SizeBytes implements bpred.Predictor.
func (o *PathObserver) SizeBytes() int { return 0 }

// Update implements bpred.Predictor: the shared equivalent of
// Cond.ObservePath for flat (non-stack) histories.
func (o *PathObserver) Update(r trace.Record) {
	if r.Kind.RecordsInTHB() || (o.storeReturns && r.Kind == arch.Return) {
		o.hs.Insert(r.Next)
	}
}

// historySharer is the capability ShareCondHistories looks for; *Cond
// implements it, and wrappers that embed *Cond (InstrumentedCond)
// inherit it.
type historySharer interface {
	HistoryKey() (HistoryKey, bool)
	AttachHistory(hs *HashSet)
}

// SharedGroup names the members (indices into the column) that were
// attached to one shared HashSet, and the observer that advances it.
type SharedGroup struct {
	Members  []int
	Observer *PathObserver
}

// ShareCondHistories groups the freshly built predictors of a column by
// path-history configuration and rebinds each group of two or more to a
// single shared HashSet, returning one SharedGroup per rebound group in
// first-appearance order. The caller must step each group's members
// before its Observer on every record (sim.RunMany's job order does
// this when the observer job follows the member jobs) and must not
// replay any member outside the fused pass afterwards.
//
// Predictors that are not path predictors, use the history-stack
// extension, or have a unique configuration are left untouched.
func ShareCondHistories(preds []bpred.CondPredictor) []SharedGroup {
	type group struct {
		key     HistoryKey
		members []int
	}
	// First pass sizes each group so the second allocates every member
	// slice exactly once — column setup runs per benchmark replay, so
	// its allocations show up in sweep benchmarks.
	counts := map[HistoryKey]int{}
	for _, p := range preds {
		if hsr, ok := p.(historySharer); ok {
			if key, ok := hsr.HistoryKey(); ok {
				counts[key]++
			}
		}
	}
	groups := make([]*group, 0, len(counts))
	byKey := make(map[HistoryKey]*group, len(counts))
	for i, p := range preds {
		hsr, ok := p.(historySharer)
		if !ok {
			continue
		}
		key, ok := hsr.HistoryKey()
		if !ok {
			continue
		}
		g := byKey[key]
		if g == nil {
			g = &group{key: key, members: make([]int, 0, counts[key])}
			byKey[key] = g
			groups = append(groups, g)
		}
		g.members = append(g.members, i)
	}
	var shared []SharedGroup
	for _, g := range groups {
		if len(g.members) < 2 {
			continue
		}
		hs, err := NewHashSet(g.key.K, g.key.MaxPath)
		if err != nil {
			// The members were built with these exact parameters, so
			// they are known-valid; fail loudly if that ever changes.
			panic(err)
		}
		for _, i := range g.members {
			preds[i].(historySharer).AttachHistory(hs)
		}
		shared = append(shared, SharedGroup{
			Members:  g.members,
			Observer: &PathObserver{hs: hs, storeReturns: g.key.StoreReturns},
		})
	}
	return shared
}
