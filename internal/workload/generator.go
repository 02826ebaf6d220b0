// Package workload defines the sixteen synthetic benchmarks that stand in
// for the paper's SPECint95 and non-SPEC programs (§5.1, Table 1).
//
// Each benchmark is a control-flow graph generated from an immutable
// structure seed: functions composed of branch constructs — biased and
// correlated if-diamonds, loops with drawn trip counts, interpreter-style
// dispatch loops whose handler sequence follows a deterministic Markov
// chain, path-dependent switches, and phased virtual calls. The constructs
// instantiate the behaviour models of internal/cfg, whose deterministic
// relationships (correlation keys, transition tables) are fixed at build
// time so that the paper's profile-input/test-input methodology holds:
// running the same program with two executor seeds models two data sets.
//
// The specs are shaped after Table 1: static conditional and indirect
// branch site counts are scaled-down versions of the paper's, and the
// indirect-heavy set {m88ksim, gcc, li, perl, groff, gs, plot, python}
// carries dispatch loops dense enough to dominate its indirect dynamics.
package workload

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/xrand"
)

// Spec parameterises one synthetic benchmark.
type Spec struct {
	Name string
	// Seed fixes the program structure (not the input data).
	Seed uint64

	// Funcs is the number of functions beneath the driver.
	Funcs int
	// CondSites is the approximate number of static conditional
	// branches to generate.
	CondSites int

	// Behaviour mix for plain conditional branches (weights; they need
	// not sum to 1).
	WBias, WLoop, WPathKey, WHistKey, WPattern float64
	// BiasLo..BiasHi is the taken-probability range for biased branches
	// (a coin flips which side of 0.5 the bias lands on).
	BiasLo, BiasHi float64
	// PathDepthLo..Hi is the depth range for path-correlated branches —
	// the central knob for how much variable-length selection can win.
	PathDepthLo, PathDepthHi int
	// PathNoise flips path-correlated outcomes with this probability.
	PathNoise float64
	// HistDepthLo..Hi is the depth range for pattern-correlated branches.
	HistDepthLo, HistDepthHi int
	// LoopTripLo..Hi is the trip-count range of generated loops.
	LoopTripLo, LoopTripHi int

	// DispatchSites is the number of interpreter dispatch loops.
	DispatchSites int
	// DispatchHandlersLo..Hi is the handler fan-out per dispatch.
	DispatchHandlersLo, DispatchHandlersHi int
	// DispatchOrderLo..Hi is the Markov order of the opcode stream.
	DispatchOrderLo, DispatchOrderHi int
	// DispatchNoise replaces the deterministic next opcode with a
	// uniform draw at this rate.
	DispatchNoise float64
	// DispatchTripLo..Hi is how many dispatches run per loop entry.
	DispatchTripLo, DispatchTripHi int

	// SwitchSites is the number of path-dependent computed jumps.
	SwitchSites int
	// SwitchTargetsLo..Hi is their fan-out.
	SwitchTargetsLo, SwitchTargetsHi int
	// SwitchDepthLo..Hi is the path depth deciding the target.
	SwitchDepthLo, SwitchDepthHi int
	// SwitchNoise is their uniform-replacement rate.
	SwitchNoise float64

	// VCallSites is the number of phased indirect call sites.
	VCallSites int
	// VCallTargetsLo..Hi is their fan-out.
	VCallTargetsLo, VCallTargetsHi int
	// VCallPhase is the geometric mean phase length.
	VCallPhase int
}

func (s *Spec) check() error {
	if s.Name == "" {
		return fmt.Errorf("workload: spec has no name")
	}
	if s.Funcs < 1 {
		return fmt.Errorf("workload: %s: no functions", s.Name)
	}
	if s.CondSites < s.Funcs {
		return fmt.Errorf("workload: %s: fewer conditional sites than functions", s.Name)
	}
	return nil
}

// generator carries the in-progress build.
type generator struct {
	spec    *Spec
	rng     *xrand.RNG // structure randomness
	b       *cfg.Builder
	entries []*cfg.Block // function entry stubs
	conds   int          // conditional sites created so far

}

// chain is a single-entry/single-exit fragment: wire `in` as the entry and
// connect `out`'s open edge to the successor.
type chain struct {
	in  *cfg.Block
	out *cfg.Block // block whose TakenTo (or FallTo for calls) is open
}

// Generate builds the benchmark program. The same spec always yields the
// identical program.
func Generate(spec *Spec) (*cfg.Program, error) {
	if err := spec.check(); err != nil {
		return nil, err
	}
	g := &generator{
		spec: spec,
		rng:  xrand.New(xrand.Mix64(spec.Seed) ^ 0x57a7e), // structure-stream domain separator
		b:    cfg.NewBuilder(spec.Name, 0x10000, xrand.New(spec.Seed^0xb10c)),
	}
	return g.build()
}

func (g *generator) build() (*cfg.Program, error) {
	spec := g.spec
	// Entry stubs for every function, so call sites can reference
	// functions generated later.
	g.entries = make([]*cfg.Block, spec.Funcs)
	for i := range g.entries {
		g.entries[i] = g.b.Jump()
	}

	// Assign the indirect constructs to uniformly random functions, so a
	// partial tour of the call chain still exercises its share of them.
	perFunc := make([][]func(g *generator, f int) *chain, spec.Funcs)
	place := func(n int, ctor func(g *generator, f int) *chain) {
		for i := 0; i < n; i++ {
			// Quadratic skew toward early functions: the call chain
			// reaches them every tour, so the sites stay hot — as an
			// interpreter's dispatch loop is in real programs.
			u := g.rng.Float64()
			f := int(u * u * float64(spec.Funcs))
			if f >= spec.Funcs {
				f = spec.Funcs - 1
			}
			perFunc[f] = append(perFunc[f], ctor)
		}
	}
	place(spec.DispatchSites, (*generator).dispatchLoop)
	place(spec.SwitchSites, (*generator).pathSwitch)
	place(spec.VCallSites, (*generator).virtualCall)

	condBudget := spec.CondSites
	for f := 0; f < spec.Funcs; f++ {
		remainingFuncs := spec.Funcs - f
		// Per-function share of the remaining conditional budget.
		share := (condBudget - g.conds) / remainingFuncs
		if share < 1 {
			share = 1
		}
		quota := g.conds + share
		var frags []*chain

		for _, ctor := range perFunc[f] {
			frags = append(frags, ctor(g, f))
		}

		// Guarantee the call chain covers every function: each function
		// but the last calls the next one at least once.
		if f+1 < spec.Funcs {
			frags = append(frags, g.callSite(f+1))
			// Extra fan-out calls to random deeper functions.
			for g.rng.Bool(0.4) {
				frags = append(frags, g.callSite(g.rng.IntnRange(f+1, spec.Funcs-1)))
			}
		}

		// Fill with conditional constructs up to the quota.
		for g.conds < quota {
			frags = append(frags, g.condConstruct(f))
		}

		g.rng.Shuffle(len(frags), func(i, j int) { frags[i], frags[j] = frags[j], frags[i] })
		g.assembleFunction(f, frags)
	}

	// Driver: main loops forever calling f0.
	callMain := g.b.CallBlock()
	loop := g.b.Jump()
	callMain.TakenTo = g.entries[0].ID
	callMain.FallTo = loop.ID
	loop.TakenTo = callMain.ID

	return g.b.Finish(callMain)
}

// assembleFunction wires the fragments into a linear chain ending in a
// return, and points the function's entry stub at the first fragment.
func (g *generator) assembleFunction(f int, frags []*chain) {
	ret := g.b.ReturnBlock()
	next := ret.ID
	for i := len(frags) - 1; i >= 0; i-- {
		fr := frags[i]
		g.connect(fr.out, next)
		next = fr.in.ID
	}
	g.entries[f].TakenTo = next
}

// connect closes a fragment's open edge toward succ.
func (g *generator) connect(out *cfg.Block, succ cfg.BlockID) {
	switch {
	case out.Kind.PushesReturn():
		out.FallTo = succ
	default:
		out.TakenTo = succ
	}
}

// salt draws a build-time salt for deterministic behaviour tables.
func (g *generator) salt() uint64 { return g.rng.Uint64() }

// condBehavior draws a conditional behaviour from the spec's mix.
func (g *generator) condBehavior() cfg.CondBehavior {
	w := []float64{g.spec.WBias, g.spec.WLoop, g.spec.WPathKey, g.spec.WHistKey, g.spec.WPattern}
	switch g.rng.WeightedChoice(w) {
	case 0:
		// Cubic skew concentrates biases near BiasHi: most branches in
		// real integer code are almost always taken (or almost never),
		// and it is exactly that skew that keeps deep paths hot enough
		// for long history lengths to win at large tables (Table 2).
		u := g.rng.Float64()
		p := g.spec.BiasHi - (g.spec.BiasHi-g.spec.BiasLo)*u*u*u
		if g.rng.Bool(0.5) {
			p = 1 - p
		}
		return cfg.Bias{P: p}
	case 1:
		return g.loopBehavior()
	case 2:
		// Contexts map to taken with a strong skew (inverted for half
		// the branches): real correlated branches are still biased, so
		// an untrained table entry is usually right anyway.
		bias := 0.68 + 0.25*g.rng.Float64()
		if g.rng.Bool(0.5) {
			bias = 1 - bias
		}
		return cfg.PathKey{
			Depth: g.rng.IntnRange(g.spec.PathDepthLo, g.spec.PathDepthHi),
			Salt:  g.salt(),
			Noise: g.spec.PathNoise,
			Bias:  bias,
		}
	case 3:
		return cfg.HistKey{
			Depth: g.rng.IntnRange(g.spec.HistDepthLo, g.spec.HistDepthHi),
			Salt:  g.salt(),
			Noise: g.spec.PathNoise,
		}
	default:
		n := g.rng.IntnRange(2, 8)
		seq := make([]byte, n)
		for i := range seq {
			if g.rng.Bool(0.5) {
				seq[i] = 'T'
			} else {
				seq[i] = 'N'
			}
		}
		return cfg.Pattern{Seq: string(seq)}
	}
}

// loopBehavior draws a loop back-edge model. Real loop trip counts are
// mostly stable: half the loops here have a fixed trip count (perfectly
// learnable with enough history — the canonical long-history branch),
// a third have a heavily skewed two-trip mix, and the rest draw uniformly
// (the irreducible-entropy case).
func (g *generator) loopBehavior() cfg.CondBehavior {
	lo, hi := g.spec.LoopTripLo, g.spec.LoopTripHi
	switch {
	case g.rng.Bool(0.55):
		return cfg.Loop{Trip: g.rng.IntnRange(lo, hi)}
	case g.rng.Bool(0.75):
		return cfg.LoopMix{
			Trips:   []int{g.rng.IntnRange(lo, hi), g.rng.IntnRange(lo, hi)},
			Weights: []float64{0.9, 0.1},
		}
	default:
		return cfg.LoopMix{Trips: []int{g.rng.IntnRange(lo, hi), g.rng.IntnRange(lo, hi)}}
	}
}

// condConstruct emits either a skip-diamond or a loop.
func (g *generator) condConstruct(f int) *chain {
	if g.rng.Bool(0.25) {
		return g.loopConstruct(f)
	}
	return g.diamond(f)
}

// diamond: cond C — taken skips ahead, fall-through runs an extra block.
//
//	C --taken--> (next)
//	 \--fall--> F --> (next)
//
// Both arms converge on the successor; the fragment's open edge is F's.
// To keep a single open edge, the taken edge targets F's join jump.
func (g *generator) diamond(f int) *chain {
	c := g.b.Cond(g.condBehavior())
	g.conds++
	fall := g.b.Jump()
	join := g.b.Jump()
	c.TakenTo = join.ID
	c.FallTo = fall.ID
	fall.TakenTo = join.ID
	return &chain{in: c, out: join}
}

// loopConstruct: header H (loop-exit cond) with a small body.
//
//	H --taken--> B1 [--> B2] --> H
//	 \--fall--> (next)
//
// The header's open edge is the fall-through; since Cond blocks have both
// edges used, a join jump carries the open edge.
func (g *generator) loopConstruct(f int) *chain {
	h := g.b.Cond(g.loopBehavior())
	g.conds++
	exit := g.b.Jump()
	h.FallTo = exit.ID
	if g.rng.Bool(0.5) {
		// Tight loop: the body is straight-line code (an unconditional
		// jump, which the THB does not record), so each iteration adds
		// exactly one path element — a trip-T exit is learnable with a
		// path of length about T, the regime of the paper's Table 2.
		body := g.b.Jump()
		h.TakenTo = body.ID
		body.TakenTo = h.ID
		return &chain{in: h, out: exit}
	}
	// Loop with a conditional in the body; mostly strongly biased — a
	// volatile body branch would scramble the in-loop path and keep the
	// header's iteration count unlearnable by any path history.
	var bodyBehavior cfg.CondBehavior
	if g.rng.Bool(0.7) {
		p := 0.92 + 0.079*g.rng.Float64()
		if g.rng.Bool(0.5) {
			p = 1 - p
		}
		bodyBehavior = cfg.Bias{P: p}
	} else {
		bodyBehavior = g.condBehavior()
	}
	body := g.b.Cond(bodyBehavior)
	g.conds++
	bodyJoin := g.b.Jump()
	h.TakenTo = body.ID
	body.TakenTo = bodyJoin.ID
	body.FallTo = bodyJoin.ID
	bodyJoin.TakenTo = h.ID
	return &chain{in: h, out: exit}
}

// dispatchLoop: an interpreter core.
//
//	H --taken--> S --(markov)--> handler_i --> [cond?] --> H
//	 \--fall--> (next)
func (g *generator) dispatchLoop(f int) *chain {
	spec := g.spec
	h := g.b.Cond(cfg.LoopMix{Trips: []int{
		g.rng.IntnRange(spec.DispatchTripLo, spec.DispatchTripHi),
		g.rng.IntnRange(spec.DispatchTripLo, spec.DispatchTripHi),
	}})
	g.conds++
	order := g.rng.IntnRange(spec.DispatchOrderLo, spec.DispatchOrderHi)
	s := g.b.IndirectBlock(cfg.MarkovTargets{
		Order: order,
		Salt:  g.salt(),
		Noise: spec.DispatchNoise,
	})
	n := g.rng.IntnRange(spec.DispatchHandlersLo, spec.DispatchHandlersHi)
	for i := 0; i < n; i++ {
		if g.rng.Bool(0.5) {
			// Handler with a direction branch whose outcome reveals a
			// bit of the handler identity to pattern-history schemes.
			taken := i%2 == 0
			var beh cfg.CondBehavior = cfg.AlwaysTaken{}
			if !taken {
				beh = cfg.NeverTaken{}
			}
			hb := g.b.Cond(beh)
			g.conds++
			join := g.b.Jump()
			hb.TakenTo = join.ID
			hb.FallTo = join.ID
			join.TakenTo = h.ID
			s.Targets = append(s.Targets, hb.ID)
		} else {
			hb := g.b.Jump()
			hb.TakenTo = h.ID
			s.Targets = append(s.Targets, hb.ID)
		}
	}
	exit := g.b.Jump()
	h.TakenTo = s.ID
	h.FallTo = exit.ID
	return &chain{in: h, out: exit}
}

// pathSwitch: a computed jump whose target is decided by the surrounding
// path; all cases converge. The switch sits inside a small repeat loop —
// real switch statements live in hot loops, and one execution per call-
// graph tour would leave indirect branches vanishingly rare.
//
//	H --taken--> pre --> S --case_i--> join --> H
//	 \--fall--> (next)
func (g *generator) pathSwitch(f int) *chain {
	spec := g.spec
	h := g.b.Cond(cfg.LoopMix{Trips: []int{
		g.rng.IntnRange(4, 16), g.rng.IntnRange(4, 16),
	}})
	g.conds++
	// A biased branch ahead of the switch varies the path feeding the
	// target decision; it is skewed so the switch has dominant cases,
	// as real switches do.
	pre := g.b.Cond(cfg.Bias{P: 0.85})
	g.conds++
	preJoin := g.b.Jump()
	s := g.b.IndirectBlock(cfg.PathTargets{
		Depth: g.rng.IntnRange(spec.SwitchDepthLo, spec.SwitchDepthHi),
		Salt:  g.salt(),
		Noise: spec.SwitchNoise,
	})
	join := g.b.Jump()
	n := g.rng.IntnRange(spec.SwitchTargetsLo, spec.SwitchTargetsHi)
	for i := 0; i < n; i++ {
		cb := g.b.Jump()
		cb.TakenTo = join.ID
		s.Targets = append(s.Targets, cb.ID)
	}
	exit := g.b.Jump()
	h.TakenTo = pre.ID
	h.FallTo = exit.ID
	pre.TakenTo = preJoin.ID
	pre.FallTo = preJoin.ID
	preJoin.TakenTo = s.ID
	join.TakenTo = h.ID
	return &chain{in: h, out: exit}
}

// virtualCall: an indirect call whose callee is phase-stable, targeting
// real functions deeper in the call graph (or tiny local stubs when at the
// deepest function).
func (g *generator) virtualCall(f int) *chain {
	spec := g.spec
	c := g.b.IndirectCallBlock(cfg.PhasedTargets{
		MeanPhase: spec.VCallPhase,
	})
	n := g.rng.IntnRange(spec.VCallTargetsLo, spec.VCallTargetsHi)
	for i := 0; i < n; i++ {
		if f+1 < spec.Funcs {
			c.Targets = append(c.Targets, g.entries[g.rng.IntnRange(f+1, spec.Funcs-1)].ID)
		} else {
			stub := g.b.ReturnBlock()
			c.Targets = append(c.Targets, stub.ID)
		}
	}
	return &chain{in: c, out: c}
}

// callSite: a direct call to function callee.
func (g *generator) callSite(callee int) *chain {
	c := g.b.CallBlock()
	c.TakenTo = g.entries[callee].ID
	return &chain{in: c, out: c}
}
