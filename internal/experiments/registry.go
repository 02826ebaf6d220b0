package experiments

import (
	"context"
	"fmt"

	"repro/internal/engine/pool"
	"repro/internal/obs"
	"repro/internal/runx"
)

// Entry describes one runnable experiment. Entries are the unit every
// execution surface shares — cmd/paperrepro's suite loop, the root
// benchmarks, and the /v1/jobs sweep worker all run registry entries —
// and since the experiments lay their predictor grids out as fused
// engine cells (grid.go), any two surfaces running the same entry at the
// same scale replay the same kernel and render identical bytes.
type Entry struct {
	ID    string
	Title string
	// Run regenerates the experiment. The receiver-first signature
	// lets the registry list method expressions directly; the context
	// carries the per-experiment deadline and cancellation.
	Run func(*Suite, context.Context) (*Report, error)
}

// RunMeasured runs the experiment bracketed by an observability span
// and attaches the measured cost — wall time, dynamic branches
// simulated across every predictor run inside it, throughput,
// allocation, GC cycles — to the report. This is how cmd/paperrepro
// and the root benchmarks execute entries; the raw Run field remains
// for callers that want the data alone.
//
// RunMeasured is also the experiment-level fault boundary: the body
// runs under recover, so a panicking experiment comes back as a
// structured *runx.PanicError instead of tearing down the sweep, and a
// canceled or expired context surfaces as that context's error even if
// the body swallowed it.
func (e Entry) RunMeasured(ctx context.Context, s *Suite) (*Report, error) {
	span := obs.StartSpan()
	// Experiments fan their (trace, column) cells out through the
	// engine's pool; pool.Cap is the process-wide ceiling.
	span.SetWorkers(pool.Cap())
	var rep *Report
	err := runx.Safe(func() error {
		var err error
		rep, err = e.Run(s, ctx)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep.Metrics = span.End()
	return rep, nil
}

// Registry lists every experiment in the order the paper presents them,
// followed by the repository's ablation studies. cmd/paperrepro iterates
// it to regenerate the full evaluation.
func Registry() []Entry {
	return []Entry{
		{"table1", "Benchmark summary (paper Table 1)", (*Suite).Table1},
		{"table2", "Fixed path length per table size (paper Table 2)", (*Suite).Table2},
		{"fig5", "Conditional, 16KB, SPEC (paper Figure 5)", (*Suite).Figure5},
		{"fig6", "Conditional, 16KB, non-SPEC (paper Figure 6)", (*Suite).Figure6},
		{"fig7", "Indirect, 2KB, SPEC (paper Figure 7)", (*Suite).Figure7},
		{"fig8", "Indirect, 2KB, non-SPEC (paper Figure 8)", (*Suite).Figure8},
		{"table3", "Indirect rates on indirect-heavy benchmarks (paper Table 3)", (*Suite).Table3},
		{"fig9", "gcc conditional vs size (paper Figure 9)", (*Suite).Figure9},
		{"fig10", "gcc indirect vs size (paper Figure 10)", (*Suite).Figure10},
		{"headline", "Abstract's gcc numbers", (*Suite).Headline},
		{"ablation-rotation", "Hash rotation ablation (paper §3.3)", (*Suite).AblationRotation},
		{"ablation-returns", "Returns-in-THB ablation (paper §3.2)", (*Suite).AblationReturns},
		{"ablation-subset", "Hash-function subset ablation (paper §3.1)", (*Suite).AblationSubset},
		{"ablation-heuristic", "Candidate/iteration count ablation (paper §3.5)", (*Suite).AblationHeuristic},
		{"ablation-hfnt", "HFNT re-prediction rates (paper §4.3)", (*Suite).AblationHFNT},
		{"ablation-dynsel", "Hardware dynamic selection (paper §3.4)", (*Suite).AblationDynSel},
		{"ablation-histstack", "History stack extension (paper §6)", (*Suite).AblationHistStack},
		{"ablation-competitors", "Wider conditional predictor field", (*Suite).AblationCompetitors},
		{"ablation-indfield", "Full indirect predictor field", (*Suite).AblationIndField},
		{"ablation-adaptivity", "History-length adaptivity spectrum (paper §2)", (*Suite).AblationAdaptivity},
		{"ablation-ras", "Return address stack hit rates (paper §5.1)", (*Suite).AblationRAS},
		{"ablation-isabits", "ISA bits for the hash number (paper §4.2)", (*Suite).AblationISABits},
		{"ablation-speedup", "Front-end cycle impact (paper §1)", (*Suite).AblationSpeedup},
		{"ablation-pathinfo", "Path information needed per branch (paper §5.3)", (*Suite).AblationPathInfo},
		{"ablation-interference", "Misprediction breakdown: cold/interference/intrinsic (paper §5.3)", (*Suite).AblationInterference},
		{"ablation-stability", "Cross-input stability of the headline comparison", (*Suite).AblationStability},
	}
}

// FaultRegistry lists synthetic fault-injection entries that exercise
// the execution layer's failure paths end to end: a panicking
// experiment body, a plain error, and a body that blocks until its
// deadline. They are addressable through Find (so
// `paperrepro -exp headline,selftest-panic` can demonstrate panic
// isolation) but excluded from Registry, so default suite runs never
// execute them.
func FaultRegistry() []Entry {
	return []Entry{
		{"selftest-panic", "Fault injection: panics mid-experiment",
			func(*Suite, context.Context) (*Report, error) {
				panic("selftest-panic: injected experiment panic")
			}},
		{"selftest-fail", "Fault injection: returns an error",
			func(*Suite, context.Context) (*Report, error) {
				return nil, fmt.Errorf("selftest-fail: injected experiment error")
			}},
		{"selftest-hang", "Fault injection: blocks until the context expires",
			func(_ *Suite, ctx context.Context) (*Report, error) {
				<-ctx.Done()
				return nil, ctx.Err()
			}},
	}
}

// Find returns the entry with the given ID, searching the registry and
// then the fault-injection entries.
func Find(id string) (Entry, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	for _, e := range FaultRegistry() {
		if e.ID == id {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
