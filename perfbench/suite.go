package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/bpred"
	"repro/internal/engine"
	"repro/internal/engine/pool"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// paper-suite: every registry experiment through Entry.RunMeasured on a
// fresh Suite, cold, as one `paperrepro -all` run pays it. A pass is one
// whole registry; an operation is one experiment.

func suiteConfig(cfg config) experiments.Config {
	return experiments.Config{BaseRecords: cfg.base}
}

func (b *bench) suiteReport() {
	b.report["scale"] = map[string]any{"base_records": b.cfg.base, "experiments": len(experiments.Registry())}
	b.report["inputs"] = "fixed by the Suite's own profile and test inputs; --seed does not change paper-suite"
}

// suitePass runs one cold pass. Its set-up, timed apart from the
// registry run, collects the previous pass's garbage and builds a fresh
// Suite; each rendered text is checked against its recorded digest.
func (b *bench) suitePass() (pass, *experiments.Suite, error) {
	t0 := time.Now()
	runtime.GC()
	s := experiments.NewSuite(suiteConfig(b.cfg))
	b.setups = append(b.setups, time.Since(t0))
	texts := map[string]string{}
	br0 := obs.BranchTotal()
	wall, rt, err := region(func() error {
		for _, e := range experiments.Registry() {
			t0 := time.Now()
			rep, err := e.RunMeasured(b.ctx, s)
			b.latMS = append(b.latMS, ms(time.Since(t0)))
			b.attempted++
			if err != nil {
				b.failed++
				b.fail("%s: %v", e.ID, err)
				continue
			}
			texts[e.ID] = rep.Text
		}
		return nil
	})
	p := pass{wall: wall, branches: obs.BranchTotal() - br0, alloc: rt.allocBytes}
	b.checkTexts(texts)
	return p, s, err
}

// checkTexts compares rendered experiment texts with the digests
// recorded at digestBase; a mismatch, or an experiment with no recorded
// digest, fails the experiment.
func (b *bench) checkTexts(texts map[string]string) {
	got := map[string]string{}
	for id, text := range texts {
		got[id] = sha(text)
		if !b.cfg.checkDigests {
			continue
		}
		if want, ok := suiteDigests[id]; !ok || got[id] != want {
			b.failed++
			b.fail("%s: rendered text digest %s, recorded %q", id, got[id], want)
		}
	}
	b.report["digests"] = got
	b.report["digests_checked"] = b.cfg.checkDigests
}

func paperSuiteTimed(b *bench) error {
	b.suiteReport()
	return b.loop(samplesFor(0.9), func() (pass, error) {
		p, _, err := b.suitePass()
		return p, err
	})
}

// paperSuiteTraced runs one untraced cold pass, then the same work
// stage by stage — workload, profile, sim, experiments — under spans.
func paperSuiteTraced(b *bench) error {
	b.suiteReport()
	untraced, cold, err := b.suitePass()
	if err != nil {
		return err
	}
	b.setEngine(cold.Engine().Counters())

	t := newTracer(fmt.Sprintf("paper-suite/%d", b.cfg.seed))
	s := experiments.NewSuite(suiteConfig(b.cfg))
	keys := gridKeys()
	var records, simBranches int64
	texts := map[string]string{}
	r0 := readRuntime()
	root := t.begin("paper-suite", -1)
	err = func() error {
		err := t.stage("workload", root, func() error {
			var err error
			records, err = generateInputs(b.ctx, s.TestSource, s.ProfileSource)
			return err
		})
		if err != nil {
			return err
		}
		var cells []engine.Cell
		err = t.stage("profile", root, func() error {
			if err := table2Step1(b.ctx, s); err != nil {
				return err
			}
			cells, err = buildCells(b, s, keys)
			return err
		})
		if err != nil {
			return err
		}
		err = t.stage("sim", root, func() error {
			plan := engine.NewPlan()
			for _, c := range cells {
				plan.Add(c)
			}
			br0 := obs.BranchTotal()
			_, err := s.Engine().Execute(b.ctx, plan)
			simBranches = obs.BranchTotal() - br0
			return err
		})
		if err != nil {
			return err
		}
		return t.stage("experiments", root, func() error {
			for _, e := range experiments.Registry() {
				rep, err := e.RunMeasured(b.ctx, s)
				b.attempted++
				if err != nil {
					b.failed++
					b.fail("%s: %v", e.ID, err)
					continue
				}
				texts[e.ID] = rep.Text
			}
			return nil
		})
	}()
	t.end(root)
	rt := readRuntime().sub(r0)
	if err != nil {
		return err
	}
	b.checkTexts(texts)
	b.setSuiteLayers(t, s, records)
	b.setSim(stageSeconds(t.spans, "sim"), simBranches)
	b.layers["experiments.render_s"] = stageSeconds(t.spans, "experiments")
	b.setTraceTotals(t, rt, untraced.wall)
	return nil
}

// generateInputs generates every benchmark's traces from each of the
// suite's sources (TestSource, ProfileSource) across the worker pool
// and returns the record count.
func generateInputs(ctx context.Context, sources ...func(string) (trace.Source, error)) (int64, error) {
	names := workload.Names()
	var records atomic.Int64
	err := pool.ForEach(ctx, len(sources)*len(names), func(i int) error {
		src, err := sources[i/len(names)](names[i%len(names)])
		if err != nil {
			return err
		}
		records.Add(int64(src.(*trace.Buffer).Len()))
		return nil
	})
	return records.Load(), err
}

// table2Step1 runs the step-1 sweeps of Table 2 — every benchmark at
// every conditional and indirect table size — across the worker pool.
func table2Step1(ctx context.Context, s *experiments.Suite) error {
	type sweep struct {
		name     string
		indirect bool
		k        uint
	}
	var sweeps []sweep
	for _, name := range workload.Names() {
		for _, kb := range experiments.CondSizesKB {
			sweeps = append(sweeps, sweep{name, false, bpred.MustLog2Entries(kb*1024, 2)})
		}
		for _, bytes := range experiments.IndSizesBytes {
			sweeps = append(sweeps, sweep{name, true, bpred.MustLog2Entries(bytes, 32)})
		}
	}
	return pool.ForEach(ctx, len(sweeps), func(i int) error {
		_, err := s.Step1(sweeps[i].name, sweeps[i].indirect, sweeps[i].k)
		return err
	})
}

// gridKeys is the deduplicated union of every registry experiment's
// grid cells, in registry order.
func gridKeys() []engine.Key {
	seen := map[engine.Key]bool{}
	var keys []engine.Key
	for _, e := range experiments.Registry() {
		for _, k := range experiments.GridKeys(e.ID) {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	return keys
}

// buildCells rebuilds each key's cell with Suite.ColumnCell and builds
// every predictor in it once, across the worker pool, so the profiles
// the cells need are computed now rather than inside the first replay.
func buildCells(b *bench, s *experiments.Suite, keys []engine.Key) ([]engine.Cell, error) {
	cells := make([]engine.Cell, len(keys))
	err := pool.ForEach(b.ctx, len(keys), func(i int) error {
		c, err := s.ColumnCell(b.ctx, keys[i])
		if err != nil {
			return fmt.Errorf("cell %s: %w", keys[i], err)
		}
		for _, mk := range c.Cond {
			if _, err := mk(); err != nil {
				return fmt.Errorf("cell %s: %w", keys[i], err)
			}
		}
		for _, mk := range c.Indirect {
			if _, err := mk(); err != nil {
				return fmt.Errorf("cell %s: %w", keys[i], err)
			}
		}
		cells[i] = c
		return nil
	})
	return cells, err
}

// setSuiteLayers records the workload and profile stages of a traced
// run on s, with the suite's count of step-1 sweeps and profiles built.
func (b *bench) setSuiteLayers(t *tracer, s *experiments.Suite, records int64) {
	_, step1, profiles := s.ComputeCounts()
	b.layers["workload.gen_s"] = stageSeconds(t.spans, "workload")
	b.layers["workload.records"] = float64(records)
	b.layers["profile.build_s"] = stageSeconds(t.spans, "profile")
	b.layers["profile.step1_runs"] = float64(step1)
	b.layers["profile.twostep_runs"] = float64(profiles)
}

// setEngine records an engine's scheduling counters.
func (b *bench) setEngine(c engine.Counters) {
	b.layers["engine.submitted"] = float64(c.Submitted)
	b.layers["engine.executed"] = float64(c.Executed)
	b.layers["engine.deduped"] = float64(c.Deduped)
	b.layers["engine.useful_ratio"] = float64(c.Executed) / float64(c.Submitted)
}

// setSim records the replay layer's time and branch count.
func (b *bench) setSim(seconds float64, branches int64) {
	b.layers["sim.replay_s"] = seconds
	b.layers["sim.branches"] = float64(branches)
	if branches > 0 {
		b.layers["sim.ns_per_branch"] = seconds * 1e9 / float64(branches)
	}
}

// setTraceTotals records the runtime deltas over the traced work, its
// coverage (summed stage self time over the untraced wall time of the
// same work) and the tracing overhead (traced total over untraced
// total, minus one), and keeps the spans in the report.
func (b *bench) setTraceTotals(t *tracer, rt rtStats, untraced time.Duration) {
	b.layers["runtime.gc_cycles"] = float64(rt.gcCycles)
	b.layers["runtime.gc_pause_s"] = rt.gcPause
	b.layers["bench.coverage"] = coverage(t.spans, untraced)
	b.layers["bench.overhead_frac"] = t.duration(0).Seconds()/untraced.Seconds() - 1
	b.report["spans"] = spanReport(t.spans)
}

// spanReport renders spans with start and end offsets from the first
// span's start, and their self times.
func spanReport(spans []span) []map[string]any {
	self := selfTimes(spans)
	out := make([]map[string]any, len(spans))
	for i, s := range spans {
		out[i] = map[string]any{
			"name": s.Name, "run": s.Run, "parent": s.Parent,
			"start_s": s.Start.Sub(spans[0].Start).Seconds(),
			"end_s":   s.End.Sub(spans[0].Start).Seconds(),
			"self_s":  self[i].Seconds(),
		}
	}
	return out
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
