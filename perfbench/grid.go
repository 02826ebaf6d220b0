package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/pool"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// replay-grid: the deduplicated union of every experiment's grid cells,
// replayed on a fresh engine per pass over held-out test inputs. Set-up
// generates the traces and builds the cells (the profiling); a pass
// does replay only. An operation is one cell, submitted as a one-cell
// plan to Engine.Execute by cfg.workers submitters, as the sweep
// service's cell jobs are.

// grid is one set-up's product: the cells and the traces they replay.
type grid struct {
	keys   []engine.Key
	cells  []engine.Cell
	traces map[string][]trace.Record
	// records counts every record generated for the set-up: the
	// held-out test traces and the suite's profile inputs.
	records int64
}

func (g *grid) source(name string) (trace.Source, error) {
	recs, ok := g.traces[name]
	if !ok {
		return nil, fmt.Errorf("no trace for %q", name)
	}
	return trace.NewBuffer(recs), nil
}

// gridSetup generates the held-out test traces (input 2+seed) of every
// benchmark a cell replays, then builds every cell on a fresh Suite,
// which profiles on the Suite's profile inputs. With a tracer the two
// stages are recorded as spans under parent.
func (b *bench) gridSetup(t *tracer, parent int) (*grid, *experiments.Suite, error) {
	g := &grid{keys: gridKeys(), traces: map[string][]trace.Record{}}
	s := experiments.NewSuite(suiteConfig(b.cfg))
	err := t.stage("workload", parent, func() error {
		var names []string
		for _, k := range g.keys {
			if _, ok := g.traces[k.Trace]; !ok {
				g.traces[k.Trace] = nil
				names = append(names, k.Trace)
			}
		}
		test := make([][]trace.Record, len(names))
		err := pool.ForEach(b.ctx, len(names), func(i int) error {
			wb, err := workload.ByName(names[i])
			if err != nil {
				return err
			}
			test[i] = trace.Collect(wb.InputSource(b.cfg.base, 2+b.cfg.seed)).Records
			return nil
		})
		if err != nil {
			return err
		}
		for i, name := range names {
			g.traces[name] = test[i]
			g.records += int64(len(test[i]))
		}
		n, err := generateInputs(b.ctx, s.ProfileSource)
		g.records += n
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	err = t.stage("profile", parent, func() error {
		var err error
		g.cells, err = buildCells(b, s, g.keys)
		return err
	})
	return g, s, err
}

// gridReplay replays every cell on a fresh engine and returns the
// rates in key order with each cell's latency in milliseconds.
func (b *bench) gridReplay(g *grid) ([][]float64, []float64, engine.Counters, error) {
	eng := engine.New(engine.Config{Source: g.source})
	rates := make([][]float64, len(g.cells))
	lat := make([]float64, len(g.cells))
	err := pool.ForEach(b.ctx, len(g.cells), func(i int) error {
		plan := engine.NewPlan()
		plan.Add(g.cells[i])
		t0 := time.Now()
		out, err := eng.Execute(b.ctx, plan)
		lat[i] = ms(time.Since(t0))
		if err != nil {
			return err
		}
		rates[i] = out[0]
		return nil
	})
	return rates, lat, eng.Counters(), err
}

// gridPass is gridReplay as a measured region.
func (b *bench) gridPass(g *grid) (pass, [][]float64, []float64, error) {
	var rates [][]float64
	var lat []float64
	br0 := obs.BranchTotal()
	wall, rt, err := region(func() error {
		var err error
		rates, lat, _, err = b.gridReplay(g)
		return err
	})
	return pass{wall: wall, branches: obs.BranchTotal() - br0, alloc: rt.allocBytes}, rates, lat, err
}

// checkRates fails every cell whose rates differ from the warm-up
// pass's.
func (b *bench) checkRates(g *grid, want, got [][]float64) {
	for i := range g.keys {
		b.attempted++
		if !equalRates(want[i], got[i]) {
			b.failed++
			b.fail("cell %s: rates %v, warm-up pass gave %v", g.keys[i], got[i], want[i])
		}
	}
}

func equalRates(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ratesDigest hashes every cell key with its rates, printed in full
// precision.
func ratesDigest(keys []engine.Key, rates [][]float64) string {
	h := sha256.New()
	for i, k := range keys {
		fmt.Fprint(h, k.String())
		for _, r := range rates[i] {
			fmt.Fprint(h, " ", strconv.FormatFloat(r, 'g', -1, 64))
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkReference replays every cell once more on an engine routed
// through the sequential per-predictor path (engine.Config.PerCell),
// the repository's reference for the fused kernel, and fails every cell
// whose warm-up rates differ from it. It runs untimed, after set-up.
func (b *bench) checkReference(g *grid, warm [][]float64) error {
	eng := engine.New(engine.Config{Source: g.source, PerCell: true})
	plan := engine.NewPlan()
	for _, c := range g.cells {
		plan.Add(c)
	}
	ref, err := eng.Execute(b.ctx, plan)
	if err != nil {
		return fmt.Errorf("per-cell reference: %w", err)
	}
	for i, k := range g.keys {
		if !equalRates(ref[i], warm[i]) {
			b.failed++
			b.fail("cell %s: rates %v, per-cell reference gave %v", k, warm[i], ref[i])
		}
	}
	b.report["reference"] = "per-cell engine (engine.Config.PerCell)"
	return nil
}

// checkGridDigest compares the warm-up rates with the digest recorded
// for this seed, where one is recorded; every seed is checked against
// the per-cell reference whether or not it has a digest.
func (b *bench) checkGridDigest(g *grid, rates [][]float64) {
	got := ratesDigest(g.keys, rates)
	b.report["rates_digest"] = got
	want, recorded := gridDigests[b.cfg.seed]
	recorded = recorded && b.cfg.checkDigests
	b.report["rates_digest_checked"] = recorded
	if recorded && got != want {
		b.failed++
		b.fail("replay-grid rates digest %s, recorded %s", got, want)
	}
}

// checkWarmup runs both gates on the warm-up pass's rates.
func (b *bench) checkWarmup(g *grid, warm [][]float64) error {
	if err := b.checkReference(g, warm); err != nil {
		return err
	}
	b.checkGridDigest(g, warm)
	return nil
}

func (b *bench) gridReport(g *grid) {
	b.report["scale"] = map[string]any{
		"base_records": b.cfg.base, "cells": len(g.keys),
		"test_input": fmt.Sprintf("Benchmark.InputSource(base, 2+%d)", b.cfg.seed),
	}
	b.settings["untimed_warmup_pass"] = true
}

func replayGridTimed(b *bench) error {
	var g *grid
	for i := 0; i < b.cfg.setups; i++ {
		g = nil // let the previous set-up's suite be collected first
		setup, _, err := region(func() error {
			var err error
			g, _, err = b.gridSetup(nil, -1)
			return err
		})
		if err != nil {
			return err
		}
		b.setups = append(b.setups, setup)
	}
	b.gridReport(g)
	_, warm, _, err := b.gridPass(g)
	if err != nil {
		return err
	}
	if err := b.checkWarmup(g, warm); err != nil {
		return err
	}
	return b.loop(samplesFor(0.9), func() (pass, error) {
		p, rates, lat, err := b.gridPass(g)
		if err == nil {
			b.latMS = append(b.latMS, lat...)
			b.checkRates(g, warm, rates)
		}
		return p, err
	})
}

// replayGridTraced times one untraced set-up and pass, then repeats
// both stage by stage under spans: workload, profile, sim.
func replayGridTraced(b *bench) error {
	var g *grid
	setup, _, err := region(func() error {
		var err error
		g, _, err = b.gridSetup(nil, -1)
		return err
	})
	if err != nil {
		return err
	}
	b.gridReport(g)
	untraced, warm, _, err := b.gridPass(g)
	if err != nil {
		return err
	}
	if err := b.checkWarmup(g, warm); err != nil {
		return err
	}

	g = nil
	runtime.GC()
	t := newTracer(fmt.Sprintf("replay-grid/%d", b.cfg.seed))
	r0 := readRuntime()
	root := t.begin("replay-grid", -1)
	var s *experiments.Suite
	g, s, err = b.gridSetup(t, root)
	var rates [][]float64
	var counters engine.Counters
	var simBranches int64
	if err == nil {
		err = t.stage("sim", root, func() error {
			br0 := obs.BranchTotal()
			var err error
			rates, _, counters, err = b.gridReplay(g)
			simBranches = obs.BranchTotal() - br0
			return err
		})
	}
	t.end(root)
	rt := readRuntime().sub(r0)
	if err != nil {
		return err
	}
	b.checkRates(g, warm, rates)
	b.setSuiteLayers(t, s, g.records)
	b.setEngine(counters)
	b.setSim(stageSeconds(t.spans, "sim"), simBranches)
	b.setTraceTotals(t, rt, setup+untraced.wall)
	return nil
}
