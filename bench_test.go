// Package repro's root benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation (regenerating its rows or
// series each iteration and reporting the headline metric), plus
// micro-benchmarks of the predictor primitives themselves.
//
// The per-artifact benchmarks run the experiments at a reduced trace scale
// so `go test -bench=.` completes in minutes; cmd/paperrepro regenerates
// the same artifacts at full scale.
package repro

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"testing"

	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/bpred/gshare"
	"repro/internal/bpred/targetcache"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/loadgen"
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/snap"
	"repro/internal/trace"
	"repro/internal/vlp"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// benchScale keeps the per-iteration experiment runs tractable.
const benchScale = 60000

func benchSuite() *experiments.Suite {
	return experiments.NewSuite(experiments.Config{BaseRecords: benchScale})
}

// benchJSONDir, when set via the BENCH_JSON_DIR environment variable,
// makes every per-artifact benchmark write its final iteration's
// measured report as <dir>/bench_<id>.json — the same repro-bench/v1
// schema cmd/paperrepro emits, so CI's -bench smoke produces trajectory
// records. Empty (the default) disables the writes.
var benchJSONDir = os.Getenv("BENCH_JSON_DIR")

// runExperiment drives one registry entry per iteration. A fresh suite per
// iteration makes iterations independent (no memoised profiles), so ns/op
// reflects the full regeneration cost.
func runExperiment(b *testing.B, id string, metric func(*experiments.Report) float64, unit string) {
	b.Helper()
	e, err := experiments.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	var last float64
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rep, err := e.RunMeasured(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		if metric != nil {
			last = metric(rep)
		}
		if benchJSONDir != "" && i == b.N-1 {
			if _, err := rep.WriteBench(benchJSONDir, s.Cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	if metric != nil {
		b.ReportMetric(last, unit)
	}
}

// --- One benchmark per paper artifact -------------------------------------

func BenchmarkTable1(b *testing.B) {
	runExperiment(b, "table1", func(r *experiments.Report) float64 {
		res := r.Data.(*experiments.Table1Result)
		var total int64
		for _, row := range res.Rows {
			total += row.CondDynamic + row.IndirectDynamic
		}
		return float64(total)
	}, "branches")
}

func BenchmarkTable2(b *testing.B) {
	runExperiment(b, "table2", func(r *experiments.Report) float64 {
		res := r.Data.(*experiments.Table2Result)
		return float64(res.Indirect[len(res.Indirect)-1].PathLength)
	}, "best-ind-len")
}

func benchSeriesMetric(predictor string) func(*experiments.Report) float64 {
	return func(r *experiments.Report) float64 {
		series := r.Data.(*experiments.BenchSeries)
		var sum float64
		for i, p := range series.Predictors {
			if p == predictor {
				for _, v := range series.Rates[i] {
					sum += v
				}
				return sum / float64(len(series.Rates[i]))
			}
		}
		return 0
	}
}

func BenchmarkFigure5(b *testing.B) {
	runExperiment(b, "fig5", benchSeriesMetric("variable length path"), "vlp-%miss")
}

func BenchmarkFigure6(b *testing.B) {
	runExperiment(b, "fig6", benchSeriesMetric("variable length path"), "vlp-%miss")
}

func BenchmarkFigure7(b *testing.B) {
	runExperiment(b, "fig7", benchSeriesMetric("variable length path"), "vlp-%miss")
}

func BenchmarkFigure8(b *testing.B) {
	runExperiment(b, "fig8", benchSeriesMetric("variable length path"), "vlp-%miss")
}

func BenchmarkTable3(b *testing.B) {
	runExperiment(b, "table3", benchSeriesMetric("variable length path"), "vlp-%miss")
}

func BenchmarkFigure9(b *testing.B) {
	runExperiment(b, "fig9", func(r *experiments.Report) float64 {
		res := r.Data.(*experiments.SweepResult)
		v, _ := res.Rate("variable length path", 16*1024)
		return v
	}, "vlp-16KB-%miss")
}

func BenchmarkFigure10(b *testing.B) {
	runExperiment(b, "fig10", func(r *experiments.Report) float64 {
		res := r.Data.(*experiments.SweepResult)
		v, _ := res.Rate("variable length path", 2048)
		return v
	}, "vlp-2KB-%miss")
}

func BenchmarkHeadline(b *testing.B) {
	runExperiment(b, "headline", func(r *experiments.Report) float64 {
		return r.Data.(*experiments.HeadlineResult).CondVLP
	}, "gcc-4KB-%miss")
}

// --- Predictor micro-benchmarks -------------------------------------------

// benchTrace materialises one gcc test trace for the throughput benches.
func benchTrace(b *testing.B) *trace.Buffer {
	b.Helper()
	bench, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	return trace.Collect(bench.TestSource(benchScale))
}

func BenchmarkGshareLookupUpdate(b *testing.B) {
	buf := benchTrace(b)
	p, err := gshare.New(16 * 1024)
	if err != nil {
		b.Fatal(err)
	}
	recs := buf.Records
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := recs[i%len(recs)]
		if r.Kind == arch.Cond {
			_ = p.Predict(r.PC)
		}
		p.Update(r)
	}
}

func BenchmarkVLPCondLookupUpdate(b *testing.B) {
	buf := benchTrace(b)
	p, err := vlp.NewCond(16*1024, vlp.Fixed{L: 8}, vlp.Options{})
	if err != nil {
		b.Fatal(err)
	}
	recs := buf.Records
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := recs[i%len(recs)]
		if r.Kind == arch.Cond {
			_ = p.Predict(r.PC)
		}
		p.Update(r)
	}
}

func BenchmarkVLPIndirectLookupUpdate(b *testing.B) {
	buf := benchTrace(b)
	p, err := vlp.NewIndirect(2048, vlp.Fixed{L: 8}, vlp.Options{})
	if err != nil {
		b.Fatal(err)
	}
	recs := buf.Records
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := recs[i%len(recs)]
		if r.Kind.IndirectTarget() {
			_ = p.Predict(r.PC)
		}
		p.Update(r)
	}
}

func BenchmarkTargetCachePath(b *testing.B) {
	buf := benchTrace(b)
	p, err := targetcache.NewPathBudget(2048)
	if err != nil {
		b.Fatal(err)
	}
	recs := buf.Records
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := recs[i%len(recs)]
		if r.Kind.IndirectTarget() {
			_ = p.Predict(r.PC)
		}
		p.Update(r)
	}
}

// BenchmarkHashSetInsert measures the cost of one THB insert into a
// 32-deep HashSet: a prefix XOR and two ring writes, whatever the depth.
func BenchmarkHashSetInsert(b *testing.B) {
	b.Run("full32", func(b *testing.B) {
		hs, err := vlp.NewHashSet(14, 32)
		if err != nil {
			b.Fatal(err)
		}
		rng := xrand.New(1)
		addrs := make([]arch.Addr, 1024)
		for i := range addrs {
			addrs[i] = arch.Addr(rng.Uint64() & 0xffffff)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hs.Insert(addrs[i%len(addrs)])
		}
	})
}

// BenchmarkHashSetDirect measures the naive multi-stage recomputation the
// prefix form replaces, at the deepest path length.
func BenchmarkHashSetDirect(b *testing.B) {
	hs, err := vlp.NewHashSet(14, 32)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(1)
	for i := 0; i < 64; i++ {
		hs.Insert(arch.Addr(rng.Uint64() & 0xffffff))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = hs.DirectIndex(32)
	}
}

// BenchmarkProfilingPipeline measures the full two-step heuristic (§3.5)
// on one benchmark's profile input.
func BenchmarkProfilingPipeline(b *testing.B) {
	bench, err := workload.ByName("li")
	if err != nil {
		b.Fatal(err)
	}
	buf := trace.Collect(bench.ProfileSource(benchScale))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := profile.Cond(trace.NewBuffer(buf.Records), profile.Config{TableBits: 14}); err != nil {
			b.Fatal(err)
		}
	}
}

// suiteColdBase is the base scale of BenchmarkSuiteCold: the scale
// perfbench's paper-suite workload runs and records its digests at.
const suiteColdBase = 40000

// BenchmarkSuiteCold runs every registry experiment on one fresh Suite
// per iteration at base 40000, as a cold paperrepro run pays it: trace
// generation, profiling, replay and rendering. Its B/op is what one cold
// pass allocates.
func BenchmarkSuiteCold(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(experiments.Config{BaseRecords: suiteColdBase})
		for _, e := range experiments.Registry() {
			if _, err := e.RunMeasured(ctx, s); err != nil {
				b.Fatalf("%s: %v", e.ID, err)
			}
		}
	}
}

// BenchmarkGridReplay replays the 80 cells of perfbench's replay-grid
// workload (seed 0: test input 2) on a fresh engine per iteration at
// base 40000. Trace generation, profiling and one warm-up replay are
// set-up, off the clock, as in perfbench, so its B/op is what one
// replay pass allocates.
func BenchmarkGridReplay(b *testing.B) {
	g := newGridFixture(b, suiteColdBase, 2)
	ctx := context.Background()
	if _, err := g.replay(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.replay(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceGeneration measures the synthetic substrate's execution
// speed (records generated per op).
func BenchmarkTraceGeneration(b *testing.B) {
	bench, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	var r trace.Record
	src := bench.TestSource(1 << 30) // effectively unbounded
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !src.Next(&r) {
			b.Fatal("source exhausted")
		}
	}
}

// BenchmarkDecodeChunk decodes one 16384-record gcc chunk in the VLPT
// wire format, the payload of one served request: Decode into a fresh
// Buffer (the file and batch paths), and DecodeInto a reused record
// window (the serve ingest path, which should not allocate).
func BenchmarkDecodeChunk(b *testing.B) {
	const chunkRecords = 16384
	data, err := trace.Encode(trace.NewBuffer(benchTrace(b).Records[:chunkRecords]))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Decode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := trace.Decode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DecodeInto", func(b *testing.B) {
		window, err := trace.DecodeInto(nil, data) // sizes the window
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if window, err = trace.DecodeInto(window, data); err != nil {
				b.Fatal(err)
			}
		}
		if len(window) != chunkRecords {
			b.Fatalf("decoded %d records, want %d", len(window), chunkRecords)
		}
	})
}

// BenchmarkServeEndToEnd measures the prediction service round trip:
// chunk encoding, HTTP transport, server-side decode, and batched
// replay, driven by the same load generator cmd/vlpload ships. Each
// iteration streams the whole trace through a fresh session, so ns/op
// is the cost of serving one complete workload.
func BenchmarkServeEndToEnd(b *testing.B) {
	limits := serve.DefaultLimits()
	limits.Workers = 16
	srv, err := serve.New(limits, nil)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	buf := benchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := loadgen.Run(context.Background(), loadgen.Config{
			BaseURL:      ts.URL,
			SessionID:    fmt.Sprintf("bench-%d", i),
			Class:        "cond",
			Spec:         "gshare:budget=16KB",
			Clients:      4,
			ChunkRecords: 8192,
		}, trace.NewBuffer(buf.Records))
		if err != nil {
			b.Fatal(err)
		}
		if res.Failures != 0 || res.Records != int64(buf.Len()) {
			b.Fatalf("degraded run: %+v", res)
		}
	}
	b.StopTimer()
}

// BenchmarkFusedSweep pits the fused column kernel against the per-cell
// reference (engine.Config.PerCell: each predictor alone, K=1) on a
// Table-2-shaped grid — one benchmark, a path-length sweep at each
// table size plus a gshare baseline — so the reported ratio is the
// speedup an experiment sweep actually sees: each worker steps every
// record through its share of the column's predictors before loading
// the next record.
func BenchmarkFusedSweep(b *testing.B) {
	buf := benchTrace(b)
	sizes := []int{4096, 16384}
	lengths := []int{4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 28, 32}
	build := func(b *testing.B) []bpred.CondPredictor {
		preds := make([]bpred.CondPredictor, 0, len(sizes)*(1+len(lengths)))
		for _, size := range sizes {
			g, err := gshare.New(size)
			if err != nil {
				b.Fatal(err)
			}
			preds = append(preds, g)
			for _, l := range lengths {
				p, err := vlp.NewCond(size, vlp.Fixed{L: l}, vlp.Options{})
				if err != nil {
					b.Fatal(err)
				}
				preds = append(preds, p)
			}
		}
		return preds
	}
	for _, mode := range []struct {
		name    string
		perCell bool
	}{{"percell", true}, {"fused", false}} {
		eng := engine.New(engine.Config{PerCell: mode.perCell})
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Fresh predictor state per iteration, constructed off the
				// clock: the measured cost is the replay alone.
				b.StopTimer()
				preds := build(b)
				b.StartTimer()
				res, err := eng.ReplayCond(context.Background(), preds, trace.NewBuffer(buf.Records))
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != len(preds) || res[0].Branches == 0 {
					b.Fatalf("degraded run: %d results", len(res))
				}
				for _, p := range preds {
					bpred.Release(p)
				}
			}
		})
	}
}

// BenchmarkEngineDedup measures what the execution engine's
// cross-experiment cell dedup is worth. Two plans share half their
// cells — the fig7/table3 shape, where the SPEC and indirect-heavy
// benchmark sets overlap — and each iteration executes both: with
// dedup both plans share one engine and the shared cells replay once;
// nodedup gives each plan a fresh engine, so every submission replays
// (what independent execution surfaces did before the unified engine).
// The wall-clock delta between the two sub-benchmarks is the saving a
// suite run gets for free from the shared scheduler; bench_compare.sh
// records it in BENCH_engine.json.
func BenchmarkEngineDedup(b *testing.B) {
	buf := benchTrace(b)
	benches := []string{"b0", "b1", "b2", "b3", "b4", "b5", "b6", "b7"}
	sharedBenches := benches[:4]
	mkCells := func() []engine.CondCell {
		out := make([]engine.CondCell, 0, 3)
		for _, budget := range []int{1024, 4096, 16384} {
			budget := budget
			out = append(out, func() (bpred.CondPredictor, error) { return gshare.New(budget) })
		}
		return out
	}
	src := func(string) (trace.Source, error) { return trace.NewBuffer(buf.Records), nil }
	for _, mode := range []struct {
		name    string
		noDedup bool
	}{{"nodedup", true}, {"dedup", false}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := engine.New(engine.Config{Source: src})
				first, second := engine.NewPlan(), engine.NewPlan()
				for _, t := range benches {
					first.Cond(t, "compare", mkCells())
				}
				for _, t := range sharedBenches {
					second.Cond(t, "compare", mkCells())
				}
				var executed int64
				for pi, p := range []*engine.Plan{first, second} {
					if pi > 0 && mode.noDedup {
						executed += e.Counters().Executed
						e = engine.New(engine.Config{Source: src})
					}
					if _, err := e.Execute(context.Background(), p); err != nil {
						b.Fatal(err)
					}
				}
				executed += e.Counters().Executed
				want := int64(len(benches))
				if mode.noDedup {
					want += int64(len(sharedBenches))
				}
				if executed != want {
					b.Fatalf("executed %d cells, want %d", executed, want)
				}
			}
		})
	}
}

// BenchmarkEndToEndSim measures the simulation loop as a whole: predictor,
// statistics, and trace replay.
func BenchmarkEndToEndSim(b *testing.B) {
	buf := benchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := gshare.New(16 * 1024)
		if err != nil {
			b.Fatal(err)
		}
		res := sim.RunCond(context.Background(), p, trace.NewBuffer(buf.Records), sim.Options{})
		if res.Branches == 0 {
			b.Fatal("empty run")
		}
	}
}

// BenchmarkSnapshotRoundtrip measures the vlps/v1 state codec on the
// predictor the hibernation paths actually carry: a 64KB variable
// length path predictor warmed over the benchmark trace, captured,
// encoded, decoded, and restored into a fresh instance per iteration —
// the full cost of one spill plus one rehydrate.
func BenchmarkSnapshotRoundtrip(b *testing.B) {
	buf := benchTrace(b)
	warm, err := vlp.NewCond(64*1024, vlp.Fixed{L: 8}, vlp.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if res := sim.RunCond(context.Background(), warm, trace.NewBuffer(buf.Records), sim.Options{}); res.Branches == 0 {
		b.Fatal("empty warm-up run")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn, err := snap.Capture("cond", "vlp:budget=64KB", warm)
		if err != nil {
			b.Fatal(err)
		}
		blob := sn.Encode()
		again, err := snap.Decode(blob)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		fresh, err := vlp.NewCond(64*1024, vlp.Fixed{L: 8}, vlp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := again.Restore("cond", "vlp:budget=64KB", fresh); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.SetBytes(int64(len(blob)))
		}
	}
}
