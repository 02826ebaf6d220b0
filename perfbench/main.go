// Command perfbench is the repository's benchmark: one command that runs
// a workload in process through the public functions of each module,
// checks that its outputs are correct, and prints every metric by name
// with its unit. README.md explains the workloads and metrics. From the
// repository root:
//
//	bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 5 --trace 0
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is
// the run's report (settings, environment, sample counts, p99).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/engine/pool"
	"repro/internal/obs"
)

// config is one run's settings. defaultConfig is the benchmark's fixed
// scale; the smoke test shrinks it.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
	workers  int
	// setups is how many times a run repeats its set-up; setup_s is
	// the median.
	setups int
	// base is experiments.Config.BaseRecords for paper-suite and
	// replay-grid.
	base int
	// checkDigests compares outputs with the digests recorded at
	// digestBase; only the smoke test, at a tiny base, turns it off.
	checkDigests bool
	// serveBase sizes the serve traces (records = base × the
	// benchmark's DynWeight); serveProfBase sizes the vlp profiles'
	// input; chunk is the records per request.
	serveBase, serveProfBase, chunk int
}

// maxLoopSeconds caps a run's timed loop whatever the sample rule asks,
// so that a run always ends within three minutes.
const maxLoopSeconds = 120

func defaultConfig() config {
	return config{
		seconds:       5,
		workdir:       filepath.Join(".bench_build", "perfbench-work"),
		workers:       runtime.NumCPU(),
		setups:        3,
		base:          digestBase,
		checkDigests:  true,
		serveBase:     131072,
		serveProfBase: 65536,
		chunk:         16384,
	}
}

// workloads maps each workload name to its timed and traced runs.
var workloads = map[string]struct {
	timed  func(*bench) error
	traced func(*bench) error
}{
	"paper-suite":  {paperSuiteTimed, paperSuiteTraced},
	"replay-grid":  {replayGridTimed, replayGridTraced},
	"serve-stream": {func(b *bench) error { return serveTimed(b, false) }, func(b *bench) error { return serveTraced(b, false) }},
	"serve-spill":  {func(b *bench) error { return serveTimed(b, true) }, func(b *bench) error { return serveTraced(b, true) }},
}

// metric is one emitted figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics with their units, emitted by
// every untraced run.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"branches_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
}

// perLayer lists the per-layer metrics with their units, emitted by
// every traced run. A layer a workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"workload.gen_s", "s"},
	{"workload.records", "count"},
	{"profile.build_s", "s"},
	{"profile.step1_runs", "count"},
	{"profile.twostep_runs", "count"},
	{"engine.submitted", "count"},
	{"engine.executed", "count"},
	{"engine.deduped", "count"},
	{"engine.useful_ratio", "ratio"},
	{"sim.replay_s", "s"},
	{"sim.branches", "count"},
	{"sim.ns_per_branch", "ns"},
	{"experiments.render_s", "s"},
	{"trace.decode_s", "s"},
	{"trace.decode_mb_per_s", "MB/s"},
	{"serve.replay_s", "s"},
	{"serve.overhead_s", "s"},
	{"serve.requests", "count"},
	{"serve.rejected", "count"},
	{"serve.retries", "count"},
	{"serve.errors", "count"},
	{"snap.saved", "count"},
	{"snap.restored", "count"},
	{"snap.failures", "count"},
	{"snap.save_s", "s"},
	{"snap.load_s", "s"},
	{"snap.bytes", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"bench.coverage", "ratio"},
	{"bench.overhead_frac", "ratio"},
	{"bench.fail_frac", "ratio"},
}

// pass is one repetition of a workload's fixed unit of work.
type pass struct {
	wall     time.Duration
	branches int64
	alloc    uint64
}

// bench accumulates one run's measurements.
type bench struct {
	cfg       config
	ctx       context.Context
	setups    []time.Duration
	passes    []pass
	latMS     []float64 // per-operation latencies of the timed passes
	attempted int
	failed    int
	wrong     []string // correctness failures, reported and fatal
	layers    map[string]float64
	report    map[string]any
	settings  map[string]any // the noise controls in force, in the report
}

// fail records a wrong output.
func (b *bench) fail(format string, args ...any) {
	if len(b.wrong) < 20 {
		b.wrong = append(b.wrong, fmt.Sprintf(format, args...))
	}
}

// region runs fn after a full collection and returns its wall time and
// runtime deltas.
func region(fn func() error) (time.Duration, rtStats, error) {
	runtime.GC()
	r0 := readRuntime()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	return wall, readRuntime().sub(r0), err
}

// loop repeats fn — one timed pass — until the run has measured for
// cfg.seconds and collected at least minOps latency samples, but never
// past maxLoopSeconds.
func (b *bench) loop(minOps int, fn func() (pass, error)) error {
	start := time.Now()
	var measured time.Duration
	for {
		p, err := fn()
		if err != nil {
			return err
		}
		b.passes = append(b.passes, p)
		measured += p.wall
		if measured.Seconds() >= b.cfg.seconds && len(b.latMS) >= minOps {
			return nil
		}
		if time.Since(start).Seconds() > maxLoopSeconds {
			return fmt.Errorf("%d passes, %d samples after %v: the run is too slow for its sample rule",
				len(b.passes), len(b.latMS), time.Since(start).Round(time.Second))
		}
	}
}

// endToEndMetrics reduces the timed passes to the end-to-end metrics.
func (b *bench) endToEndMetrics() (map[string]float64, error) {
	if len(b.passes) == 0 || len(b.setups) == 0 {
		return nil, fmt.Errorf("no passes measured")
	}
	var setups, walls, rates, allocs []float64
	for _, d := range b.setups {
		setups = append(setups, d.Seconds())
	}
	for _, p := range b.passes {
		walls = append(walls, p.wall.Seconds())
		rates = append(rates, float64(p.branches)/p.wall.Seconds())
		allocs = append(allocs, float64(p.alloc)/1e6)
	}
	p90, err := tail(b.latMS, 0.9)
	if err != nil {
		return nil, err
	}
	p99, beyond := quantile(b.latMS, 0.99)
	b.report["p99_ms"] = p99
	b.report["p99_samples_beyond"] = beyond
	b.report["latency_samples"] = len(b.latMS)
	b.report["passes"] = len(b.passes)
	b.report["setups"] = len(b.setups)
	b.report["pass_wall_s"] = walls
	b.report["setup_s"] = setups
	return map[string]float64{
		"setup_s":        median(setups),
		"wall_s":         median(walls),
		"branches_per_s": median(rates),
		"peak_rss_mb":    peakRSSMB(),
		"alloc_mb":       median(allocs),
		"p50_ms":         median(b.latMS),
		"p90_ms":         p90,
	}, nil
}

// run executes one workload run and returns the result object.
func run(cfg config) (map[string]any, map[string]any, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, names)
	}
	// One knob bounds every pool in the process: the engine's cell
	// fan-out, the fused kernel's shards, profiling, and (set by the
	// serve workloads) the server's admission slots.
	if cfg.checkDigests && cfg.base != digestBase {
		return nil, nil, fmt.Errorf("no digests recorded at base %d (recorded at %d)", cfg.base, digestBase)
	}
	pool.SetCap(cfg.workers)
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, nil, err
	}
	b := &bench{cfg: cfg, ctx: context.Background(), layers: map[string]float64{}, report: map[string]any{}}
	b.report["workload"] = cfg.workload
	b.report["seed"] = cfg.seed
	b.report["trace"] = cfg.trace
	b.report["env"] = obs.CaptureEnv()
	b.settings = map[string]any{
		"workers":                 cfg.workers,
		"seconds":                 cfg.seconds,
		"setups_per_run":          cfg.setups,
		"gc_before_timed_regions": true,
	}
	b.report["settings"] = b.settings
	var units []struct{ name, unit string }
	var values map[string]float64
	if cfg.trace {
		if err := w.traced(b); err != nil {
			return nil, nil, err
		}
		b.layers["bench.fail_frac"] = failFrac(b.failed, b.attempted)
		values, units = b.layers, perLayer
	} else {
		if err := w.timed(b); err != nil {
			return nil, nil, err
		}
		var err error
		if values, err = b.endToEndMetrics(); err != nil {
			return nil, nil, err
		}
		units = endToEnd
	}
	b.report["fail_frac"] = failFrac(b.failed, b.attempted)
	b.report["wrong"] = b.wrong
	metrics := map[string]metric{}
	for _, m := range units {
		metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	return map[string]any{
		"correct":   len(b.wrong) == 0 && b.failed == 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   metrics,
	}, b.report, nil
}

func main() {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "paper-suite, replay-grid, serve-stream or serve-spill")
	fs.Uint64Var(&cfg.seed, "seed", 0, "input seed: replay-grid and serve replay held-out input 2+seed")
	fs.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "how long the timed passes run")
	traceFlag := fs.String("trace", "0", "1 runs the traced per-layer run instead of the timed run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	tr, err := strconv.ParseBool(*traceFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: bad --trace %q\n", *traceFlag)
		os.Exit(2)
	}
	cfg.trace = tr
	res, report, err := run(cfg)
	os.RemoveAll(cfg.workdir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"report": report}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
	if !res["correct"].(bool) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: wrong outputs: %v\n", cfg.workload, report["wrong"])
		os.Exit(1)
	}
}
