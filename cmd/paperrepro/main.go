// Paperrepro regenerates the paper's evaluation: every table and figure of
// §5 plus the repository's ablation studies, on the synthetic benchmark
// suite.
//
// Run everything at the default scale:
//
//	paperrepro
//
// Run one experiment at full scale and save the reports:
//
//	paperrepro -exp fig9 -base 1200000 -out results/
//
// Experiment IDs follow the paper's artifact names: table1, table2, fig5,
// fig6, fig7, fig8, table3, fig9, fig10, headline, plus ablation-*.
// -list prints them all.
//
// Fault tolerance: the suite run is designed to survive its parts. A
// panicking or failing experiment is recorded and the remaining
// experiments still run; -timeout bounds each experiment; Ctrl-C cancels
// the sweep cleanly (in-flight simulation jobs drain, the checkpoint is
// saved). With -tracedir, recorded benchmark traces are ingested up
// front with retry on transient I/O errors, and a missing or corrupt
// trace skips that benchmark — with the reason recorded in the report —
// instead of failing the suite. Progress checkpoints to
// <json>/manifest.json as each experiment completes, and -resume skips
// experiments whose bench reports are already present and valid, so an
// interrupted or partially failed run re-runs only what is missing.
// The process exits non-zero if any experiment failed, but only after
// running everything else.
//
// Observability: every experiment runs inside a measurement span, and
// -json <dir> (default results, "" to disable) writes one
// bench_<id>.json per experiment in the repro-bench/v1 schema — wall
// time, branches simulated, throughput, allocation — alongside the
// experiment's typed data, plus a bench_suite.json summary carrying the
// run's failures and skips. -cpuprofile/-memprofile/-exectrace profile
// the whole regeneration; -v narrates per-experiment progress.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/engine/pool"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runx"
)

// options carries every run parameter; flags parse straight into it.
type options struct {
	exp      string
	base     int
	profBase int
	out      string
	jsonDir  string
	traceDir string
	timeout  time.Duration
	resume   bool
	log      *obs.Logger
}

func main() {
	var opts options
	var list, verbose bool
	flag.StringVar(&opts.exp, "exp", "", "comma-separated experiment ids (default: all)")
	flag.IntVar(&opts.base, "base", 400000, "suite base trace length in records")
	flag.IntVar(&opts.profBase, "profbase", 0, "profile input length (default: same as -base)")
	flag.StringVar(&opts.out, "out", "", "also write each report to <out>/<id>.txt")
	flag.StringVar(&opts.jsonDir, "json", "results", "write bench_<id>.json reports to this directory (\"\" to disable)")
	flag.StringVar(&opts.traceDir, "tracedir", "", "ingest recorded test traces (<dir>/<bench>.vlpt) instead of generating them")
	flag.DurationVar(&opts.timeout, "timeout", 0, "per-experiment deadline (0 = none)")
	flag.BoolVar(&opts.resume, "resume", false, "skip experiments whose bench reports are already present and valid (needs -json)")
	flag.BoolVar(&list, "list", false, "list experiment ids and exit")
	flag.BoolVar(&verbose, "v", false, "narrate progress to stderr")
	workers := flag.Int("workers", 0, "bound every worker pool in the process (0 = CPU count)")
	var pflags obs.ProfileFlags
	pflags.Register(flag.CommandLine)
	flag.Parse()
	if list {
		listExperiments(os.Stdout)
		return
	}
	pool.SetCap(*workers)
	opts.log = obs.NewLogger(os.Stderr, verbose)
	stop, err := pflags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperrepro:", err)
		os.Exit(1)
	}
	ctx, cancelSignals := runx.WithSignals(context.Background())
	err = run(ctx, opts)
	cancelSignals()
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperrepro:", err)
		os.Exit(1)
	}
}

// listExperiments prints the registry — one "id  title" line per
// experiment, in presentation order — for the -list flag.
func listExperiments(w io.Writer) {
	for _, e := range experiments.Registry() {
		fmt.Fprintf(w, "%-22s %s\n", e.ID, e.Title)
	}
}

// classify maps an experiment error to its failure kind.
func classify(err error) obs.FailureKind {
	var pe *runx.PanicError
	switch {
	case errors.As(err, &pe):
		return obs.FailurePanic
	case errors.Is(err, context.DeadlineExceeded):
		return obs.FailureTimeout
	case errors.Is(err, context.Canceled):
		return obs.FailureCanceled
	default:
		return obs.FailureError
	}
}

// validReport is the resume gate's output validation: the bench report
// must still read back clean (the same validation cmd/obscheck
// applies), so a deleted or corrupted report file re-runs.
func validReport(path string) error {
	_, err := obs.ReadReport(path)
	return err
}

func run(ctx context.Context, opts options) error {
	entries, err := experiments.Select(opts.exp)
	if err != nil {
		return err
	}
	if opts.out != "" {
		if err := os.MkdirAll(opts.out, 0o755); err != nil {
			return err
		}
	}
	if opts.resume && opts.jsonDir == "" {
		return fmt.Errorf("-resume needs -json to know where prior results live")
	}

	// The checkpoint manifest lives next to the bench reports. A prior
	// manifest is only consulted under -resume; otherwise the run
	// starts a fresh one (stale entries for experiments not in this
	// run's list are preserved so partial -exp runs compose).
	var manifest *runx.Manifest
	var manifestPath string
	if opts.jsonDir != "" {
		manifestPath = runx.ManifestPath(opts.jsonDir)
		if prior, err := runx.LoadManifest(manifestPath); err == nil {
			manifest = prior
		} else {
			manifest = runx.NewManifest()
		}
	}
	checkpoint := func() error {
		if manifest == nil {
			return nil
		}
		return manifest.Save(manifestPath)
	}

	suite := experiments.NewSuite(experiments.Config{
		BaseRecords: opts.base, ProfileRecords: opts.profBase, TraceDir: opts.traceDir,
	})
	summary := obs.NewReport("suite", "paperrepro suite run")
	summary.SetParam("base_records", opts.base)
	if opts.traceDir != "" {
		summary.SetParam("trace_dir", opts.traceDir)
	}

	// Harden the input boundary first: with -tracedir, every
	// benchmark's recorded trace is validated (and retried through
	// transient I/O errors) before any experiment runs. A bad trace
	// skips its benchmark — recorded here — rather than surfacing as a
	// confusing mid-experiment failure.
	skipped, err := suite.IngestTraces(ctx)
	if err != nil {
		return fmt.Errorf("trace ingestion: %w", err)
	}
	for bench, reason := range skipped {
		opts.log.Progressf("skipping benchmark %s: %s", bench, reason)
		summary.AddSkip("bench:"+bench, reason)
	}

	span := obs.StartSpan()
	var failed []string
	for i, e := range entries {
		if err := ctx.Err(); err != nil {
			// Interrupted: checkpoint what completed and stop cleanly
			// without discarding the finished experiments' results.
			summary.AddFailure("suite", obs.FailureCanceled, err)
			for _, rest := range entries[i:] {
				summary.AddSkip(rest.ID, "canceled before start")
			}
			break
		}
		if opts.resume && manifest.Satisfied(e.ID, validReport) {
			opts.log.Progressf("experiment %d/%d: %s already complete, skipping", i+1, len(entries), e.ID)
			summary.AddSkip(e.ID, "resumed: valid report already on disk")
			continue
		}
		opts.log.Progressf("experiment %d/%d: %s", i+1, len(entries), e.ID)

		expCtx := ctx
		var cancelTimeout context.CancelFunc
		if opts.timeout > 0 {
			expCtx, cancelTimeout = context.WithTimeout(ctx, opts.timeout)
		}
		start := time.Now()
		rep, err := e.RunMeasured(expCtx, suite)
		if cancelTimeout != nil {
			cancelTimeout()
		}

		if err != nil {
			// The experiment failed alone: record it, mark the
			// checkpoint, and keep going. The failure still fails the
			// process at the end.
			kind := classify(err)
			failed = append(failed, e.ID)
			summary.AddFailure(e.ID, kind, err)
			fmt.Printf("===== %s FAILED (%s): %v\n", e.ID, kind, err)
			if manifest != nil {
				manifest.Set(runx.ManifestEntry{
					ID: e.ID, Status: runx.StatusFailed, Error: err.Error(),
					WallNanos: time.Since(start).Nanoseconds(),
				})
				if err := checkpoint(); err != nil {
					return err
				}
			}
			continue
		}

		fmt.Printf("===== %s (%s)\n", rep.Title, rep.Metrics)
		fmt.Println(rep.Text)
		if opts.out != "" {
			if _, err := experiments.WriteText(opts.out, rep.ID, rep.Title, rep.Text); err != nil {
				return err
			}
		}
		var benchPath string
		if opts.jsonDir != "" {
			benchPath, err = rep.WriteBench(opts.jsonDir, suite.Cfg)
			if err != nil {
				return err
			}
			opts.log.Progressf("wrote %s", benchPath)
		}
		if manifest != nil {
			entry := runx.ManifestEntry{
				ID: e.ID, Status: runx.StatusOK, Output: benchPath,
				WallNanos: rep.Metrics.WallNanos,
			}
			// Stamp the report's checksum so a resumed run quarantines a
			// torn or tampered file instead of trusting it. Best-effort:
			// an unreadable file just leaves the legacy empty checksum.
			if benchPath != "" {
				if sum, err := runx.FileChecksum(benchPath); err == nil {
					entry.Checksum = sum
				}
			}
			manifest.Set(entry)
			if err := checkpoint(); err != nil {
				return err
			}
		}
	}
	summary.Metrics = span.End()

	// The engine's scheduling arithmetic: how many cells the experiments
	// submitted, how many actually replayed, and how many were served
	// from a column another experiment had already computed.
	ec := suite.Engine().Counters()
	summary.SetParam("engine_cells_submitted", ec.Submitted)
	summary.SetParam("engine_cells_executed", ec.Executed)
	summary.SetParam("engine_cells_deduped", ec.Deduped)
	if ec.Submitted > 0 {
		opts.log.Progressf("engine: %d cell(s) submitted, %d executed, %d served by dedup",
			ec.Submitted, ec.Executed, ec.Deduped)
	}

	if opts.jsonDir != "" {
		path, err := summary.WriteBench(opts.jsonDir)
		if err != nil {
			return err
		}
		opts.log.Progressf("wrote %s", path)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("interrupted: %w", err)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d experiment(s) failed: %s", len(failed), strings.Join(failed, ", "))
	}
	return nil
}
