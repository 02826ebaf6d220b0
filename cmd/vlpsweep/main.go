// Vlpsweep is the distributed sweep coordinator: it shards an
// experiment sweep across running vlpserve workers (their POST /v1/jobs
// endpoint) and merges the results into the same artifact files an
// in-process paperrepro run writes — byte-identical rendered text for
// deterministic cells, plus per-cell bench reports, a resume manifest,
// and a bench_sweep.json summary with per-worker throughput.
//
// Start two workers, then sweep:
//
//	vlpserve -addr 127.0.0.1:9001 &
//	vlpserve -addr 127.0.0.1:9002 &
//	vlpsweep -workers http://127.0.0.1:9001,http://127.0.0.1:9002 \
//	    -exp headline,fig9 -base 400000 -out out -json results
//
// Dispatch is work-stealing: each worker pulls its next cell as it
// finishes the last. Saturated or transiently failing cells retry on
// the same worker (honoring Retry-After); a worker that dies — its
// connection drops or it fails two consecutive health checks — has its
// in-flight cell requeued onto the survivors. A deterministic
// experiment failure is recorded once and fails the exit code after
// everything else has run, exactly like paperrepro. -resume skips cells
// whose bench reports already validate, and the manifest is shared with
// paperrepro, so the two tools' partial runs compose. DESIGN.md §11
// describes the model.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/runx"
)

func main() {
	var (
		workers  = flag.String("workers", "", "comma-separated worker base URLs (required), e.g. http://127.0.0.1:9001,http://127.0.0.1:9002")
		exp      = flag.String("exp", "", "comma-separated experiment ids (default: all)")
		base     = flag.Int("base", 400000, "suite base trace length in records")
		profBase = flag.Int("profbase", 0, "profile input length (default: same as -base)")
		out      = flag.String("out", "", "write each cell's rendered report to <out>/<id>.txt")
		jsonDir  = flag.String("json", "results", "write bench_<id>.json reports, the manifest, and bench_sweep.json to this directory (\"\" to disable)")
		resume   = flag.Bool("resume", false, "skip cells whose bench reports are already present and valid (needs -json)")
		timeout  = flag.Duration("timeout", 0, "abort the whole sweep after this long (0 = no deadline)")
		jobTO    = flag.Duration("job-timeout", 0, "per-cell request deadline on each worker (0 = default 2m)")
		chaosStr = flag.String("chaos", "", "client-side fault injection spec, e.g. chaos:seed=7,latency=50ms@0.2,reset=0.05,truncate=0.02,stall=0.01")
		verbose  = flag.Bool("v", false, "narrate progress to stderr")
	)
	flag.Parse()
	log := obs.NewLogger(os.Stderr, *verbose)

	var inj *chaos.Injector
	if *chaosStr != "" {
		spec, err := chaos.ParseSpec(*chaosStr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vlpsweep:", err)
			os.Exit(2)
		}
		inj = chaos.New(spec)
	}

	ctx, cancelSignals := runx.WithSignals(context.Background())
	defer cancelSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if err := run(ctx, *workers, *exp, *base, *profBase, *out, *jsonDir, *resume, inj, *jobTO, log); err != nil {
		fmt.Fprintln(os.Stderr, "vlpsweep:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, workers, exp string, base, profBase int, out, jsonDir string, resume bool, inj *chaos.Injector, jobTimeout time.Duration, log *obs.Logger) error {
	var urls []string
	for _, w := range strings.Split(workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			urls = append(urls, strings.TrimRight(w, "/"))
		}
	}
	if len(urls) == 0 {
		return fmt.Errorf("no workers: pass -workers with at least one vlpserve URL")
	}
	opts := dist.Options{
		Workers:        urls,
		Exp:            exp,
		BaseRecords:    base,
		ProfileRecords: profBase,
		OutDir:         out,
		JSONDir:        jsonDir,
		Resume:         resume,
		JobTimeout:     jobTimeout,
		Log:            log,
	}
	if inj != nil {
		opts.Transport = inj.Transport(nil)
	}
	summary, err := dist.Sweep(ctx, opts)
	if summary != nil {
		printSummary(summary)
	}
	if inj != nil {
		// One stable line per run: the chaos smoke's replay stage diffs
		// this between two same-seed sweeps to pin count determinism.
		fmt.Printf("chaos: injected %s\n", inj.CountsString())
	}
	return err
}

func printSummary(summary *obs.Report) {
	data, ok := summary.Data.(dist.SweepData)
	if !ok {
		return
	}
	fmt.Printf("sweep: %d cell(s) dispatched, %d failed, %d skipped, %v wall\n",
		data.Cells, len(data.Failed), len(summary.Skipped),
		time.Duration(summary.Metrics.WallNanos).Round(time.Millisecond))
	for _, w := range data.Workers {
		state := "alive"
		if !w.Alive {
			state = "dead"
		}
		fmt.Printf("  worker %s: %d cell(s), %d requeue(s), p95 %v, %s\n",
			w.URL, w.Jobs, w.Requeues,
			time.Duration(w.Latency.P95Nanos).Round(time.Millisecond), state)
	}
}
