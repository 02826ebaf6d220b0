// Vlpserve runs the prediction service: a long-lived HTTP server that
// holds named predictor sessions and replays streamed trace chunks
// through them (see internal/serve and DESIGN.md §10).
//
// Start with the default degradation policy:
//
//	vlpserve -addr 127.0.0.1:8080
//
// Tune the policy with the limits grammar:
//
//	vlpserve -addr :8080 -limits max-sessions=128,idle-ttl=30s,max-body=4MB,workers=16
//
// Then create a session and stream chunks at it (cmd/vlpload automates
// this):
//
//	curl -d '{"id":"s1","class":"cond","spec":"gshare:budget=16KB"}' \
//	    http://127.0.0.1:8080/v1/sessions
//	curl --data-binary @chunk.vlpt http://127.0.0.1:8080/v1/sessions/s1/chunks
//	curl http://127.0.0.1:8080/v1/metrics
//
// Every route lives under /v1/; the pre-versioning spellings
// (/metrics, /healthz, /v1/sessions/{id}/predict) still answer but
// carry a Deprecation header. Failed requests share one JSON error
// envelope: {"code", "message", "retryable"}.
//
// The server is also a sweep worker: POST /v1/jobs runs one experiment
// cell for the cmd/vlpsweep coordinator (disable with -jobs=false;
// -tracedir points cells at recorded benchmark traces; -snapdir
// checkpoints column replays so a requeued cell resumes mid-trace).
//
// -spill-dir enables session hibernation: every session's predictor
// state is snapshotted write-through after each chunk, evicted and
// drained sessions spill to disk, and a restarted server with the same
// directory resumes every session bit-identically — even after kill -9
// (scripts/snap_smoke.sh proves exactly that). Sessions also expose
// GET/POST /v1/sessions/{id}/snapshot for explicit snapshot download
// and restore.
//
// SIGINT/SIGTERM drain in-flight requests and exit cleanly; -addr-file
// writes the bound address (for -addr :0 orchestration, as the
// serve-smoke CI stage does).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"

	"repro/internal/chaos"
	"repro/internal/dist"
	"repro/internal/engine/pool"
	"repro/internal/obs"
	"repro/internal/runx"
	"repro/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for a random port)")
		addrFile = flag.String("addr-file", "", "write the bound address to this file once listening")
		limits   = flag.String("limits", "", "degradation policy overrides, e.g. max-sessions=128,idle-ttl=30s,max-body=4MB,workers=16,drain=5s")
		jobs     = flag.Bool("jobs", true, "serve POST /v1/jobs sweep cells (cmd/vlpsweep workers)")
		traceDir = flag.String("tracedir", "", "recorded benchmark traces for sweep cells (<dir>/<bench>.vlpt)")
		spillDir = flag.String("spill-dir", "", "hibernate sessions to this directory (write-through snapshots; a restart with the same dir resumes every session bit-identically)")
		snapDir  = flag.String("snapdir", "", "checkpoint sweep-cell column replays to this directory so a requeued cell resumes instead of replaying from record zero")
		chaosStr = flag.String("chaos", "", "server-side fault injection spec, e.g. chaos:seed=7,burst5xx=0.05,reset=0.02,truncate=0.02,stall=0.01,snap=0.1")
		workers  = flag.Int("workers", 0, "bound every worker pool in the process, including the admission default (0 = CPU count); the limits grammar's workers= still overrides admission")
		verbose  = flag.Bool("v", false, "narrate requests and evictions to stderr")
	)
	var prof obs.ProfileFlags
	prof.Register(flag.CommandLine)
	flag.Parse()
	// Set the process-wide pool ceiling before DefaultLimits reads it
	// for the admission semaphore default.
	pool.SetCap(*workers)
	log := obs.NewLogger(os.Stderr, *verbose)

	stop, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vlpserve:", err)
		os.Exit(1)
	}
	var inj *chaos.Injector
	if *chaosStr != "" {
		spec, serr := chaos.ParseSpec(*chaosStr)
		if serr != nil {
			fmt.Fprintln(os.Stderr, "vlpserve:", serr)
			os.Exit(2)
		}
		inj = chaos.New(spec)
	}
	ctx, cancelSignals := runx.WithSignals(context.Background())
	err = run(ctx, *addr, *addrFile, *limits, *jobs, *traceDir, *spillDir, *snapDir, inj, log)
	cancelSignals()
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vlpserve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, addr, addrFile, limitsStr string, jobs bool, traceDir, spillDir, snapDir string, inj *chaos.Injector, log *obs.Logger) error {
	limits, err := serve.ParseLimits(serve.DefaultLimits(), limitsStr)
	if err != nil {
		return err
	}
	srv, err := serve.New(limits, log)
	if err != nil {
		return err
	}
	if spillDir != "" {
		srv.SetSpillDir(spillDir)
	}
	if jobs {
		runner := dist.NewRunner(traceDir, log)
		runner.SetSnapDir(snapDir)
		srv.SetJobRunner(runner)
	}
	if inj != nil {
		// Mounted outermost — outside the panic-recovery boundary — so an
		// injected reset's http.ErrAbortHandler reaches net/http and
		// actually drops the connection (see internal/chaos).
		srv.SetMiddleware(inj.Middleware)
		if inj.Spec().SnapP > 0 {
			srv.SetSnapFault(inj.SnapFault)
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if addrFile != "" {
		// Atomic write so a watcher never reads a half-written address.
		if err := runx.AtomicWriteFile(addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	fmt.Printf("vlpserve: listening on %s (max-sessions=%d idle-ttl=%v max-body=%d workers=%d)\n",
		bound, limits.MaxSessions, limits.IdleTTL, limits.MaxBodyBytes, limits.Workers)
	err = srv.Serve(ctx, ln)
	if inj != nil {
		fmt.Printf("chaos: injected %s\n", inj.CountsString())
	}
	return err
}
