// Package pool is the execution engine's worker pool: one place that
// decides how wide fan-out runs and dispatches indexed jobs across
// goroutines. Every parallel surface in the repository sizes itself
// here — the engine's cell scheduler, the fused kernel's shard runner
// (sim.RunMany), profile's step-1 candidate sharding, the experiment
// sweeps, and the serve admission semaphore's default — so a single
// knob (SetCap, the CLIs' -workers flag) bounds the whole process.
//
// The package is a leaf on purpose: it imports only runx (for panic
// isolation), so both internal/sim and internal/engine can use it
// without a cycle.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/runx"
)

// cap is the process-wide worker ceiling; 0 means the machine's CPU
// count. Set once at CLI startup (SetCap), read by every Size call.
var capacity atomic.Int64

// SetCap bounds every pool in the process to at most n workers; n <= 0
// restores the default (the CPU count). The CLIs plumb their -workers
// flag here before any replay starts.
func SetCap(n int) {
	if n < 0 {
		n = 0
	}
	capacity.Store(int64(n))
}

// Cap returns the process-wide worker ceiling: SetCap's value, or the
// machine's CPU count when unset. Experiment metrics record it as the
// pool ceiling (obs.RunMetrics.Workers).
func Cap() int {
	if c := int(capacity.Load()); c > 0 {
		return c
	}
	return runtime.NumCPU()
}

// Size returns the number of workers a pool uses for n jobs: the
// process ceiling (Cap), capped at n. The observability layer records
// it as the Workers field of experiment metrics.
func Size(n int) int {
	workers := Cap()
	if workers > n {
		workers = n
	}
	return workers
}

// ForEach runs fn(0..n-1) across a worker pool sized to the machine.
// The engine's cell scheduler and the experiment drivers use it to
// sweep predictor configurations and benchmarks in parallel; each job
// must be self-contained (its own predictor and trace source).
//
// ForEach is the sweep's fault boundary. A job that returns an error or
// panics fails alone: the panic is recovered into a structured
// *runx.PanicError, every other job still runs, and the aggregated
// *runx.SweepError (nil when all jobs succeed) names each failed index
// so the caller can mark those cells instead of dying. Canceling ctx
// stops dispatching new jobs — in-flight jobs drain cleanly — and the
// returned error then also wraps the context's error.
func ForEach(ctx context.Context, n int, fn func(i int) error) error {
	errs := make([]error, n)
	run := func(i int) {
		errs[i] = runx.Safe(func() error { return fn(i) })
	}
	workers := Size(n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return runx.NewSweepError(errs, err)
			}
			run(i)
		}
		return runx.NewSweepError(errs, ctx.Err())
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				run(i)
			}
		}()
	}
	var canceled error
dispatch:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			canceled = ctx.Err()
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if canceled == nil {
		// Cancellation can land after the last job was dispatched but
		// before the workers drained; the partial in-flight results
		// must not pass for a completed sweep.
		canceled = ctx.Err()
	}
	return runx.NewSweepError(errs, canceled)
}

// Fan runs fn(0..n-1) across exactly workers goroutines, dispatching
// every index unconditionally — there is no context and no early exit,
// because Fan's callers (the fused kernel's shard runner) encode
// cancellation inside fn and must observe every job's partial state
// even on a canceled run. A panicking job is captured on the pool
// goroutine and re-thrown on the caller's goroutine once all jobs have
// drained, where the usual fault boundary (runx.Safe in ForEach or the
// experiment driver) can classify it. workers <= 1 runs inline.
func Fan(workers, n int, fn func(i int)) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = runx.Safe(func() error {
					fn(i)
					return nil
				})
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			panic(err)
		}
	}
}
