// Package dist is the distributed sweep execution layer: a coordinator
// (cmd/vlpsweep) that shards an experiment sweep across worker
// processes, and the worker-side job runner that vlpserve mounts on
// POST /v1/jobs.
//
// A job is one registry experiment at one suite scale (the coordinator
// calls its queued jobs cells). Jobs are independent and deterministic:
// every worker given the same job renders the same artifact text, so the
// coordinator can merge worker responses into the same
// <out>/<id>.txt + <json>/bench_<id>.json files the in-process
// cmd/paperrepro run writes, byte-identical for the rendered text (the
// dist-smoke CI stage pins this; bench reports carry wall-clock
// metrics and are validated rather than compared).
//
// Dispatch is work-stealing: cells sit in one shared queue and each
// worker pulls its next cell as it finishes the last, so a slow worker
// ends up with fewer cells instead of stalling the sweep. Failures are
// classified the same way the rest of the repository classifies them:
// saturation and transient errors retry on the same worker (honoring
// Retry-After), a dead worker's in-flight cell is requeued for the
// survivors, and a deterministic experiment failure is recorded once —
// never bounced between workers. Progress checkpoints through the same
// runx manifest cmd/paperrepro uses, so an interrupted sweep resumes,
// and the two tools' partial results compose. DESIGN.md §11 describes
// the model.
package dist

import (
	"context"
	"errors"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Runner is the worker-side serve.JobRunner: it executes one experiment
// per request against a per-scale cached suite, so consecutive jobs at
// the same scale share generated traces, profiles and replayed columns
// exactly as an in-process suite run does.
type Runner struct {
	traceDir string
	log      *obs.Logger
	// suites memoizes one suite per scale. A build cut short by one
	// request's deadline is dropped by the memo, so it cannot fail
	// every later job at that scale.
	suites engine.Memo[suiteKey, *experiments.Suite]
}

type suiteKey struct {
	base, profBase int
}

// NewRunner builds a runner. traceDir, when non-empty, is handed to
// every suite it constructs (recorded traces instead of generated
// ones). A nil logger means silent.
func NewRunner(traceDir string, log *obs.Logger) *Runner {
	if log == nil {
		log = obs.Discard
	}
	return &Runner{traceDir: traceDir, log: log}
}

// suite returns the cached suite for a scale, building and ingesting it
// on first use.
func (r *Runner) suite(ctx context.Context, key suiteKey) (*experiments.Suite, error) {
	return r.suites.Do(key, func() (*experiments.Suite, error) {
		s := experiments.NewSuite(experiments.Config{
			BaseRecords:    key.base,
			ProfileRecords: key.profBase,
			TraceDir:       r.traceDir,
		})
		skipped, err := s.IngestTraces(ctx)
		if err != nil {
			return nil, err
		}
		for bench, reason := range skipped {
			r.log.Progressf("dist: worker skipping benchmark %s: %s", bench, reason)
		}
		return s, nil
	})
}

// RunJob executes one experiment and renders it as the wire response:
// the artifact text plus the marshalled bench report. A failing job
// comes back as a *serve.JobFailedError so the endpoint classifies it
// as a non-retryable job-failed 500; a canceled context surfaces as the
// context error (retryable elsewhere).
func (r *Runner) RunJob(ctx context.Context, req serve.JobRequest) (serve.JobResponse, error) {
	entry, err := experiments.Find(req.Exp)
	if err != nil {
		return serve.JobResponse{}, err
	}
	suite, err := r.suite(ctx, suiteKey{base: req.BaseRecords, profBase: req.ProfileRecords})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The requester's deadline cut the build; answer retryable
			// (503) rather than branding the job failed.
			return serve.JobResponse{}, err
		}
		return serve.JobResponse{}, &serve.JobFailedError{Exp: req.Exp, Err: err}
	}
	rep, err := entry.RunMeasured(ctx, suite)
	if err != nil {
		if ctx.Err() != nil {
			return serve.JobResponse{}, ctx.Err()
		}
		return serve.JobResponse{}, &serve.JobFailedError{Exp: req.Exp, Err: err}
	}
	blob, err := rep.BenchReport(suite.Cfg).Marshal()
	if err != nil {
		return serve.JobResponse{}, &serve.JobFailedError{Exp: req.Exp, Err: err}
	}
	return serve.JobResponse{
		Exp:       rep.ID,
		Title:     rep.Title,
		Text:      rep.Text,
		Bench:     blob,
		WallNanos: rep.Metrics.WallNanos,
	}, nil
}
