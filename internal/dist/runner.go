// Package dist is the distributed sweep execution layer: a coordinator
// (cmd/vlpsweep) that shards an experiment sweep across worker
// processes, and the worker-side job runner that vlpserve mounts on
// POST /v1/jobs.
//
// The unit of distribution is a cell — one registry experiment at one
// suite scale. Cells are independent and deterministic: every worker
// given the same cell renders the same artifact text, so the
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
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Runner is the worker-side serve.JobRunner: it executes one experiment
// cell per request against a per-scale cached suite, so consecutive
// cells at the same scale share generated traces and profiles exactly
// as an in-process suite run does.
type Runner struct {
	traceDir string
	log      *obs.Logger

	mu     sync.Mutex
	suites map[suiteKey]*suiteCell
}

type suiteKey struct {
	base, profBase int
}

// suiteCell is a once-guarded suite build: the first cell at a scale
// constructs and ingests the suite, concurrent cells at the same scale
// block on (and share) it.
type suiteCell struct {
	once  sync.Once
	suite *experiments.Suite
	err   error
}

// NewRunner builds a runner. traceDir, when non-empty, is handed to
// every suite it constructs (recorded traces instead of generated
// ones). A nil logger means silent.
func NewRunner(traceDir string, log *obs.Logger) *Runner {
	if log == nil {
		log = obs.Discard
	}
	return &Runner{
		traceDir: traceDir,
		log:      log,
		suites:   map[suiteKey]*suiteCell{},
	}
}

// suite returns the cached suite for a scale, building and ingesting it
// on first use.
func (r *Runner) suite(ctx context.Context, key suiteKey) (*experiments.Suite, error) {
	r.mu.Lock()
	cell, ok := r.suites[key]
	if !ok {
		cell = &suiteCell{}
		r.suites[key] = cell
	}
	r.mu.Unlock()
	cell.once.Do(func() {
		s := experiments.NewSuite(experiments.Config{
			BaseRecords:    key.base,
			ProfileRecords: key.profBase,
			TraceDir:       r.traceDir,
		})
		skipped, err := s.IngestTraces(ctx)
		if err != nil {
			cell.err = err
			return
		}
		for bench, reason := range skipped {
			r.log.Progressf("dist: worker skipping benchmark %s: %s", bench, reason)
		}
		cell.suite = s
	})
	if cell.err != nil && (errors.Is(cell.err, context.Canceled) || errors.Is(cell.err, context.DeadlineExceeded)) {
		// A build cut short by one request's deadline says nothing about
		// the scale itself; caching it would poison every later cell at
		// this scale with a permanent failure. Evict so the next request
		// rebuilds.
		r.mu.Lock()
		if r.suites[key] == cell {
			delete(r.suites, key)
		}
		r.mu.Unlock()
	}
	return cell.suite, cell.err
}

// RunJob executes one job and renders it as the wire response: for an
// experiment job, the artifact text plus the marshalled bench report;
// for a cell job, the column's raw rates. A failing job comes back as a
// *serve.JobFailedError so the endpoint classifies it as a
// non-retryable job-failed 500; a canceled context surfaces as the
// context error (retryable elsewhere).
func (r *Runner) RunJob(ctx context.Context, req serve.JobRequest) (serve.JobResponse, error) {
	if req.Cell != "" {
		return r.runCellJob(ctx, req)
	}
	entry, err := experiments.Find(req.Exp)
	if err != nil {
		return serve.JobResponse{}, err
	}
	suite, err := r.suite(ctx, suiteKey{base: req.BaseRecords, profBase: req.ProfileRecords})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The requester's deadline cut the build; answer retryable
			// (503) rather than branding the cell job-failed.
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

// runCellJob executes one engine cell: parse the canonical key, resolve
// it through the suite's grid registry, and submit it to the suite's
// engine. The engine memoizes by key, so a cell job that lands on a
// worker before (or while) an experiment job needs the same column
// shares one replay with it — the mechanism behind the coordinator's
// pre-warming.
func (r *Runner) runCellJob(ctx context.Context, req serve.JobRequest) (serve.JobResponse, error) {
	key, err := engine.ParseKey(req.Cell)
	if err != nil {
		return serve.JobResponse{}, &serve.JobFailedError{Exp: req.Cell, Err: err}
	}
	suite, err := r.suite(ctx, suiteKey{base: req.BaseRecords, profBase: req.ProfileRecords})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return serve.JobResponse{}, err
		}
		return serve.JobResponse{}, &serve.JobFailedError{Exp: req.Cell, Err: err}
	}
	start := time.Now()
	cell, err := suite.ColumnCell(ctx, key)
	if err == nil {
		var rates []float64
		rates, err = suite.Engine().Column(ctx, cell)
		if err == nil {
			return serve.JobResponse{
				Cell:      req.Cell,
				Rates:     rates,
				WallNanos: time.Since(start).Nanoseconds(),
			}, nil
		}
	}
	if ctx.Err() != nil {
		return serve.JobResponse{}, ctx.Err()
	}
	return serve.JobResponse{}, &serve.JobFailedError{Exp: req.Cell, Err: err}
}
