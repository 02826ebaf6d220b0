package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runx"
	"repro/internal/serve"
)

// Options configures one coordinated sweep.
type Options struct {
	// Workers are the base URLs of the vlpserve workers
	// ("http://127.0.0.1:9001"). At least one is required.
	Workers []string
	// Exp selects experiments as in paperrepro -exp; empty means the
	// full registry.
	Exp string
	// BaseRecords/ProfileRecords pin the suite scale of every cell
	// (0 = suite defaults), shipped verbatim in each job request.
	BaseRecords    int
	ProfileRecords int
	// OutDir, when set, receives <id>.txt rendered artifacts.
	OutDir string
	// JSONDir, when set, receives bench_<id>.json reports, the
	// bench_sweep.json summary, and the resume manifest.
	JSONDir string
	// Resume skips cells whose manifest entry points at a bench report
	// that still reads back clean (needs JSONDir).
	Resume bool
	// HealthInterval is the worker health-probe period; 0 means 500ms.
	HealthInterval time.Duration
	// Backoff shapes per-worker retries of saturated/transient cells;
	// the zero value means defaultJobBackoff.
	Backoff runx.Backoff
	// JobTimeout bounds one job attempt end to end — request, worker
	// execution, and response body — as a context deadline on the
	// attempt; 0 means 2m. It must cover the worker's first-cell suite
	// build, which is the slowest attempt of a sweep.
	JobTimeout time.Duration
	// Transport, when non-nil, underlies every job client — the seam
	// vlpsweep -chaos uses to inject transport faults. Health probes
	// (both the background prober and the breaker's half-open probe)
	// always use a plain transport: liveness answers "is the process
	// up", never "is the network kind today".
	Transport http.RoundTripper
	// BreakerThreshold is how many consecutive transport failures open
	// a worker's circuit breaker; 0 means 3.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before its
	// half-open /v1/healthz probe; 0 means 500ms.
	BreakerCooldown time.Duration
	// Log narrates progress; nil means silent.
	Log *obs.Logger
}

// defaultJobBackoff retries a refused cell on the same worker a few
// times before giving up on it; Max is above the server's 1s
// Retry-After hint so the hint is honored, not clamped away.
func defaultJobBackoff() runx.Backoff {
	return runx.Backoff{Attempts: 4, Initial: 200 * time.Millisecond, Max: 5 * time.Second, Factor: 2}
}

// maxStrikes bounds how many times one cell may be requeued for
// transport trouble before the sweep records it as failed. Transient
// faults clear well before this; only a systematically poisoned path
// (every worker garbling every attempt) exhausts it, and that deserves
// a loud failure rather than an infinite bounce.
const maxStrikes = 16

// WorkerStats is one worker's share of the sweep, recorded in the
// summary report.
type WorkerStats struct {
	URL string `json:"url"`
	// Jobs is how many cells the worker completed successfully.
	Jobs int64 `json:"jobs"`
	// Requeues counts cells taken back from this worker — it died
	// mid-cell, refused service permanently, or its breaker opened.
	Requeues int64 `json:"requeues"`
	// BreakerTrips counts how many times the worker's circuit breaker
	// opened during the sweep.
	BreakerTrips int64 `json:"breaker_trips,omitempty"`
	// Alive is the worker's liveness at sweep end.
	Alive bool `json:"alive"`
	// Latency is the per-cell round-trip distribution.
	Latency obs.HistSummary `json:"latency"`
}

// SweepData is the Data payload of the bench_sweep.json summary.
type SweepData struct {
	Workers []WorkerStats `json:"workers"`
	// Cells is how many experiment cells the sweep dispatched (after
	// resume skips).
	Cells int `json:"cells"`
	// Failed lists cells that terminally failed.
	Failed []string `json:"failed,omitempty"`
}

// cell is one queued unit: the experiment plus the wire request that
// reproduces it, and the strikes it has accumulated from transport
// requeues.
type cell struct {
	id      string
	req     serve.JobRequest
	strikes int
}

// worker is the coordinator's view of one vlpserve process.
type worker struct {
	url string
	// client runs job requests; it may carry a chaos transport.
	client *http.Client
	// probeClient runs health checks on a plain transport.
	probeClient *http.Client
	// breaker suspends dispatch to the worker after consecutive
	// transport failures; a /v1/healthz probe plays the half-open role.
	breaker    *runx.Breaker
	jobTimeout time.Duration
	alive      atomic.Bool

	jobs     atomic.Int64
	requeues atomic.Int64
	trips    atomic.Int64
	hist     obs.Histogram
}

// validReport gates resume: a manifest entry only satisfies its cell if
// the bench report it points at still reads back clean.
func validReport(path string) error {
	_, err := obs.ReadReport(path)
	return err
}

// Sweep runs the whole coordinated sweep: enumerate cells, dispatch
// them work-stealing over the workers, merge results into OutDir and
// JSONDir, and write the bench_sweep.json summary. It returns the
// summary report; the error is non-nil if any cell terminally failed
// or the context was canceled, but — like paperrepro — only after
// every other cell has run.
func Sweep(ctx context.Context, opts Options) (*obs.Report, error) {
	if len(opts.Workers) == 0 {
		return nil, fmt.Errorf("dist: no workers given")
	}
	if opts.Resume && opts.JSONDir == "" {
		return nil, fmt.Errorf("dist: resume needs a json dir to know where prior results live")
	}
	log := opts.Log
	if log == nil {
		log = obs.Discard
	}
	entries, err := experiments.Select(opts.Exp)
	if err != nil {
		return nil, err
	}
	backoff := opts.Backoff
	if backoff.Attempts == 0 {
		backoff = defaultJobBackoff()
	}
	healthInterval := opts.HealthInterval
	if healthInterval <= 0 {
		healthInterval = 500 * time.Millisecond
	}
	jobTimeout := opts.JobTimeout
	if jobTimeout <= 0 {
		jobTimeout = 2 * time.Minute
	}
	breakerThreshold := opts.BreakerThreshold
	if breakerThreshold <= 0 {
		breakerThreshold = 3
	}
	breakerCooldown := opts.BreakerCooldown
	if breakerCooldown <= 0 {
		breakerCooldown = 500 * time.Millisecond
	}

	// The checkpoint manifest is the same file paperrepro writes, so a
	// sweep can resume a partial in-process run and vice versa.
	var manifest *runx.Manifest
	var manifestPath string
	if opts.JSONDir != "" {
		manifestPath = runx.ManifestPath(opts.JSONDir)
		if prior, err := runx.LoadManifest(manifestPath); err == nil {
			manifest = prior
		} else {
			manifest = runx.NewManifest()
		}
	}

	summary := obs.NewReport("sweep", "distributed sweep run")
	summary.SetParam("base_records", opts.BaseRecords)
	summary.SetParam("profile_records", opts.ProfileRecords)
	summary.SetParam("workers", len(opts.Workers))

	var cells []cell
	for _, e := range entries {
		if opts.Resume && manifest.Satisfied(e.ID, validReport) {
			log.Progressf("dist: %s already complete, skipping", e.ID)
			summary.AddSkip(e.ID, "resumed: valid report already on disk")
			continue
		}
		cells = append(cells, cell{id: e.ID, req: serve.JobRequest{
			Exp:            e.ID,
			BaseRecords:    opts.BaseRecords,
			ProfileRecords: opts.ProfileRecords,
		}})
	}

	workers := make([]*worker, len(opts.Workers))
	for i, url := range opts.Workers {
		workers[i] = &worker{
			url:         url,
			client:      &http.Client{Transport: opts.Transport},
			probeClient: &http.Client{Timeout: 2 * time.Second},
			breaker:     runx.NewBreaker(breakerThreshold, breakerCooldown),
			jobTimeout:  jobTimeout,
		}
		workers[i].alive.Store(true)
	}

	span := obs.StartSpan()
	span.SetWorkers(len(workers))
	var failed []string

	if len(cells) > 0 {
		// The queue is the work-stealing heart: every cell sits in one
		// shared buffered channel and each worker pulls as it frees up.
		// Capacity covers every cell so a requeue never blocks (each
		// cell occupies at most one slot at a time).
		queue := make(chan cell, len(cells))
		for _, c := range cells {
			queue <- c
		}

		// pending counts cells not yet terminally recorded. The last
		// done() closes the queue — which stops pullers blocked on it —
		// and sweepDone — which stops pullers parked in breaker
		// recovery, where they are not reading the queue at all.
		var mu sync.Mutex
		pending := len(cells)
		sweepDone := make(chan struct{})
		done := func() {
			mu.Lock()
			pending--
			if pending == 0 {
				close(queue)
				close(sweepDone)
			}
			mu.Unlock()
		}
		checkpoint := func(e runx.ManifestEntry) error {
			if manifest == nil {
				return nil
			}
			mu.Lock()
			defer mu.Unlock()
			manifest.Set(e)
			return manifest.Save(manifestPath)
		}
		recordFailure := func(id string, err error) {
			mu.Lock()
			failed = append(failed, id)
			summary.AddFailure(id, classifyFailure(err), err)
			mu.Unlock()
			log.Logf("dist: cell %s failed: %v", id, err)
			if cerr := checkpoint(runx.ManifestEntry{ID: id, Status: runx.StatusFailed, Error: err.Error()}); cerr != nil {
				log.Logf("dist: checkpoint: %v", cerr)
			}
			done()
		}

		// Health probers: two consecutive failed /v1/healthz probes
		// retire a worker, so cells stop flowing to it even between
		// jobs.
		probeCtx, probeCancel := context.WithCancel(context.Background())
		var probeWG sync.WaitGroup
		for _, w := range workers {
			probeWG.Add(1)
			go func(w *worker) {
				defer probeWG.Done()
				w.probe(probeCtx, healthInterval, log)
			}(w)
		}

		var pullWG sync.WaitGroup
		for _, w := range workers {
			pullWG.Add(1)
			go func(w *worker) {
				defer pullWG.Done()
				w.pull(ctx, queue, sweepDone, backoff, log, func(c cell, res serve.JobResponse, err error) {
					if err != nil {
						recordFailure(c.id, err)
						return
					}
					benchPath, err := mergeCell(opts, res)
					if err != nil {
						recordFailure(c.id, err)
						return
					}
					log.Progressf("dist: %s done on %s", c.id, w.url)
					entry := runx.ManifestEntry{
						ID: c.id, Status: runx.StatusOK, Output: benchPath, WallNanos: res.WallNanos,
					}
					if benchPath != "" {
						if sum, serr := runx.FileChecksum(benchPath); serr == nil {
							entry.Checksum = sum
						}
					}
					if cerr := checkpoint(entry); cerr != nil {
						log.Logf("dist: checkpoint: %v", cerr)
					}
					done()
				})
			}(w)
		}
		pullWG.Wait()
		probeCancel()
		probeWG.Wait()

		// Every puller has exited. Any cell still pending is sitting in
		// the queue (a dying worker requeues its in-flight cell before
		// exiting): the context was canceled, or every worker died.
		mu.Lock()
		remaining := pending
		mu.Unlock()
		if remaining > 0 {
			canceled := ctx.Err() != nil
			for i := 0; i < remaining; i++ {
				c := <-queue
				if canceled {
					summary.AddSkip(c.id, "canceled before completion")
				} else {
					recordFailure(c.id, fmt.Errorf("dist: no live workers left"))
					continue
				}
				done()
			}
		}
	}

	summary.Metrics = span.End()
	stats := make([]WorkerStats, len(workers))
	for i, w := range workers {
		stats[i] = WorkerStats{
			URL:          w.url,
			Jobs:         w.jobs.Load(),
			Requeues:     w.requeues.Load(),
			BreakerTrips: w.trips.Load(),
			Alive:        w.alive.Load(),
			Latency:      w.hist.Summary(),
		}
	}
	summary.Data = SweepData{Workers: stats, Cells: len(cells), Failed: failed}

	if opts.JSONDir != "" {
		path, err := summary.WriteBench(opts.JSONDir)
		if err != nil {
			return summary, err
		}
		log.Progressf("dist: wrote %s", path)
	}
	if err := ctx.Err(); err != nil {
		return summary, fmt.Errorf("dist: interrupted: %w", err)
	}
	if len(failed) > 0 {
		return summary, fmt.Errorf("dist: %d cell(s) failed: %v", len(failed), failed)
	}
	return summary, nil
}

// classifyFailure maps a cell error to the summary's failure kind,
// mirroring cmd/paperrepro's classification.
func classifyFailure(err error) obs.FailureKind {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return obs.FailureTimeout
	case errors.Is(err, context.Canceled):
		return obs.FailureCanceled
	default:
		return obs.FailureError
	}
}

// mergeCell lands one finished cell in the results directories: the
// rendered text exactly as paperrepro writes it, and the worker's bench
// blob re-validated through the report decoder.
func mergeCell(opts Options, res serve.JobResponse) (benchPath string, err error) {
	if opts.OutDir != "" {
		if _, err := experiments.WriteText(opts.OutDir, res.Exp, res.Title, res.Text); err != nil {
			return "", err
		}
	}
	if opts.JSONDir != "" {
		benchPath, err = experiments.WriteBenchBlob(opts.JSONDir, res.Exp, res.Bench)
		if err != nil {
			return "", err
		}
	}
	return benchPath, nil
}

// cellVerdict is what one runCell pass concluded about its cell.
type cellVerdict int

const (
	// cellDone: the cell completed; merge its response.
	cellDone cellVerdict = iota
	// cellFailed: the cell itself terminally failed; record it.
	cellFailed
	// cellRequeue: transport trouble (fault, timeout, open breaker) —
	// the cell is fine, put it back with a strike and let any worker
	// (including this one, recovered) take it again.
	cellRequeue
	// cellWorkerDead: the worker can never serve cells (jobs disabled);
	// retire it and requeue without a strike.
	cellWorkerDead
)

// errWorkerSuspended aborts a retry loop whose worker's breaker opened
// mid-cell; the cell goes back to the queue while the worker sits out
// its cooldown.
var errWorkerSuspended = errors.New("dist: worker suspended by its circuit breaker")

// pull is one worker's dispatch loop: take the next cell, run it to a
// verdict, act on the verdict. A worker whose breaker is open stops
// taking cells and instead probes /v1/healthz on the breaker's
// half-open schedule until the circuit closes, the sweep finishes, or
// the background prober retires it.
func (w *worker) pull(ctx context.Context, queue chan cell, sweepDone <-chan struct{},
	b runx.Backoff, log *obs.Logger, record func(cell, serve.JobResponse, error)) {
	for {
		if !w.alive.Load() || ctx.Err() != nil {
			return
		}
		if w.breaker.State() != runx.BreakerClosed {
			// Suspended: no cells flow. When the cooldown admits the
			// half-open probe, ask the worker directly whether it is
			// back; only a probe success resumes dispatch.
			if w.breaker.Allow() {
				if err := w.healthProbe(ctx); err != nil {
					w.breaker.Failure()
				} else {
					w.breaker.Success()
					log.Logf("dist: worker %s recovered — resuming dispatch", w.url)
				}
			}
			select {
			case <-ctx.Done():
				return
			case <-sweepDone:
				return
			case <-time.After(20 * time.Millisecond):
			}
			continue
		}
		select {
		case <-ctx.Done():
			return
		case c, ok := <-queue:
			if !ok {
				return
			}
			start := time.Now()
			res, verdict, err := w.runCell(ctx, b, c)
			if ctx.Err() != nil {
				// Canceled mid-cell: the cell is not lost — put it back
				// so the drain pass records it, and stop pulling.
				queue <- c
				return
			}
			switch verdict {
			case cellWorkerDead:
				w.alive.Store(false)
				w.requeues.Add(1)
				log.Logf("dist: worker %s lost mid-cell (%s): %v — requeueing", w.url, c.id, err)
				queue <- c
				return
			case cellRequeue:
				w.requeues.Add(1)
				c.strikes++
				if c.strikes >= maxStrikes {
					record(c, res, fmt.Errorf("dist: cell %s requeued %d times without completing: %w", c.id, c.strikes, err))
					continue
				}
				log.Logf("dist: worker %s could not finish %s (strike %d): %v — requeueing", w.url, c.id, c.strikes, err)
				queue <- c
			case cellDone:
				w.jobs.Add(1)
				w.hist.Observe(time.Since(start))
				record(c, res, nil)
			default: // cellFailed
				record(c, res, err)
			}
		case <-time.After(50 * time.Millisecond):
			// Idle tick: re-check liveness and breaker state so a
			// probed-out worker stops pulling even while the queue is
			// empty.
		}
	}
}

// runCell posts one cell to the worker, retrying saturated/transient
// refusals in place (honoring Retry-After) and feeding the breaker:
// transport failures — unreachable worker, torn or garbled response,
// attempt timeout — count against it; any complete well-formed exchange
// resets it, whatever the answer says. The breaker gate runs before a
// request is even built, so a suspended worker makes no network
// attempts (and, under -chaos, draws nothing from the fault schedule)
// until its health probe succeeds.
func (w *worker) runCell(ctx context.Context, b runx.Backoff, c cell) (res serve.JobResponse, verdict cellVerdict, err error) {
	body, err := json.Marshal(c.req)
	if err != nil {
		return res, cellFailed, err
	}
	verdict = cellDone
	transport := func(ferr error) error {
		if ctx.Err() != nil {
			// The sweep itself is over; don't blame the worker.
			verdict = cellRequeue
			return ctx.Err()
		}
		w.breaker.Failure()
		if w.breaker.State() == runx.BreakerOpen {
			w.trips.Add(1)
		}
		verdict = cellRequeue
		return runx.MarkTransient(ferr)
	}
	err = runx.Retry(ctx, b, func() error {
		if !w.alive.Load() {
			verdict = cellRequeue
			return fmt.Errorf("dist: worker %s retired mid-cell", w.url)
		}
		if w.breaker.State() != runx.BreakerClosed {
			verdict = cellRequeue
			return errWorkerSuspended
		}
		// The attempt context carries the job timeout to the worker and
		// through every read, so a stalled response unwedges here — not
		// never.
		actx, cancel := context.WithTimeout(ctx, w.jobTimeout)
		defer cancel()
		req, rerr := http.NewRequestWithContext(actx, http.MethodPost, w.url+"/v1/jobs", bytes.NewReader(body))
		if rerr != nil {
			verdict = cellFailed
			return rerr
		}
		req.Header.Set("Content-Type", "application/json")
		resp, derr := w.client.Do(req)
		if derr != nil {
			return transport(fmt.Errorf("dist: worker %s unreachable: %w", w.url, derr))
		}
		defer resp.Body.Close()
		raw, rderr := io.ReadAll(resp.Body)
		if rderr != nil {
			return transport(fmt.Errorf("dist: worker %s died mid-response: %w", w.url, rderr))
		}
		if resp.StatusCode == http.StatusOK {
			if uerr := json.Unmarshal(raw, &res); uerr != nil {
				// A 200 that does not decode is a torn or garbled body —
				// transport damage, not a cell failure.
				return transport(fmt.Errorf("dist: worker %s returned a garbled response: %w", w.url, uerr))
			}
			w.breaker.Success()
			verdict = cellDone
			return nil
		}
		env, ok := serve.DecodeEnvelope(raw)
		if !ok {
			return transport(fmt.Errorf("dist: worker %s: status %d with non-envelope body %.80q", w.url, resp.StatusCode, raw))
		}
		// A well-formed envelope is a completed exchange: the transport
		// is healthy, whatever the answer says.
		w.breaker.Success()
		envErr := fmt.Errorf("dist: worker %s: %s: %s", w.url, env.Code, env.Message)
		if env.Code == serve.CodeJobsDisabled {
			// Not a cell failure: this worker can never run jobs, so
			// retire it and let the cell move on.
			verdict = cellWorkerDead
			return envErr
		}
		if env.Retryable {
			// Saturation or a transient worker condition: retry in
			// place; if the attempts run out, bounce the cell rather
			// than fail it.
			verdict = cellRequeue
			if d, ok := serve.ParseRetryAfter(resp); ok {
				return runx.RetryAfter(envErr, d)
			}
			return runx.MarkTransient(envErr)
		}
		verdict = cellFailed
		return envErr
	})
	return res, verdict, err
}

// healthProbe asks /v1/healthz once, bounded and context-aware, on the
// plain (never chaos-wrapped) probe client.
func (w *worker) healthProbe(ctx context.Context) error {
	pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, w.url+"/v1/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := w.probeClient.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("dist: worker %s healthz status %d", w.url, resp.StatusCode)
	}
	return nil
}

// probe retires the worker after two consecutive failed health checks,
// so a silently dead worker stops receiving cells even when it has
// none in flight.
func (w *worker) probe(ctx context.Context, interval time.Duration, log *obs.Logger) {
	t := time.NewTicker(interval)
	defer t.Stop()
	fails := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if !w.alive.Load() {
				return
			}
			if err := w.healthProbe(ctx); err != nil {
				fails++
			} else {
				fails = 0
			}
			if fails >= 2 {
				log.Logf("dist: worker %s failed %d health checks — retiring it", w.url, fails)
				w.alive.Store(false)
				return
			}
		}
	}
}
