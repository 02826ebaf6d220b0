package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// JobRequest is the body of POST /v1/jobs: one experiment of a
// distributed sweep at a given suite scale. The scale fields pin the
// deterministic workload, so every worker given the same job produces
// the same artifact (the property the dist coordinator's byte-identity
// assertion rests on). A body with any other field is rejected.
type JobRequest struct {
	// Exp is the experiment ID ("headline", "fig9", "ablation-ras", ...).
	Exp string `json:"exp,omitempty"`
	// BaseRecords is the suite base trace length (0 = suite default).
	BaseRecords int `json:"base_records,omitempty"`
	// ProfileRecords is the profile input length (0 = BaseRecords).
	ProfileRecords int `json:"profile_records,omitempty"`
}

// Validate rejects jobs the runner cannot address.
func (r JobRequest) Validate() error {
	switch {
	case r.Exp == "":
		return fmt.Errorf("serve: job has no experiment id")
	case r.BaseRecords < 0 || r.ProfileRecords < 0:
		return fmt.Errorf("serve: job scale must not be negative (base=%d profile=%d)",
			r.BaseRecords, r.ProfileRecords)
	}
	return nil
}

// JobResponse is the finished job: the rendered text artifact and the
// repro-bench/v1 report blob, exactly the two files the in-process
// paperrepro path writes for the same experiment — the coordinator
// merges these verbatim into the sweep's results directory.
type JobResponse struct {
	Exp   string `json:"exp,omitempty"`
	Title string `json:"title,omitempty"`
	// Text is the rendered table/chart — the deterministic artifact the
	// dist smoke compares byte-for-byte against the batch path.
	Text string `json:"text"`
	// Bench is the marshalled repro-bench/v1 report (indented JSON plus
	// trailing newline, the obs.Report.Write encoding).
	Bench json.RawMessage `json:"bench"`
	// WallNanos is how long the cell ran on the worker.
	WallNanos int64 `json:"wall_ns"`
}

// JobRunner executes one experiment cell. internal/dist provides the
// worker-side implementation (a per-config cache of experiment suites);
// a server with no runner answers /v1/jobs with a jobs-disabled
// envelope.
type JobRunner interface {
	RunJob(ctx context.Context, req JobRequest) (JobResponse, error)
}

// JobFailedError marks a cell that ran and failed — a deterministic
// experiment failure, classified as a non-retryable 500 so the
// coordinator records it instead of bouncing it between workers.
type JobFailedError struct {
	Exp string
	Err error
}

func (e *JobFailedError) Error() string {
	return fmt.Sprintf("job %s failed: %v", e.Exp, e.Err)
}

func (e *JobFailedError) Unwrap() error { return e.Err }

// SetJobRunner mounts a job runner on the server. Call before Handler;
// a nil runner (the default) leaves the endpoint answering
// jobs-disabled.
func (s *Server) SetJobRunner(r JobRunner) { s.jobs = r }

// maxJobBody bounds a job-request body; cells are tiny JSON documents.
const maxJobBody = 64 << 10

func (s *Server) handleRunJob(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		s.clientErrs.Add(1)
		writeJSON(w, http.StatusNotImplemented, Envelope{
			Code:    CodeJobsDisabled,
			Message: "this server mounts no job runner (start vlpserve with -jobs)",
		})
		return
	}
	// Jobs share the predict worker pool: a sweep cell is the heaviest
	// request the server runs, so saturation must refuse it while it is
	// still cheap, exactly as it refuses a predict chunk.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests,
			Envelope{Code: CodeSaturated, Message: "all workers busy", Retryable: true})
		return
	}
	if s.testHookJob != nil {
		s.testHookJob()
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxJobBody))
	if err != nil {
		s.writeError(w, err)
		return
	}
	var req JobRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, fmt.Errorf("serve: bad job request: %w", err))
		return
	}
	if err := req.Validate(); err != nil {
		s.writeError(w, err)
		return
	}
	start := time.Now()
	res, err := s.jobs.RunJob(r.Context(), req)
	if err != nil {
		s.jobsFailed.Add(1)
		s.writeError(w, err)
		return
	}
	s.jobsRun.Add(1)
	s.log.Progressf("serve: job %s done in %v", req.Exp, time.Since(start).Round(time.Millisecond))
	writeJSON(w, http.StatusOK, res)
}
