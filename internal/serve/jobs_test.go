package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// stubRunner is a canned JobRunner for exercising the endpoint without
// dragging real experiments into the serve tests.
type stubRunner struct {
	run func(ctx context.Context, req JobRequest) (JobResponse, error)
}

func (s stubRunner) RunJob(ctx context.Context, req JobRequest) (JobResponse, error) {
	return s.run(ctx, req)
}

func postJob(t testing.TB, baseURL string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestJobsEndpoint drives the happy path: a mounted runner receives the
// decoded cell and its response reaches the client intact, counted in
// the metrics.
func TestJobsEndpoint(t *testing.T) {
	s, err := New(testLimits(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var got JobRequest
	s.SetJobRunner(stubRunner{run: func(_ context.Context, req JobRequest) (JobResponse, error) {
		got = req
		return JobResponse{
			Exp:   req.Exp,
			Title: "Headline",
			Text:  "table body\n",
			Bench: json.RawMessage(`{"schema":"repro-bench/v1"}`),
		}, nil
	}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(JobRequest{Exp: "headline", BaseRecords: 12000, ProfileRecords: 6000})
	resp, raw := postJob(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job: status %d (%s)", resp.StatusCode, raw)
	}
	if got.Exp != "headline" || got.BaseRecords != 12000 || got.ProfileRecords != 6000 {
		t.Fatalf("runner saw %+v", got)
	}
	var res JobResponse
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("bad job response %q: %v", raw, err)
	}
	// writeJSON re-indents the embedded RawMessage, so compare the
	// decoded value, not the bytes.
	var bench map[string]any
	if err := json.Unmarshal(res.Bench, &bench); err != nil {
		t.Fatalf("bench blob %q: %v", res.Bench, err)
	}
	if res.Exp != "headline" || res.Text != "table body\n" || bench["schema"] != "repro-bench/v1" {
		t.Fatalf("job response %+v lost content", res)
	}
	if s.jobsRun.Load() != 1 || s.jobsFailed.Load() != 0 {
		t.Fatalf("job counters = %d/%d, want 1/0", s.jobsRun.Load(), s.jobsFailed.Load())
	}
}

// TestJobRequestValidate pins the unit contract: a job names an
// experiment, at a non-negative scale.
func TestJobRequestValidate(t *testing.T) {
	cases := []struct {
		name string
		req  JobRequest
		ok   bool
	}{
		{"exp only", JobRequest{Exp: "headline"}, true},
		{"no exp", JobRequest{}, false},
		{"negative scale", JobRequest{Exp: "headline", BaseRecords: -1}, false},
	}
	for _, c := range cases {
		if err := c.req.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestJobsDisabled asserts a server with no runner answers 501 with the
// jobs-disabled code rather than 404, so a coordinator pointed at a
// plain vlpserve gets an actionable error.
func TestJobsDisabled(t *testing.T) {
	_, ts := newTestServer(t, testLimits())
	body, _ := json.Marshal(JobRequest{Exp: "headline"})
	resp, raw := postJob(t, ts.URL, body)
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status %d, want 501", resp.StatusCode)
	}
	env, ok := DecodeEnvelope(raw)
	if !ok || env.Code != CodeJobsDisabled || env.Retryable {
		t.Fatalf("body %q decoded to %+v", raw, env)
	}
}

// TestJobsBadRequests covers the request-validation failures: broken
// JSON, jobs the runner cannot address, and fields the job shape does
// not have — a single engine cell is not a job.
func TestJobsBadRequests(t *testing.T) {
	s, err := New(testLimits(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s.SetJobRunner(stubRunner{run: func(context.Context, JobRequest) (JobResponse, error) {
		t.Error("runner invoked for an invalid request")
		return JobResponse{}, nil
	}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for name, body := range map[string][]byte{
		"broken json":    []byte("{nope"),
		"no experiment":  []byte(`{}`),
		"negative scale": []byte(`{"exp":"headline","base_records":-1}`),
		"cell key":       []byte(`{"cell":"indirect|gcc|compare-ind-2048","base_records":30000}`),
		"exp and cell":   []byte(`{"exp":"headline","cell":"cond|gcc|fig9"}`),
	} {
		resp, raw := postJob(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
			continue
		}
		if env, ok := DecodeEnvelope(raw); !ok || env.Code != CodeInvalid || env.Retryable {
			t.Errorf("%s: body %q decoded to %+v", name, raw, env)
		}
	}
}

// TestJobFailedEnvelope asserts a cell that runs and fails surfaces as
// a non-retryable job-failed 500 — the coordinator must record it, not
// bounce it between workers.
func TestJobFailedEnvelope(t *testing.T) {
	s, err := New(testLimits(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s.SetJobRunner(stubRunner{run: func(_ context.Context, req JobRequest) (JobResponse, error) {
		return JobResponse{}, &JobFailedError{Exp: req.Exp, Err: fmt.Errorf("trace corrupt")}
	}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(JobRequest{Exp: "fig9"})
	resp, raw := postJob(t, ts.URL, body)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	env, ok := DecodeEnvelope(raw)
	if !ok || env.Code != CodeJobFailed || env.Retryable {
		t.Fatalf("body %q decoded to %+v", raw, env)
	}
	if s.jobsFailed.Load() != 1 {
		t.Fatalf("jobsFailed = %d, want 1", s.jobsFailed.Load())
	}
}

// TestJobsSaturation asserts jobs share the predict worker pool: with
// the single slot held, a job is refused with a retryable 429 carrying
// Retry-After.
func TestJobsSaturation(t *testing.T) {
	limits := testLimits()
	limits.Workers = 1
	s, err := New(limits, nil)
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.SetJobRunner(stubRunner{run: func(context.Context, JobRequest) (JobResponse, error) {
		return JobResponse{Exp: "headline"}, nil
	}})
	s.testHookJob = func() {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(JobRequest{Exp: "headline"})

	done := make(chan int, 1)
	go func() {
		resp, _ := postJob(t, ts.URL, body)
		done <- resp.StatusCode
	}()
	<-entered
	s.testHookJob = nil
	resp, raw := postJob(t, ts.URL, body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated job: status %d (%s), want 429", resp.StatusCode, raw)
	}
	env, ok := DecodeEnvelope(raw)
	if !ok || env.Code != CodeSaturated || !env.Retryable {
		t.Fatalf("saturated job body %q decoded to %+v", raw, env)
	}
	if d, ok := ParseRetryAfter(resp); !ok || d <= 0 {
		t.Fatalf("saturated job Retry-After = %v, %v", d, ok)
	}
	close(release)
	if st := <-done; st != http.StatusOK {
		t.Fatalf("in-flight job: status %d, want 200", st)
	}
}
