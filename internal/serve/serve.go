// Package serve is the prediction-as-a-service layer: a long-lived HTTP
// server that amortizes predictor construction across many requests.
// Clients create named sessions — each owning one predictor built from
// the factory spec grammar — and stream trace chunks (the internal/trace
// VLPT wire format, gzip accepted) at them; every chunk is replayed
// through the same sim kernel call the batch tools use, so a
// session's accumulated misprediction rate is bit-identical to a vlpsim
// run over the concatenated records (the serve-smoke CI stage pins
// this).
//
// The API surface is versioned: every canonical route lives under /v1/
// and every failure carries the same structured Envelope body ({code,
// message, retryable}), with retryable failures also carrying a
// Retry-After header. POST /v1/jobs additionally exposes the server as
// a sweep worker: internal/dist mounts a JobRunner that executes one
// experiment cell per request for the vlpsweep coordinator.
//
// The layer threads through the existing substrate rather than
// duplicating it: internal/runx supplies graceful shutdown on
// SIGINT/SIGTERM with connection draining, per-request panic isolation,
// and the retry classification behind the HTTP status mapping (corrupt
// chunks are 400 and must not be retried; saturation and transient
// failures are 429/503 and may be); internal/obs supplies the
// /v1/metrics payload (repro-bench/v1 JSON) and request-latency
// histograms. The degradation policy — session LRU + idle TTL, request
// body caps, a bounded worker pool that answers saturation with 429 —
// lives in Limits. DESIGN.md §10 describes the service model and §11
// the distributed execution on top of it.
package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/runx"
	"repro/internal/trace"
)

// Server holds the session registry, the worker pool, and the server-
// wide counters. Build one with New, mount Handler on any http.Server
// (the tests use httptest), or let Serve run the full lifecycle.
type Server struct {
	limits Limits
	log    *obs.Logger
	reg    *registry
	// sem is the bounded worker pool: a predict request must take a
	// slot without blocking or be rejected with 429, so saturation
	// degrades into fast, retryable refusals instead of an unbounded
	// queue of slow ones.
	sem  chan struct{}
	span *obs.Span
	hist obs.Histogram

	// jobs, when set (SetJobRunner), serves POST /v1/jobs — the
	// distributed-sweep execution endpoint internal/dist implements.
	jobs JobRunner

	// mw, when set (SetMiddleware), wraps the routed handler outermost.
	// vlpserve mounts the chaos fault injector here; being outside the
	// recoverable panic boundary, an injected http.ErrAbortHandler
	// reaches net/http and genuinely drops the connection instead of
	// being converted into a structured 500.
	mw func(http.Handler) http.Handler

	// spillDir, when set (SetSpillDir), enables session hibernation:
	// write-through snapshots after every chunk plus spill on eviction
	// and drain, with transparent rehydration on the next request. See
	// spill.go.
	spillDir string
	// snapFault, when set (SetSnapFault), injects failures into every
	// snapshot file operation — the chaos seam for the spill path.
	snapFault func() error

	requests    atomic.Int64
	predicts    atomic.Int64
	rejected    atomic.Int64
	clientErrs  atomic.Int64
	serverErrs  atomic.Int64
	panics      atomic.Int64
	bytesIn     atomic.Int64
	recordsIn   atomic.Int64
	branchesRun atomic.Int64
	jobsRun     atomic.Int64
	jobsFailed  atomic.Int64

	snapsSaved        atomic.Int64
	snapsRestored     atomic.Int64
	rehydrateFailures atomic.Int64

	// testHookPredict/testHookJob, when set by a test, run while the
	// request holds its worker slot — the seam the saturation and drain
	// tests use to hold a request in flight deterministically.
	testHookPredict func()
	testHookJob     func()
}

// New builds a server with the given degradation policy. A nil logger
// means silent.
func New(limits Limits, log *obs.Logger) (*Server, error) {
	if err := limits.Validate(); err != nil {
		return nil, err
	}
	if log == nil {
		log = obs.Discard
	}
	return &Server{
		limits: limits,
		log:    log,
		reg:    newRegistry(limits.MaxSessions, limits.IdleTTL),
		sem:    make(chan struct{}, limits.Workers),
		span:   obs.StartSpan(),
	}, nil
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	status, code, retryable := classify(err)
	if status >= 500 {
		s.serverErrs.Add(1)
	} else {
		s.clientErrs.Add(1)
	}
	if retryable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, Envelope{Code: code, Message: err.Error(), Retryable: retryable})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to salvage
}

// Handler returns the routed handler. Every canonical route lives under
// the /v1/ prefix; the pre-versioning spellings (/metrics, /healthz,
// /v1/sessions/{id}/predict) remain mounted as deprecated aliases that
// answer identically but carry a Deprecation header naming the
// successor. Every route runs under the panic boundary: a panicking
// predictor turns into a structured 500 on that request, and the server
// keeps serving.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleCreateSession)
	mux.HandleFunc("GET /v1/sessions", s.handleListSessions)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleGetSession)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDeleteSession)
	mux.HandleFunc("POST /v1/sessions/{id}/chunks", s.handlePredict)
	mux.HandleFunc("GET /v1/sessions/{id}/snapshot", s.handleSnapshotGet)
	mux.HandleFunc("POST /v1/sessions/{id}/snapshot", s.handleSnapshotRestore)
	mux.HandleFunc("POST /v1/jobs", s.handleRunJob)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	// Deprecated aliases, kept for pre-v1 clients.
	mux.Handle("POST /v1/sessions/{id}/predict", deprecated("/v1/sessions/{id}/chunks", s.handlePredict))
	mux.Handle("GET /metrics", deprecated("/v1/metrics", s.handleMetrics))
	mux.Handle("GET /healthz", deprecated("/v1/healthz", s.handleHealthz))
	h := s.recoverable(mux)
	if s.mw != nil {
		h = s.mw(h)
	}
	return h
}

// SetMiddleware wraps every request in mw, outermost — outside even the
// panic boundary, so middleware that aborts connections (the chaos
// injector) behaves like the network, not like a handler bug. Call
// before Handler; nil (the default) mounts nothing.
func (s *Server) SetMiddleware(mw func(http.Handler) http.Handler) { s.mw = mw }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// deprecated wraps a legacy route: same handler, same body, plus the
// standard deprecation headers pointing at the v1 successor.
func deprecated(successor string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", "<"+successor+`>; rel="successor-version"`)
		h(w, r)
	})
}

// recoverable is the per-request fault boundary: it counts the request
// and converts a handler panic into a *runx.PanicError 500 via the same
// runx.Safe recover point the batch sweeps use.
func (s *Server) recoverable(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		start := time.Now()
		err := runx.Safe(func() error {
			next.ServeHTTP(w, r)
			return nil
		})
		s.hist.Observe(time.Since(start))
		if err != nil {
			var pe *runx.PanicError
			if errors.As(err, &pe) {
				s.panics.Add(1)
				s.log.Logf("serve: panic on %s %s: %v", r.Method, r.URL.Path, pe.Value)
			}
			// The handler may have already written; this is best-effort
			// for the common case where the panic hit before any write.
			s.writeError(w, err)
		}
	})
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<10))
	if err != nil {
		s.writeError(w, err)
		return
	}
	var req SessionRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.writeError(w, fmt.Errorf("serve: bad session request: %w", err))
		return
	}
	class, spec, err := ParseSessionRequest(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	// A hibernated session with the same identity is the same session:
	// an idempotent create after a server restart resumes it instead of
	// clobbering the spilled state with a fresh predictor. A spec
	// mismatch falls through to the duplicate-ID conflict below.
	if req.ID != "" && s.spillDir != "" {
		if _, live := s.reg.get(req.ID); !live {
			if old, ok := s.rehydrate(req.ID); ok &&
				old.Class == class && old.Spec.String() == spec.String() {
				s.log.Progressf("serve: session %q resumed from hibernation", old.ID)
				writeJSON(w, http.StatusCreated, old.info())
				return
			}
		}
	}
	sess, err := newSession(req.ID, class, spec)
	if err != nil {
		s.writeError(w, err)
		return
	}
	evicted, err := s.reg.add(sess)
	if err != nil {
		s.clientErrs.Add(1)
		writeJSON(w, http.StatusConflict, Envelope{Code: CodeConflict, Message: err.Error()})
		return
	}
	if evicted != nil {
		s.spill(evicted, "lru")
		s.log.Progressf("serve: session %q evicted (LRU) for %q", evicted.ID, sess.ID)
	}
	s.log.Progressf("serve: session %q created: %s %s (%d bytes)",
		sess.ID, class, spec.String(), sess.pred.SizeBytes())
	writeJSON(w, http.StatusCreated, sess.info())
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	sessions := s.reg.snapshot()
	infos := make([]SessionInfo, len(sessions))
	for i, sess := range sessions {
		infos[i] = sess.info()
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(r.PathValue("id"))
	if !ok {
		s.clientErrs.Add(1)
		writeJSON(w, http.StatusNotFound, Envelope{Code: CodeNotFound, Message: "no such session"})
		return
	}
	writeJSON(w, http.StatusOK, sess.info())
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	removed := s.reg.remove(id)
	if s.spillDir != "" {
		// An explicit delete also forgets the hibernated copy — whether
		// the session was live, spilled, or both.
		if os.Remove(s.spillPath(id)) == nil {
			removed = true
		}
	}
	if !removed {
		s.clientErrs.Add(1)
		writeJSON(w, http.StatusNotFound, Envelope{Code: CodeNotFound, Message: "no such session"})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// PredictResponse is the JSON body of a successful predict call: the
// chunk's own counts plus the session's accumulated totals. TotalMissRate
// over a whole in-order stream equals the batch vlpsim miss_rate for the
// same records and spec, computed by the same division.
type PredictResponse struct {
	Session          string  `json:"session"`
	Records          int     `json:"records"`
	Branches         int64   `json:"branches"`
	Mispredicts      int64   `json:"mispredicts"`
	MissRate         float64 `json:"miss_rate"`
	TotalRecords     int64   `json:"total_records"`
	TotalBranches    int64   `json:"total_branches"`
	TotalMispredicts int64   `json:"total_mispredicts"`
	TotalMissRate    float64 `json:"total_miss_rate"`
}

// The ingest hot path recycles its two per-request allocations: gzip
// readers (each ~44KB of inflate state) and the chunk byte buffer
// io.ReadAll would otherwise regrow per request. Pooled values are
// request-scoped — taken after the worker-slot gate, returned before
// the handler exits — so the pools hold at most one value per worker.
var (
	gzipReaders sync.Pool // *gzip.Reader, between requests holds a closed reader
	chunkBufs   = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}
)

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	// Backpressure first: take a worker slot without blocking or turn
	// the request away while it is still cheap.
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
	if s.testHookPredict != nil {
		s.testHookPredict()
	}
	sess, ok := s.lookup(r.PathValue("id"))
	if !ok {
		s.clientErrs.Add(1)
		writeJSON(w, http.StatusNotFound, Envelope{Code: CodeNotFound, Message: "no such session"})
		return
	}
	start := time.Now()
	var body io.Reader = http.MaxBytesReader(w, r.Body, s.limits.MaxBodyBytes)
	if r.Header.Get("Content-Encoding") == "gzip" {
		zr, _ := gzipReaders.Get().(*gzip.Reader)
		var err error
		if zr == nil {
			zr, err = gzip.NewReader(body)
		} else {
			err = zr.Reset(body)
		}
		if err != nil {
			if zr != nil {
				gzipReaders.Put(zr)
			}
			s.writeError(w, fmt.Errorf("serve: bad gzip frame: %w", trace.ErrCorrupt))
			return
		}
		defer func() {
			zr.Close()
			gzipReaders.Put(zr)
		}()
		body = zr
	}
	bb := chunkBufs.Get().(*bytes.Buffer)
	bb.Reset()
	defer chunkBufs.Put(bb)
	if _, err := bb.ReadFrom(body); err != nil {
		s.writeError(w, err)
		return
	}
	data := bb.Bytes()
	buf, err := trace.Decode(data)
	if err != nil {
		s.writeError(w, err)
		return
	}
	res, err := sess.predict(r.Context(), buf)
	if err != nil {
		s.writeError(w, err)
		return
	}
	sess.hist.Observe(time.Since(start))
	// Write-through hibernation: persist the post-chunk state before
	// answering, so a kill -9 at any later instant loses nothing the
	// client was told about.
	s.spill(sess, "chunk")
	s.predicts.Add(1)
	s.bytesIn.Add(int64(len(data)))
	s.recordsIn.Add(int64(buf.Len()))
	s.branchesRun.Add(res.Branches)
	in := sess.info()
	resp := PredictResponse{
		Session:          sess.ID,
		Records:          buf.Len(),
		Branches:         res.Branches,
		Mispredicts:      res.Mispredicts,
		MissRate:         res.Rate(),
		TotalRecords:     in.Records,
		TotalBranches:    in.Branches,
		TotalMispredicts: in.Mispredicts,
		TotalMissRate:    in.MissRate,
	}
	writeJSON(w, http.StatusOK, resp)
}

// MetricsData is the Data payload of the /metrics report: the server-
// wide counters, the request-latency histogram, eviction totals, and a
// snapshot of every live session.
type MetricsData struct {
	Sessions       []SessionInfo `json:"sessions"`
	LiveSessions   int           `json:"live_sessions"`
	Requests       int64         `json:"requests"`
	Predicts       int64         `json:"predicts"`
	Rejected       int64         `json:"rejected"`
	ClientErrors   int64         `json:"client_errors"`
	ServerErrors   int64         `json:"server_errors"`
	Panics         int64         `json:"panics"`
	EvictedLRU     int64         `json:"evicted_lru"`
	EvictedTTL     int64         `json:"evicted_ttl"`
	BytesIn        int64         `json:"bytes_in"`
	RecordsIn      int64         `json:"records_in"`
	BranchesScored int64         `json:"branches_scored"`
	JobsRun        int64         `json:"jobs_run"`
	JobsFailed     int64         `json:"jobs_failed"`
	// The hibernation counters: snapshots written (write-through,
	// eviction, drain, downloads), sessions revived (rehydration and
	// uploaded restores), and hibernation failures that dropped a
	// session or a spill file instead of crashing.
	SnapshotsSaved    int64           `json:"snapshots_saved"`
	SnapshotsRestored int64           `json:"snapshots_restored"`
	RehydrateFailures int64           `json:"rehydrate_failures"`
	RequestLatency    obs.HistSummary `json:"request_latency"`
	WorkerPoolSize    int             `json:"worker_pool_size"`
	WorkersInFlight   int             `json:"workers_in_flight"`
}

// MetricsReport builds the /metrics payload: a repro-bench/v1 report
// whose Metrics span covers the server's whole lifetime, so cmd/obscheck
// validates a scrape exactly as it validates a bench file.
func (s *Server) MetricsReport() *obs.Report {
	rep := obs.NewReport("vlpserve", "prediction service metrics")
	rep.SetParam("max-sessions", s.limits.MaxSessions)
	rep.SetParam("idle-ttl", s.limits.IdleTTL)
	rep.SetParam("max-body", s.limits.MaxBodyBytes)
	rep.SetParam("workers", s.limits.Workers)
	rep.Metrics = s.span.End()
	sessions := s.reg.snapshot()
	infos := make([]SessionInfo, len(sessions))
	for i, sess := range sessions {
		infos[i] = sess.info()
	}
	live, lru, ttl := s.reg.stats()
	rep.Data = MetricsData{
		Sessions:          infos,
		LiveSessions:      live,
		Requests:          s.requests.Load(),
		Predicts:          s.predicts.Load(),
		Rejected:          s.rejected.Load(),
		ClientErrors:      s.clientErrs.Load(),
		ServerErrors:      s.serverErrs.Load(),
		Panics:            s.panics.Load(),
		EvictedLRU:        lru,
		EvictedTTL:        ttl,
		BytesIn:           s.bytesIn.Load(),
		RecordsIn:         s.recordsIn.Load(),
		BranchesScored:    s.branchesRun.Load(),
		JobsRun:           s.jobsRun.Load(),
		JobsFailed:        s.jobsFailed.Load(),
		SnapshotsSaved:    s.snapsSaved.Load(),
		SnapshotsRestored: s.snapsRestored.Load(),
		RehydrateFailures: s.rehydrateFailures.Load(),
		RequestLatency:    s.hist.Summary(),
		WorkerPoolSize:    s.limits.Workers,
		WorkersInFlight:   len(s.sem),
	}
	return rep
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.MetricsReport())
}

// sweepInterval is how often the janitor scans for idle sessions: a
// quarter of the TTL, clamped so tests with tiny TTLs still sweep
// promptly and production TTLs do not scan more than every 15s.
func (s *Server) sweepInterval() time.Duration {
	iv := s.limits.IdleTTL / 4
	if iv < 10*time.Millisecond {
		iv = 10 * time.Millisecond
	}
	if iv > 15*time.Second {
		iv = 15 * time.Second
	}
	return iv
}

// Serve runs the full server lifecycle on ln: the HTTP accept loop and
// the idle-session janitor, until ctx is canceled (cmd/vlpserve hands
// it a runx.WithSignals context, so SIGINT/SIGTERM land here). Shutdown
// is graceful: the listener closes immediately, in-flight requests
// drain for up to Limits.DrainTimeout, and a clean drain returns nil.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	janitorDone := make(chan struct{})
	janitorStop := make(chan struct{})
	go func() {
		defer close(janitorDone)
		if s.limits.IdleTTL <= 0 {
			return
		}
		t := time.NewTicker(s.sweepInterval())
		defer t.Stop()
		for {
			select {
			case <-janitorStop:
				return
			case now := <-t.C:
				for _, sess := range s.reg.sweep(now) {
					s.spill(sess, "ttl")
					s.log.Progressf("serve: session %q evicted (idle TTL)", sess.ID)
				}
			}
		}
	}()
	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		s.log.Progressf("serve: draining (timeout %v)", s.limits.DrainTimeout)
		drainCtx, cancel := context.WithTimeout(context.Background(), s.limits.DrainTimeout)
		defer cancel()
		shutdownErr <- srv.Shutdown(drainCtx)
	}()
	err := srv.Serve(ln)
	close(janitorStop)
	<-janitorDone
	if errors.Is(err, http.ErrServerClosed) {
		// Shutdown owns the real outcome: nil after a clean drain, or
		// the drain-timeout error when in-flight requests overstayed.
		err = <-shutdownErr
	}
	// In-flight requests have drained (or been cut off); hibernate every
	// live session so a restarted server resumes where this one stopped.
	s.spillAll()
	return err
}
