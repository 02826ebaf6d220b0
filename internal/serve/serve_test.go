package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bpred"
	"repro/internal/factory"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// testLimits is a small, fast policy for the httptest suites.
func testLimits() Limits {
	l := DefaultLimits()
	l.MaxSessions = 4
	l.Workers = 4
	l.DrainTimeout = 5 * time.Second
	return l
}

func newTestServer(t *testing.T, limits Limits) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(limits, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// testTrace returns a deterministic gcc test trace.
func testTrace(t testing.TB, n int) *trace.Buffer {
	t.Helper()
	b, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	return trace.Collect(b.TestSource(n))
}

// encodeRecords wire-encodes a record slice as one self-contained chunk.
func encodeRecords(t testing.TB, recs []trace.Record) []byte {
	t.Helper()
	data, err := trace.Encode(trace.NewBuffer(recs))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func createSession(t testing.TB, baseURL, id, class, spec string) SessionInfo {
	t.Helper()
	info, status := tryCreateSession(t, baseURL, id, class, spec)
	if status != http.StatusCreated {
		t.Fatalf("create session: status %d", status)
	}
	return info
}

func tryCreateSession(t testing.TB, baseURL, id, class, spec string) (SessionInfo, int) {
	t.Helper()
	body, err := json.Marshal(SessionRequest{ID: id, Class: class, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info SessionInfo
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
	}
	return info, resp.StatusCode
}

func postChunk(t testing.TB, baseURL, id string, chunk []byte, gz bool) (PredictResponse, int, Envelope) {
	t.Helper()
	pr, status, env, err := tryPostChunk(baseURL, id, chunk, gz)
	if err != nil {
		t.Fatal(err)
	}
	return pr, status, env
}

// tryPostChunk is postChunk for a goroutine other than the test's own,
// which must not call t.Fatal: it returns what went wrong instead.
func tryPostChunk(baseURL, id string, chunk []byte, gz bool) (PredictResponse, int, Envelope, error) {
	var pr PredictResponse
	var env Envelope
	req, err := http.NewRequest(http.MethodPost, baseURL+"/v1/sessions/"+id+"/chunks", bytes.NewReader(chunk))
	if err != nil {
		return pr, 0, env, err
	}
	if gz {
		req.Header.Set("Content-Encoding", "gzip")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return pr, 0, env, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return pr, 0, env, err
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &pr); err != nil {
			return pr, 0, env, fmt.Errorf("bad predict response %q: %v", raw, err)
		}
	} else {
		ok := false
		if env, ok = DecodeEnvelope(raw); !ok {
			return pr, 0, env, fmt.Errorf("error response %q is not a v1 envelope", raw)
		}
	}
	return pr, resp.StatusCode, env, nil
}

func getSessionInfo(t testing.TB, baseURL, id string) (SessionInfo, int) {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info SessionInfo
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
	}
	return info, resp.StatusCode
}

// TestSessionLifecycle walks the whole session API: create, duplicate
// conflict, list, predict, read totals, delete, and 404 after deletion.
func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, testLimits())
	info := createSession(t, ts.URL, "s1", "cond", "gshare:budget=16KB")
	if info.ID != "s1" || info.Class != "cond" || info.SizeBytes == 0 {
		t.Fatalf("unexpected session info %+v", info)
	}
	if _, status := tryCreateSession(t, ts.URL, "s1", "cond", "gshare:budget=16KB"); status != http.StatusConflict {
		t.Fatalf("duplicate create: got status %d, want 409", status)
	}
	// Server-assigned IDs for anonymous sessions.
	anon, status := tryCreateSession(t, ts.URL, "", "indirect", "btb:budget=2KB")
	if status != http.StatusCreated || anon.ID == "" {
		t.Fatalf("anonymous create: status %d, info %+v", status, anon)
	}

	buf := testTrace(t, 20000)
	pr, status, _ := postChunk(t, ts.URL, "s1", encodeRecords(t, buf.Records), false)
	if status != http.StatusOK {
		t.Fatalf("predict: status %d", status)
	}
	if pr.Records != buf.Len() || pr.Branches == 0 {
		t.Fatalf("predict response %+v does not cover the chunk (%d records)", pr, buf.Len())
	}
	got, status := getSessionInfo(t, ts.URL, "s1")
	if status != http.StatusOK || got.Branches != pr.TotalBranches || got.Chunks != 1 {
		t.Fatalf("session info %+v (status %d) does not match predict totals %+v", got, status, pr)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/s1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if _, status := getSessionInfo(t, ts.URL, "s1"); status != http.StatusNotFound {
		t.Fatalf("get after delete: status %d, want 404", status)
	}
	if _, status, _ := postChunk(t, ts.URL, "s1", encodeRecords(t, buf.Records[:10]), false); status != http.StatusNotFound {
		t.Fatalf("predict after delete: status %d, want 404", status)
	}
}

// TestServedRatesMatchBatch is the core invariant (DESIGN.md §10): a
// session fed the trace in order, chunk by chunk, must end with exactly
// the counts a single batch replay produces — same integers, and
// therefore the same rate float bit for bit. The predictor's state,
// path history included, carries across every chunk boundary; the
// VLP cases cut the trace at an odd chunk size so path histories span
// the splits at every alignment.
func TestServedRatesMatchBatch(t *testing.T) {
	_, ts := newTestServer(t, testLimits())
	bench, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// profileFile profiles the benchmark's profiling input for a table
	// of budget bytes and returns the saved profile's path.
	profileFile := func(name string, budget int, indirect bool) string {
		build, entryBits := profile.Cond, 2
		if indirect {
			build, entryBits = profile.Indirect, 32
		}
		p, _, err := build(bench.ProfileSource(20000), profile.Config{TableBits: bpred.MustLog2Entries(budget, entryBits)})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := p.Save(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	buf := testTrace(t, 30000)
	for _, c := range []struct {
		id, class, spec string
		chunk           int
	}{
		{"gshare", "cond", "gshare:budget=16KB", 4096},
		{"vlp-cond", "cond", "vlp:budget=4KB,profile=" + profileFile("cond.prof", 4096, false), 4097},
		{"vlp-indirect", "indirect", "vlp:budget=8KB,profile=" + profileFile("ind.prof", 8192, true), 4097},
	} {
		createSession(t, ts.URL, c.id, c.class, c.spec)
		var last PredictResponse
		for off := 0; off < buf.Len(); off += c.chunk {
			end := min(off+c.chunk, buf.Len())
			pr, status, ae := postChunk(t, ts.URL, c.id, encodeRecords(t, buf.Records[off:end]), false)
			if status != http.StatusOK {
				t.Fatalf("%s: chunk at %d: status %d (%+v)", c.id, off, status, ae)
			}
			last = pr
		}

		spec, err := factory.ParseSpec(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		var ref sim.Result
		if c.class == "indirect" {
			p, err := spec.Indirect()
			if err != nil {
				t.Fatal(err)
			}
			ref = sim.RunIndirect(context.Background(), p, trace.NewBuffer(buf.Records), sim.Options{})
		} else {
			p, err := spec.Cond()
			if err != nil {
				t.Fatal(err)
			}
			ref = sim.RunCond(context.Background(), p, trace.NewBuffer(buf.Records), sim.Options{})
		}
		if ref.Err != nil {
			t.Fatal(ref.Err)
		}
		if ref.Branches == 0 {
			t.Fatalf("%s: batch replay scored no branches", c.id)
		}
		if last.TotalBranches != ref.Branches || last.TotalMispredicts != ref.Mispredicts {
			t.Fatalf("%s: served totals %d/%d != batch %d/%d", c.id,
				last.TotalMispredicts, last.TotalBranches, ref.Mispredicts, ref.Branches)
		}
		if last.TotalMissRate != ref.Rate() {
			t.Fatalf("%s: served rate %v != batch rate %v (must be bit-identical)", c.id, last.TotalMissRate, ref.Rate())
		}
	}
}

// TestPredictGzip sends the same chunk raw and gzip-framed; both must
// decode to the same counts.
func TestPredictGzip(t *testing.T) {
	_, ts := newTestServer(t, testLimits())
	createSession(t, ts.URL, "raw", "cond", "bimodal:budget=4KB")
	createSession(t, ts.URL, "gz", "cond", "bimodal:budget=4KB")
	buf := testTrace(t, 5000)
	data := encodeRecords(t, buf.Records)

	raw, status, _ := postChunk(t, ts.URL, "raw", data, false)
	if status != http.StatusOK {
		t.Fatalf("raw predict: status %d", status)
	}
	gz, status, _ := postChunk(t, ts.URL, "gz", gzipBytes(t, data), true)
	if status != http.StatusOK {
		t.Fatalf("gzip predict: status %d", status)
	}
	if raw.Branches != gz.Branches || raw.Mispredicts != gz.Mispredicts {
		t.Fatalf("gzip chunk decoded differently: %+v vs %+v", raw, gz)
	}
}

// TestCorruptChunk asserts the hardened decoder's classification
// reaches the wire: structurally bad payloads are 400 with the corrupt
// kind (never retryable), not a 5xx that a client would retry.
func TestCorruptChunk(t *testing.T) {
	_, ts := newTestServer(t, testLimits())
	createSession(t, ts.URL, "s1", "cond", "gshare:budget=16KB")
	for name, payload := range map[string][]byte{
		"bad magic":    []byte("NOPE\x01\x00"),
		"empty":        {},
		"truncated":    encodeRecords(t, testTrace(t, 1000).Records)[:40],
		"bad version":  []byte("VLPT\x63\x00"),
		"varint bomb":  []byte("VLPT\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"),
		"trailing lie": append(encodeRecords(t, testTrace(t, 10).Records[:1])[:0:0], []byte("VLPT\x01\x05\x00\x02")...),
	} {
		_, status, ae := postChunk(t, ts.URL, "s1", payload, false)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%+v)", name, status, ae)
			continue
		}
		if ae.Code != CodeCorrupt || ae.Retryable {
			t.Errorf("%s: error %+v, want code=corrupt retryable=false", name, ae)
		}
		if ae.Message == "" {
			t.Errorf("%s: missing error detail", name)
		}
	}
	// A bad gzip frame is corrupt too.
	_, status, ae := postChunk(t, ts.URL, "s1", []byte("not gzip at all"), true)
	if status != http.StatusBadRequest || ae.Code != CodeCorrupt {
		t.Fatalf("bad gzip frame: status %d code %q, want 400 corrupt", status, ae.Code)
	}
	// The session must still work after every rejected chunk.
	if _, status, _ := postChunk(t, ts.URL, "s1", encodeRecords(t, testTrace(t, 100).Records), false); status != http.StatusOK {
		t.Fatalf("session broken after corrupt chunks: status %d", status)
	}
}

// TestRejectedChunkLeavesSessionUntouched streams a valid chunk, a
// truncated one declaring the same 16384 records, and a second valid
// chunk. The truncated chunk half-fills a pooled record window before
// it fails; the session's totals and vlps/v1 snapshot must still equal
// those of a session that saw only the two valid chunks.
func TestRejectedChunkLeavesSessionUntouched(t *testing.T) {
	const chunkRecords = 16384
	recs := testTrace(t, 2*chunkRecords).Records
	first := encodeRecords(t, recs[:chunkRecords])
	second := encodeRecords(t, recs[chunkRecords:])
	truncated := second[:len(second)/2]
	_, ts := newTestServer(t, testLimits())

	createSession(t, ts.URL, "ref", "cond", "gshare:budget=16KB")
	createSession(t, ts.URL, "s", "cond", "gshare:budget=16KB")
	for _, c := range [][]byte{first, second} {
		if _, status, _ := postChunk(t, ts.URL, "ref", c, false); status != http.StatusOK {
			t.Fatalf("reference chunk: status %d", status)
		}
	}
	if _, status, _ := postChunk(t, ts.URL, "s", first, false); status != http.StatusOK {
		t.Fatalf("first chunk: status %d", status)
	}
	if _, status, env := postChunk(t, ts.URL, "s", truncated, false); status != http.StatusBadRequest || env.Code != CodeCorrupt {
		t.Fatalf("truncated chunk: status %d code %q, want 400 %q", status, env.Code, CodeCorrupt)
	}
	pr, status, _ := postChunk(t, ts.URL, "s", second, false)
	if status != http.StatusOK || pr.Records != chunkRecords {
		t.Fatalf("second chunk: status %d, %d records", status, pr.Records)
	}

	want, _ := getSessionInfo(t, ts.URL, "ref")
	got, _ := getSessionInfo(t, ts.URL, "s")
	if got.Chunks != want.Chunks || got.Records != want.Records ||
		got.Branches != want.Branches || got.Mispredicts != want.Mispredicts {
		t.Errorf("totals after a rejected chunk: got %+v, want %+v", got, want)
	}
	wantSnap, _ := fetchSnapshot(t, ts.URL, "ref")
	gotSnap, status := fetchSnapshot(t, ts.URL, "s")
	if status != http.StatusOK || !bytes.Equal(gotSnap, wantSnap) {
		t.Errorf("snapshot after a rejected chunk differs from the two-chunk reference (status %d)", status)
	}
}

// TestBodyTooLarge asserts the body cap answers 413 before decoding.
func TestBodyTooLarge(t *testing.T) {
	limits := testLimits()
	limits.MaxBodyBytes = 1024
	_, ts := newTestServer(t, limits)
	createSession(t, ts.URL, "s1", "cond", "gshare:budget=16KB")
	big := encodeRecords(t, testTrace(t, 20000).Records)
	if len(big) <= 1024 {
		t.Fatalf("test chunk too small (%d bytes) to trip the cap", len(big))
	}
	_, status, ae := postChunk(t, ts.URL, "s1", big, false)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%+v), want 413", status, ae)
	}
}

// TestBadSessionSpecs asserts create-time validation failures are 4xx
// with detail, for both grammar and class errors.
func TestBadSessionSpecs(t *testing.T) {
	_, ts := newTestServer(t, testLimits())
	for name, req := range map[string]SessionRequest{
		"empty spec":     {ID: "x", Class: "cond", Spec: ""},
		"unknown pred":   {ID: "x", Class: "cond", Spec: "nope:budget=16KB"},
		"bad class":      {ID: "x", Class: "sideways", Spec: "gshare:budget=16KB"},
		"no budget":      {ID: "x", Class: "cond", Spec: "gshare"},
		"vlp unprofiled": {ID: "x", Class: "cond", Spec: "vlp:budget=16KB"},
		"bad id":         {ID: "a/b", Class: "cond", Spec: "gshare:budget=16KB"},
	} {
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestSaturation429 holds Workers requests in flight through the test
// hook and asserts the next one is refused fast with a retryable 429.
func TestSaturation429(t *testing.T) {
	limits := testLimits()
	limits.Workers = 1
	s, err := New(limits, nil)
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.testHookPredict = func() {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	createSession(t, ts.URL, "s1", "cond", "gshare:budget=16KB")
	chunk := encodeRecords(t, testTrace(t, 100).Records)

	done := make(chan int, 1)
	go func() {
		_, status, _ := postChunk(t, ts.URL, "s1", chunk, false)
		done <- status
	}()
	<-entered // the one worker slot is now occupied
	_, status, ae := postChunk(t, ts.URL, "s1", chunk, false)
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated predict: status %d (%+v), want 429", status, ae)
	}
	if ae.Code != CodeSaturated || !ae.Retryable {
		t.Fatalf("saturated predict error %+v, want code=saturated retryable=true", ae)
	}
	close(release)
	if st := <-done; st != http.StatusOK {
		t.Fatalf("in-flight predict: status %d, want 200", st)
	}
	// The slot is free again: the next request must succeed.
	s.testHookPredict = nil
	if _, st, _ := postChunk(t, ts.URL, "s1", chunk, false); st != http.StatusOK {
		t.Fatalf("post-saturation predict: status %d, want 200", st)
	}
}

// TestPanicIsolation asserts a panic inside request handling surfaces
// as a structured 500 on that request only; the server keeps serving.
func TestPanicIsolation(t *testing.T) {
	s, err := New(testLimits(), nil)
	if err != nil {
		t.Fatal(err)
	}
	boom := true
	s.testHookPredict = func() {
		if boom {
			boom = false
			panic("predictor exploded")
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	createSession(t, ts.URL, "s1", "cond", "gshare:budget=16KB")
	chunk := encodeRecords(t, testTrace(t, 100).Records)

	_, status, ae := postChunk(t, ts.URL, "s1", chunk, false)
	if status != http.StatusInternalServerError || ae.Code != CodePanic {
		t.Fatalf("panicking request: status %d code %q, want 500 panic", status, ae.Code)
	}
	if !strings.Contains(ae.Message, "predictor exploded") {
		t.Fatalf("panic detail lost: %+v", ae)
	}
	if _, status, _ = postChunk(t, ts.URL, "s1", chunk, false); status != http.StatusOK {
		t.Fatalf("server did not survive the panic: status %d", status)
	}
	if got := s.panics.Load(); got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}
}

// TestLRUEviction fills the registry past MaxSessions and asserts the
// least recently used session is displaced.
func TestLRUEviction(t *testing.T) {
	limits := testLimits()
	limits.MaxSessions = 2
	_, ts := newTestServer(t, limits)
	createSession(t, ts.URL, "a", "cond", "bimodal:budget=4KB")
	createSession(t, ts.URL, "b", "cond", "bimodal:budget=4KB")
	// Touch "a" so "b" is the LRU victim.
	if _, status := getSessionInfo(t, ts.URL, "a"); status != http.StatusOK {
		t.Fatalf("get a: status %d", status)
	}
	createSession(t, ts.URL, "c", "cond", "bimodal:budget=4KB")
	if _, status := getSessionInfo(t, ts.URL, "b"); status != http.StatusNotFound {
		t.Fatalf("LRU session b still present (status %d)", status)
	}
	for _, id := range []string{"a", "c"} {
		if _, status := getSessionInfo(t, ts.URL, id); status != http.StatusOK {
			t.Fatalf("session %s missing (status %d)", id, status)
		}
	}
}

// TestIdleTTLSweep asserts the registry sweep evicts idle sessions and
// keeps fresh ones.
func TestIdleTTLSweep(t *testing.T) {
	s, err := New(testLimits(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	createSession(t, ts.URL, "stale", "cond", "bimodal:budget=4KB")
	createSession(t, ts.URL, "fresh", "cond", "bimodal:budget=4KB")
	sess, ok := s.reg.get("stale")
	if !ok {
		t.Fatal("stale session missing")
	}
	sess.st.Lock()
	sess.lastUsed = time.Now().Add(-time.Hour)
	sess.st.Unlock()
	evicted := s.reg.sweep(time.Now())
	if len(evicted) != 1 || evicted[0].ID != "stale" {
		t.Fatalf("sweep evicted %v, want [stale]", evicted)
	}
	if _, status := getSessionInfo(t, ts.URL, "fresh"); status != http.StatusOK {
		t.Fatalf("fresh session evicted too (status %d)", status)
	}
	if _, _, ttl := s.reg.stats(); ttl != 1 {
		t.Fatalf("ttl eviction counter = %d, want 1", ttl)
	}
}

// TestMetricsEndpoint asserts /metrics is a valid repro-bench/v1 report
// carrying the server counters and per-session stats.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, testLimits())
	createSession(t, ts.URL, "s1", "cond", "gshare:budget=16KB")
	chunk := encodeRecords(t, testTrace(t, 1000).Records)
	if _, status, _ := postChunk(t, ts.URL, "s1", chunk, false); status != http.StatusOK {
		t.Fatalf("predict: status %d", status)
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("metrics payload is not a report: %v", err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("metrics report invalid: %v", err)
	}
	if rep.Name != "vlpserve" {
		t.Fatalf("metrics report name %q, want vlpserve", rep.Name)
	}
	var data MetricsData
	blob, err := json.Marshal(rep.Data)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &data); err != nil {
		t.Fatal(err)
	}
	if data.Predicts != 1 || data.LiveSessions != 1 || len(data.Sessions) != 1 {
		t.Fatalf("metrics data %+v does not reflect the run", data)
	}
	if data.RequestLatency.Count == 0 {
		t.Fatalf("request latency histogram is empty: %+v", data.RequestLatency)
	}
}

// TestGracefulShutdownDrain runs the real Serve lifecycle: with a
// request held in flight, cancellation must close the listener, let the
// in-flight request finish with 200, and return nil from Serve.
func TestGracefulShutdownDrain(t *testing.T) {
	limits := testLimits()
	s, err := New(limits, nil)
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.testHookPredict = func() {
		entered <- struct{}{}
		<-release
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	createSession(t, base, "s1", "cond", "gshare:budget=16KB")
	chunk := encodeRecords(t, testTrace(t, 1000).Records)
	inflight := make(chan int, 1)
	go func() {
		_, status, _ := postChunk(t, base, "s1", chunk, false)
		inflight <- status
	}()
	<-entered

	cancel() // SIGTERM equivalent: drain begins
	// Give Shutdown a moment to close the listener, then prove the
	// in-flight request still completes.
	time.Sleep(50 * time.Millisecond)
	close(release)
	if status := <-inflight; status != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d, want 200", status)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve returned %v after a clean drain, want nil", err)
		}
	case <-time.After(limits.DrainTimeout + 2*time.Second):
		t.Fatal("Serve did not return after drain")
	}
	// The listener must be closed now.
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), 200*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestHammerConcurrentClients is the -race stress: 16 clients stream
// in-order chunk sequences at one session concurrently. Interleaving
// changes the predictor's state path (that is expected); what must hold
// is bookkeeping integrity — every accepted chunk's counts land in the
// totals exactly once and the registry stays consistent.
func TestHammerConcurrentClients(t *testing.T) {
	limits := testLimits()
	limits.Workers = 16
	_, ts := newTestServer(t, limits)
	createSession(t, ts.URL, "hammer", "cond", "gshare:budget=16KB")

	buf := testTrace(t, 8000)
	const clients = 16
	const chunksPerClient = 4
	chunkLen := buf.Len() / chunksPerClient
	var chunks [][]byte
	for off := 0; off+chunkLen <= buf.Len(); off += chunkLen {
		chunks = append(chunks, encodeRecords(t, buf.Records[off:off+chunkLen]))
	}

	var (
		mu               sync.Mutex
		branches, misses int64
		accepted         int64
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, chunk := range chunks {
				pr, status, ae := postChunk(t, ts.URL, "hammer", chunk, false)
				if status != http.StatusOK {
					t.Errorf("hammer chunk: status %d (%+v)", status, ae)
					return
				}
				mu.Lock()
				accepted++
				branches += pr.Branches
				misses += pr.Mispredicts
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	info, status := getSessionInfo(t, ts.URL, "hammer")
	if status != http.StatusOK {
		t.Fatalf("session info: status %d", status)
	}
	if info.Chunks != accepted {
		t.Fatalf("session counted %d chunks, clients sent %d", info.Chunks, accepted)
	}
	if info.Branches != branches || info.Mispredicts != misses {
		t.Fatalf("session totals %d/%d != sum of per-chunk responses %d/%d",
			info.Mispredicts, info.Branches, misses, branches)
	}
	if info.Branches == 0 {
		t.Fatal("hammer scored no branches")
	}
}

// TestWindowFreeList is the -race test of the predict windows: more
// clients than workers stream chunks at once, each at its own session,
// with chunk sizes that differ per client and gzip on every other chunk,
// so windows and gzip readers pass between requests of different
// sessions. Every answer must equal a batch replay of the same chunk,
// and the free list must hold at most Workers windows, none of them
// twice.
func TestWindowFreeList(t *testing.T) {
	limits := testLimits()
	limits.Workers = 3
	limits.MaxSessions = 8
	s, err := New(limits, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Hold each request in its slot briefly so the workers overlap.
	s.testHookPredict = func() { time.Sleep(200 * time.Microsecond) }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const clients, spec = 8, "gshare:budget=4KB"
	buf := testTrace(t, 12000)

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		id := fmt.Sprintf("w%d", c)
		createSession(t, ts.URL, id, "cond", spec)
		sp, err := factory.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := sp.Cond()
		if err != nil {
			t.Fatal(err)
		}
		var chunks [][]trace.Record
		for off, size := 0, 900+500*c; off < buf.Len(); off += size {
			chunks = append(chunks, buf.Records[off:min(off+size, buf.Len())])
		}
		encoded := make([][]byte, len(chunks))
		for i, recs := range chunks {
			if encoded[i] = encodeRecords(t, recs); i%2 == 1 {
				encoded[i] = gzipBytes(t, encoded[i])
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, recs := range chunks {
				want := sim.RunCond(context.Background(), ref, trace.NewBuffer(recs), sim.Options{})
				chunk, gz := encoded[i], i%2 == 1
				pr, status, ae, err := tryPostChunk(ts.URL, id, chunk, gz)
				for err == nil && status == http.StatusTooManyRequests {
					pr, status, ae, err = tryPostChunk(ts.URL, id, chunk, gz)
				}
				if err != nil || status != http.StatusOK {
					t.Errorf("%s chunk %d: status %d (%+v), %v", id, i, status, ae, err)
					return
				}
				if pr.Records != len(recs) || pr.Branches != want.Branches || pr.Mispredicts != want.Mispredicts {
					t.Errorf("%s chunk %d: served %d records %d/%d, batch %d records %d/%d", id, i,
						pr.Records, pr.Mispredicts, pr.Branches, len(recs), want.Mispredicts, want.Branches)
					return
				}
			}
		}()
	}
	wg.Wait()
	n := len(s.windows)
	if n < 1 || n > limits.Workers {
		t.Fatalf("free list holds %d windows, want 1..%d", n, limits.Workers)
	}
	seen := make(map[*window]bool)
	for range n {
		win := <-s.windows
		if seen[win] {
			t.Fatal("a window is on the free list twice")
		}
		seen[win] = true
	}
}

// gzipBytes returns data gzip-framed.
func gzipBytes(t testing.TB, data []byte) []byte {
	t.Helper()
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return zbuf.Bytes()
}

// TestParseLimits exercises the limits grammar and its validation.
func TestParseLimits(t *testing.T) {
	base := DefaultLimits()
	l, err := ParseLimits(base, "max-sessions=128,idle-ttl=30s,max-body=4MB,workers=16,drain=5s")
	if err != nil {
		t.Fatal(err)
	}
	want := Limits{MaxSessions: 128, IdleTTL: 30 * time.Second, MaxBodyBytes: 4 << 20, Workers: 16, DrainTimeout: 5 * time.Second}
	if l != want {
		t.Fatalf("ParseLimits = %+v, want %+v", l, want)
	}
	if l, err := ParseLimits(base, ""); err != nil || l != base {
		t.Fatalf("empty limits: %+v, %v (want base unchanged)", l, err)
	}
	for _, bad := range []string{
		"max-sessions=0", "workers=0", "workers=", "idle-ttl=-5s", "idle-ttl=yesterday",
		"max-body=4", "nope=1", "max-sessions", "drain=0s",
	} {
		if _, err := ParseLimits(base, bad); err == nil {
			t.Errorf("ParseLimits(%q) accepted", bad)
		}
	}
}

// TestParseSessionRequest exercises the request validation seam the
// fuzz target drives.
func TestParseSessionRequest(t *testing.T) {
	class, spec, err := ParseSessionRequest(SessionRequest{ID: "s1", Class: "indirect", Spec: "btb:budget=2KB"})
	if err != nil || class != factory.Indirect || spec.Name != "btb" {
		t.Fatalf("got class %v spec %+v err %v", class, spec, err)
	}
	if _, _, err := ParseSessionRequest(SessionRequest{Class: "", Spec: "gshare:budget=16KB"}); err != nil {
		t.Fatalf("empty class should default to cond: %v", err)
	}
	for name, req := range map[string]SessionRequest{
		"bad class":   {Class: "x", Spec: "gshare:budget=16KB"},
		"bad spec":    {Class: "cond", Spec: "::::"},
		"no budget":   {Class: "cond", Spec: "gshare"},
		"long id":     {ID: strings.Repeat("a", maxSessionIDLen+1), Class: "cond", Spec: "gshare:budget=16KB"},
		"slash in id": {ID: "a/b", Class: "cond", Spec: "gshare:budget=16KB"},
		"wrong class": {Class: "indirect", Spec: "gshare:budget=16KB"},
	} {
		if _, _, err := ParseSessionRequest(req); err == nil {
			t.Errorf("%s: accepted %+v", name, req)
		}
	}
}

// TestClassifyStatuses pins the error → HTTP status + envelope code
// mapping the retry layer relies on.
func TestClassifyStatuses(t *testing.T) {
	cases := []struct {
		err       error
		status    int
		code      string
		retryable bool
	}{
		{fmt.Errorf("wrap: %w", trace.ErrCorrupt), http.StatusBadRequest, CodeCorrupt, false},
		{context.Canceled, http.StatusServiceUnavailable, CodeCanceled, true},
		{context.DeadlineExceeded, http.StatusServiceUnavailable, CodeCanceled, true},
		{&http.MaxBytesError{Limit: 10}, http.StatusRequestEntityTooLarge, CodeTooLarge, false},
		{fmt.Errorf("spec nonsense"), http.StatusBadRequest, CodeInvalid, false},
		{&JobFailedError{Exp: "fig9", Err: fmt.Errorf("boom")}, http.StatusInternalServerError, CodeJobFailed, false},
	}
	for _, c := range cases {
		status, code, retryable := classify(c.err)
		if status != c.status || code != c.code || retryable != c.retryable {
			t.Errorf("classify(%v) = %d/%s/%v, want %d/%s/%v",
				c.err, status, code, retryable, c.status, c.code, c.retryable)
		}
	}
}

// TestPreV1PathsGone asserts the pre-versioning spellings of the chunk,
// metrics and health routes are not mounted: every route lives under
// /v1/ with its canonical name.
func TestPreV1PathsGone(t *testing.T) {
	_, ts := newTestServer(t, testLimits())
	createSession(t, ts.URL, "s1", "cond", "gshare:budget=16KB")
	chunk := encodeRecords(t, testTrace(t, 500).Records)
	for _, r := range []struct{ method, path string }{
		{http.MethodPost, "/v1/sessions/s1/predict"},
		{http.MethodGet, "/metrics"},
		{http.MethodGet, "/healthz"},
	} {
		req, _ := http.NewRequest(r.method, ts.URL+r.path, bytes.NewReader(chunk))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", r.method, r.path, resp.StatusCode)
		}
	}
}

// TestEnvelopeShape asserts every failure body is the one envelope
// schema: code set, message set, retryable consistent with the header.
func TestEnvelopeShape(t *testing.T) {
	_, ts := newTestServer(t, testLimits())
	resp, err := http.Get(ts.URL + "/v1/sessions/nope")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	env, ok := DecodeEnvelope(raw)
	if !ok || env.Code != CodeNotFound || env.Message == "" || env.Retryable {
		t.Fatalf("404 body %q decoded to %+v", raw, env)
	}
	if _, ok := DecodeEnvelope([]byte("<html>gateway error</html>")); ok {
		t.Error("DecodeEnvelope accepted non-JSON")
	}
	if _, ok := DecodeEnvelope([]byte(`{"message":"x"}`)); ok {
		t.Error("DecodeEnvelope accepted an envelope with no code")
	}
}
