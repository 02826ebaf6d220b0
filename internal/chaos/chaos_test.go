package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseSpecRoundTrip(t *testing.T) {
	cases := []string{
		"chaos:seed=7,latency=50ms@0.2,reset=0.05,truncate=0.02,burst5xx=0.01,stall=0.01",
		"seed=3,reset=0.5",
		"chaos:seed=1",
		"latency=1s@1",
		"stall=0.25,stallfor=2s",
		"burst5xx=0.1,burstlen=7",
	}
	for _, in := range cases {
		spec, err := ParseSpec(in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", in, err)
		}
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("ParseSpec(String(%q)) = ParseSpec(%q): %v", in, spec.String(), err)
		}
		if again != spec {
			t.Fatalf("round trip of %q: %+v != %+v", in, again, spec)
		}
	}
}

func TestParseSpecDefaults(t *testing.T) {
	spec, err := ParseSpec("reset=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 1 || spec.StallFor != 10*time.Second || spec.BurstLen != 3 {
		t.Fatalf("defaults wrong: %+v", spec)
	}
	if !spec.Enabled() {
		t.Fatal("reset=0.1 should enable the injector")
	}
	if (Spec{}).Enabled() {
		t.Fatal("zero spec must be disabled")
	}
}

func TestParseSpecRejects(t *testing.T) {
	bad := []string{
		"bogus=1",           // unknown key
		"reset",             // needs value
		"reset=",            // needs value
		"reset=1.5",         // probability out of range
		"reset=-0.1",        // negative probability
		"reset=NaN",         // not a number, so in no range
		"latency=50ms",      // missing @prob
		"latency=xx@0.5",    // bad duration
		"latency=-1s@0.5",   // negative duration
		"latency=10ms@nope", // bad probability
		"seed=notanumber",
		"stallfor=0s",
		"stallfor=banana",
		"burstlen=0",
		"burstlen=two",
	}
	for _, in := range bad {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want error", in)
		}
	}
}

func TestInjectorDeterministic(t *testing.T) {
	spec, err := ParseSpec("seed=42,latency=1ms@0.3,reset=0.2,truncate=0.2,stall=0.1,burst5xx=0.1")
	if err != nil {
		t.Fatal(err)
	}
	draw := func() (string, string) {
		a, b := New(spec), New(spec)
		for i := 0; i < 500; i++ {
			a.decideClient()
			b.decideClient()
		}
		for i := 0; i < 500; i++ {
			a.decideServer()
			b.decideServer()
		}
		return a.CountsString(), b.CountsString()
	}
	first, second := draw()
	if first != second {
		t.Fatalf("same seed diverged:\n%s\n%s", first, second)
	}
	if !strings.Contains(first, "reset=") || strings.Contains(first, "reset=0 ") {
		t.Fatalf("expected injected resets at p=0.2 over 1000 draws, got %q", first)
	}
}

func TestCountsStringStableAndComplete(t *testing.T) {
	in := New(Spec{Seed: 1})
	got := in.CountsString()
	want := "burst5xx=0 latency=0 reset=0 snap=0 stall=0 truncate=0"
	if got != want {
		t.Fatalf("CountsString() = %q, want %q", got, want)
	}
}

func TestBurstConsumesFollowingRequests(t *testing.T) {
	spec := Spec{Seed: 1, Burst5xxP: 1, BurstLen: 4, StallFor: time.Second}
	in := New(spec)
	for i := 0; i < 8; i++ {
		if d := in.decideServer(); d.fault != FaultBurst5xx {
			t.Fatalf("draw %d: got %q, want burst5xx", i, d.fault)
		}
	}
	if c := in.Counts()[FaultBurst5xx]; c != 8 {
		t.Fatalf("burst count = %d, want 8", c)
	}
}

func newBackend(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	payload := strings.Repeat("payload-", 64)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, payload)
	})
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"status":"ok"}`)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestTransportReset(t *testing.T) {
	srv := newBackend(t)
	client := &http.Client{Transport: New(Spec{Seed: 1, ResetP: 1, StallFor: time.Second, BurstLen: 1}).Transport(nil)}
	_, err := client.Get(srv.URL)
	if err == nil || !IsInjected(err) {
		t.Fatalf("want injected reset, got %v", err)
	}
}

func TestTransportTruncate(t *testing.T) {
	srv := newBackend(t)
	in := New(Spec{Seed: 1, TruncateP: 1, StallFor: time.Second, BurstLen: 1})
	client := &http.Client{Transport: in.Transport(nil)}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil {
		t.Fatalf("want truncation error, read %d bytes cleanly", len(body))
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) || !IsInjected(err) {
		t.Fatalf("want injected unexpected EOF, got %v", err)
	}
	if len(body) >= 8*64 {
		t.Fatalf("body not truncated: %d bytes", len(body))
	}
}

func TestTransportStallRespectsContext(t *testing.T) {
	srv := newBackend(t)
	in := New(Spec{Seed: 1, StallP: 1, StallFor: time.Minute, BurstLen: 1})
	client := &http.Client{Transport: in.Transport(nil)}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	start := time.Now()
	if _, err := io.ReadAll(resp.Body); err == nil {
		t.Fatal("want stalled read to fail when the context expires")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("stall did not respect the context deadline")
	}
}

func TestTransportStallCompletesWithinTimeout(t *testing.T) {
	srv := newBackend(t)
	in := New(Spec{Seed: 1, StallP: 1, StallFor: 20 * time.Millisecond, BurstLen: 1})
	client := &http.Client{Transport: in.Transport(nil), Timeout: 5 * time.Second}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatalf("short stall should resolve cleanly: %v", err)
	}
}

func TestTransportLatency(t *testing.T) {
	srv := newBackend(t)
	in := New(Spec{Seed: 1, Latency: 30 * time.Millisecond, LatencyP: 1, StallFor: time.Second, BurstLen: 1})
	client := &http.Client{Transport: in.Transport(nil)}
	start := time.Now()
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("latency fault not applied: request took %v", d)
	}
	if c := in.Counts()[FaultLatency]; c != 1 {
		t.Fatalf("latency count = %d, want 1", c)
	}
}

func chaosServer(t *testing.T, spec Spec) (*httptest.Server, *Injector) {
	t.Helper()
	in := New(spec)
	payload := strings.Repeat("payload-", 64)
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, payload)
	})
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"status":"ok"}`)
	})
	srv := httptest.NewServer(in.Middleware(mux))
	t.Cleanup(srv.Close)
	return srv, in
}

func TestMiddlewareBurstEnvelope(t *testing.T) {
	srv, _ := chaosServer(t, Spec{Seed: 1, Burst5xxP: 1, BurstLen: 3, StallFor: time.Second})
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 burst must carry Retry-After")
	}
	var env struct {
		Code      string `json:"code"`
		Message   string `json:"message"`
		Retryable bool   `json:"retryable"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("burst body is not an envelope: %v", err)
	}
	if env.Code != "chaos-injected" || !env.Retryable {
		t.Fatalf("envelope = %+v, want retryable chaos-injected", env)
	}
}

func TestMiddlewareTruncate(t *testing.T) {
	srv, _ := chaosServer(t, Spec{Seed: 1, TruncateP: 1, BurstLen: 1, StallFor: time.Second})
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.ReadAll(resp.Body); err == nil {
		t.Fatal("want a short-body read error from server-side truncation")
	}
}

func TestMiddlewareReset(t *testing.T) {
	srv, _ := chaosServer(t, Spec{Seed: 1, ResetP: 1, BurstLen: 1, StallFor: time.Second})
	resp, err := http.Get(srv.URL)
	if err == nil {
		defer resp.Body.Close()
		if _, err = io.ReadAll(resp.Body); err == nil {
			t.Fatal("want a connection drop from server-side reset")
		}
	}
}

func TestMiddlewareHealthExempt(t *testing.T) {
	srv, in := chaosServer(t, Spec{Seed: 1, ResetP: 1, Burst5xxP: 1, BurstLen: 1, StallFor: time.Second})
	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL + "/v1/healthz")
		if err != nil {
			t.Fatalf("healthz faulted: %v", err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz not exempt: status=%d err=%v", resp.StatusCode, err)
		}
		if !strings.Contains(string(body), "ok") {
			t.Fatalf("healthz body garbled: %q", body)
		}
	}
	for f, c := range in.Counts() {
		if c != 0 {
			t.Fatalf("health probes consumed the schedule: %s=%d", f, c)
		}
	}
}

func TestMiddlewareStallAbortsOnClientDisconnect(t *testing.T) {
	srv, _ := chaosServer(t, Spec{Seed: 1, StallP: 1, BurstLen: 1, StallFor: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	start := time.Now()
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("want the stalled request to fail at the client deadline")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("server-side stall ignored the client disconnect")
	}
}
