package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/snap"
)

func writeValid(t *testing.T, dir, name string) string {
	t.Helper()
	rep := obs.NewReport(name, "test report")
	rep.Metrics = obs.RunMetrics{WallNanos: 1000, Branches: 10, BranchesPerSec: 1e7, Workers: 1}
	path, err := rep.WriteBench(dir)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckFilesAndDir(t *testing.T) {
	dir := t.TempDir()
	p1 := writeValid(t, dir, "headline")
	writeValid(t, dir, "fig9")
	if err := run("", "", "", []string{p1}, true, os.Stdout); err != nil {
		t.Errorf("explicit file: %v", err)
	}
	if err := run(dir, "", "", nil, true, os.Stdout); err != nil {
		t.Errorf("dir scan: %v", err)
	}
}

func TestCheckRejectsInvalid(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bench_bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"nope"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("", "", "", []string{bad}, true, os.Stdout); err == nil {
		t.Error("invalid schema accepted")
	}
	if err := run(dir, "", "", nil, true, os.Stdout); err == nil {
		t.Error("directory with invalid report accepted")
	}
}

func TestCheckEmptyInputs(t *testing.T) {
	if err := run("", "", "", nil, true, os.Stdout); err == nil {
		t.Error("no inputs accepted")
	}
	if err := run(t.TempDir(), "", "", nil, true, os.Stdout); err == nil {
		t.Error("empty directory accepted")
	}
	if err := run("", "", "", []string{"/no/such.json"}, true, os.Stdout); err == nil {
		t.Error("missing file accepted")
	}
}

// TestCheckURL scrapes a live vlpserve /v1/metrics endpoint — the check CI
// runs after serve-smoke to prove the server's observability output is
// schema-valid, not just well-intentioned.
func TestCheckURL(t *testing.T) {
	s, err := serve.New(serve.DefaultLimits(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := run("", ts.URL+"/v1/metrics", "", nil, true, os.Stdout); err != nil {
		t.Errorf("live metrics: %v", err)
	}

	// A URL that serves junk must fail, as must a down server.
	junk := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"schema":"nope"}`))
	}))
	defer junk.Close()
	if err := run("", junk.URL, "", nil, true, os.Stdout); err == nil {
		t.Error("junk endpoint accepted")
	}
	down := httptest.NewServer(nil)
	down.Close()
	if err := run("", down.URL, "", nil, true, os.Stdout); err == nil {
		t.Error("unreachable endpoint accepted")
	}
}

// TestCheckSnapshot validates the -snap mode: a well-formed vlps/v1
// file passes, and a single flipped bit (caught by the trailing
// checksum) or a missing file is a hard error.
func TestCheckSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := &snap.Snapshot{
		Class: "cond",
		Spec:  "gshare:budget=16KB",
		Meta:  []byte{1, 2, 3},
		State: []byte("predictor state bytes"),
	}
	good := filepath.Join(dir, "good.vlps")
	if err := s.SaveFile(good); err != nil {
		t.Fatal(err)
	}
	if err := run("", "", good, nil, true, os.Stdout); err != nil {
		t.Errorf("valid snapshot rejected: %v", err)
	}

	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x04
	bad := filepath.Join(dir, "bad.vlps")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("", "", bad, nil, true, os.Stdout); err == nil {
		t.Error("corrupt snapshot accepted")
	}
	if err := run("", "", filepath.Join(dir, "gone.vlps"), nil, true, os.Stdout); err == nil {
		t.Error("missing snapshot accepted")
	}
}
