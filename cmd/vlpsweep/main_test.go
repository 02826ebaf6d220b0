package main

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/serve"
)

func TestRunRejectsBadInputs(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, "", "headline", 30000, 0, "", "", false, nil, 0, nil); err == nil {
		t.Error("no workers accepted")
	}
	if err := run(ctx, " , ,", "headline", 30000, 0, "", "", false, nil, 0, nil); err == nil {
		t.Error("blank worker list accepted")
	}
}

// TestRunSweepsOneWorker drives the real entry point against a real
// worker and checks the merged artifacts land.
func TestRunSweepsOneWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment cell")
	}
	s, err := serve.New(serve.DefaultLimits(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s.SetJobRunner(dist.NewRunner("", nil))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	outDir, jsonDir := t.TempDir(), t.TempDir()
	// Trailing slash and whitespace in the worker list are tolerated.
	if err := run(context.Background(), " "+ts.URL+"/ ", "headline", 30000, 15000,
		outDir, jsonDir, false, nil, 0, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := os.Stat(filepath.Join(outDir, "headline.txt")); err != nil {
		t.Errorf("rendered artifact missing: %v", err)
	}
	for _, name := range []string{"headline", "sweep"} {
		if _, err := obs.ReadReport(obs.BenchPath(jsonDir, name)); err != nil {
			t.Errorf("bench report %s: %v", name, err)
		}
	}
}
