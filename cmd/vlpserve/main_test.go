package main

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRunServesAndDrains drives the real entry point: bind :0, publish
// the address via -addr-file, answer a request, then exit cleanly when
// the signal context is canceled.
func TestRunServesAndDrains(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	done := make(chan error, 1)
	go func() {
		done <- run(ctx, "127.0.0.1:0", addrFile, "workers=2,drain=2s", true, "", "", "", nil, nil)
	}()

	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatal("address file never appeared")
		}
		if data, err := os.ReadFile(addrFile); err == nil {
			addr = strings.TrimSpace(string(data))
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	resp, err := http.Get("http://" + addr + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	// The legacy spelling still answers, flagged deprecated.
	legacy, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("legacy healthz: %v", err)
	}
	legacy.Body.Close()
	if legacy.StatusCode != http.StatusOK || legacy.Header.Get("Deprecation") != "true" {
		t.Fatalf("legacy healthz: status %d, Deprecation %q", legacy.StatusCode, legacy.Header.Get("Deprecation"))
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v on cancel, want clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not drain after cancel")
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, "127.0.0.1:0", "", "max-sessions=0", false, "", "", "", nil, nil); err == nil {
		t.Error("invalid limits accepted")
	}
	if err := run(ctx, "127.0.0.1:0", "", "nope=1", false, "", "", "", nil, nil); err == nil {
		t.Error("unknown limits key accepted")
	}
	if err := run(ctx, "256.0.0.1:99999", "", "", false, "", "", "", nil, nil); err == nil {
		t.Error("unlistenable address accepted")
	}
}
