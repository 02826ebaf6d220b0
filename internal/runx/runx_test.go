package runx

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestSafeConvertsPanic(t *testing.T) {
	err := Safe(func() error { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Safe returned %v, want *PanicError", err)
	}
	if pe.Value != "boom" || !strings.Contains(err.Error(), "boom") {
		t.Errorf("PanicError = %v", pe)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError has no stack")
	}
}

func TestSafePassesThrough(t *testing.T) {
	if err := Safe(func() error { return nil }); err != nil {
		t.Errorf("Safe(nil fn) = %v", err)
	}
	want := errors.New("plain")
	if err := Safe(func() error { return want }); err != want {
		t.Errorf("Safe passed %v, want %v", err, want)
	}
}

func TestSweepErrorAggregation(t *testing.T) {
	if err := NewSweepError([]error{nil, nil}, nil); err != nil {
		t.Errorf("clean sweep produced %v", err)
	}
	errs := []error{nil, errors.New("a"), nil, &PanicError{Value: "b"}}
	err := NewSweepError(errs, nil)
	var sw *SweepError
	if !errors.As(err, &sw) || len(sw.Jobs) != 2 {
		t.Fatalf("NewSweepError = %v", err)
	}
	if sw.Jobs[0].Index != 1 || sw.Jobs[1].Index != 3 {
		t.Errorf("job indices = %v", sw.Jobs)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Error("errors.As cannot reach the PanicError through the sweep")
	}
	canceled := NewSweepError(nil, context.Canceled)
	if !errors.Is(canceled, context.Canceled) {
		t.Error("errors.Is cannot see the cancellation cause")
	}
}

func TestRetryTransientThenSuccess(t *testing.T) {
	calls := 0
	b := DefaultBackoff()
	b.Sleep = func(context.Context, time.Duration) error { return nil }
	err := Retry(context.Background(), b, func() error {
		calls++
		if calls < 3 {
			return MarkTransient(errors.New("flaky"))
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Errorf("Retry = %v after %d calls, want nil after 3", err, calls)
	}
}

func TestRetryPermanentFailsFast(t *testing.T) {
	calls := 0
	b := DefaultBackoff()
	b.Sleep = func(context.Context, time.Duration) error { return nil }
	perm := errors.New("corrupt")
	err := Retry(context.Background(), b, func() error { calls++; return perm })
	if !errors.Is(err, perm) || calls != 1 {
		t.Errorf("Retry = %v after %d calls, want the permanent error after 1", err, calls)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	calls := 0
	b := Backoff{Attempts: 4, Initial: time.Nanosecond, Factor: 2,
		Sleep: func(context.Context, time.Duration) error { return nil }}
	err := Retry(context.Background(), b, func() error {
		calls++
		return MarkTransient(fmt.Errorf("still down"))
	})
	if err == nil || calls != 4 {
		t.Errorf("Retry = %v after %d calls, want failure after 4", err, calls)
	}
}

// TestRetryHonorsRetryAfter asserts a RetryAfter hint replaces the
// computed backoff delay for the next sleep (capped at Backoff.Max) and
// that plain transient errors keep the schedule.
func TestRetryHonorsRetryAfter(t *testing.T) {
	var slept []time.Duration
	b := Backoff{Attempts: 4, Initial: 10 * time.Millisecond, Max: 80 * time.Millisecond, Factor: 2,
		Sleep: func(_ context.Context, d time.Duration) error { slept = append(slept, d); return nil }}
	calls := 0
	err := Retry(context.Background(), b, func() error {
		calls++
		switch calls {
		case 1:
			return RetryAfter(errors.New("saturated"), 70*time.Millisecond)
		case 2:
			return RetryAfter(errors.New("saturated"), time.Hour) // must be capped at Max
		case 3:
			return MarkTransient(errors.New("flaky")) // back on the schedule
		}
		return nil
	})
	if err != nil || calls != 4 {
		t.Fatalf("Retry = %v after %d calls, want nil after 4", err, calls)
	}
	// Sleeps: hint 70ms, hint capped to 80ms, then the schedule's third
	// step (10ms doubled twice = 40ms).
	want := []time.Duration{70 * time.Millisecond, 80 * time.Millisecond, 40 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Errorf("sleep %d = %v, want %v", i, slept[i], want[i])
		}
	}
}

// TestSuggestedDelay covers the hint accessor, including through extra
// wrapping.
func TestSuggestedDelay(t *testing.T) {
	if _, ok := SuggestedDelay(errors.New("plain")); ok {
		t.Error("plain error carries a delay hint")
	}
	if _, ok := SuggestedDelay(MarkTransient(errors.New("x"))); ok {
		t.Error("MarkTransient carries a delay hint")
	}
	hinted := RetryAfter(errors.New("busy"), 3*time.Second)
	if !IsTransient(hinted) {
		t.Error("RetryAfter error not transient")
	}
	d, ok := SuggestedDelay(fmt.Errorf("wrapped: %w", hinted))
	if !ok || d != 3*time.Second {
		t.Errorf("SuggestedDelay = %v, %v", d, ok)
	}
	if d, _ := SuggestedDelay(RetryAfter(errors.New("busy"), -time.Second)); d != 0 {
		t.Errorf("negative hint not clamped: %v", d)
	}
	if RetryAfter(nil, time.Second) != nil {
		t.Error("RetryAfter(nil) != nil")
	}
}

func TestRetryHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Retry(ctx, DefaultBackoff(), func() error { calls++; return nil })
	if !errors.Is(err, context.Canceled) || calls != 0 {
		t.Errorf("Retry on canceled ctx = %v after %d calls", err, calls)
	}
}

func TestIsTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("decode failure"), false},
		{fs.ErrNotExist, false},
		{fs.ErrPermission, false},
		{syscall.EINTR, true},
		{syscall.EAGAIN, true},
		{syscall.EIO, true},
		{fmt.Errorf("open: %w", syscall.EMFILE), true},
		{MarkTransient(errors.New("anything")), true},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := ManifestPath(dir)
	m := NewManifest()
	m.Set(ManifestEntry{ID: "fig9", Status: StatusOK, Output: "results/bench_fig9.json"})
	m.Set(ManifestEntry{ID: "table1", Status: StatusFailed, Error: "panic: boom"})
	m.Set(ManifestEntry{ID: "fig5", Status: StatusSkipped, Error: "trace corrupt"})
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 3 {
		t.Fatalf("loaded %d entries", len(got.Entries))
	}
	e, ok := got.Get("fig9")
	if !ok || e.Status != StatusOK || e.Output != "results/bench_fig9.json" {
		t.Errorf("fig9 entry = %+v", e)
	}
	for _, id := range []string{"fig5", "fig9", "table1"} {
		if got.Entries[id].ID != id {
			t.Errorf("entry %s = %+v", id, got.Entries[id])
		}
	}
}

// TestManifestSatisfied covers the resume gate shared by paperrepro and
// the distributed sweep coordinator.
func TestManifestSatisfied(t *testing.T) {
	m := NewManifest()
	m.Set(ManifestEntry{ID: "ok", Status: StatusOK, Output: "bench_ok.json"})
	m.Set(ManifestEntry{ID: "no-output", Status: StatusOK})
	m.Set(ManifestEntry{ID: "failed", Status: StatusFailed, Error: "boom"})
	alwaysValid := func(string) error { return nil }
	if !m.Satisfied("ok", alwaysValid) || !m.Satisfied("ok", nil) {
		t.Error("valid ok entry not satisfied")
	}
	for _, id := range []string{"no-output", "failed", "absent"} {
		if m.Satisfied(id, alwaysValid) {
			t.Errorf("%s reported satisfied", id)
		}
	}
	bad := errors.New("unreadable")
	if m.Satisfied("ok", func(p string) error {
		if p != "bench_ok.json" {
			t.Errorf("validator got path %q", p)
		}
		return bad
	}) {
		t.Error("satisfied despite failing validation")
	}
	var nilM *Manifest
	if nilM.Satisfied("ok", alwaysValid) {
		t.Error("nil manifest satisfied")
	}
}

func TestManifestRejectsBadSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	m := &Manifest{Schema: "something/else", Entries: map[string]ManifestEntry{}}
	// Save stamps an empty schema but must preserve a wrong one so the
	// loader can reject it.
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil {
		t.Error("LoadManifest accepted an unknown schema")
	}
	if _, err := LoadManifest(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("LoadManifest accepted a missing file")
	}
}

func TestWithSignals(t *testing.T) {
	ctx, stop := WithSignals(context.Background())
	if ctx.Err() != nil {
		t.Error("fresh signal context already canceled")
	}
	stop()
}
