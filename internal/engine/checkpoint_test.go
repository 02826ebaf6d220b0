package engine

import (
	"context"
	"os"
	"sync"
	"testing"

	"repro/internal/bpred"
	"repro/internal/bpred/targetcache"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// goTrace caches the "go" benchmark's 60000-record test trace for the
// checkpoint tests, mirroring how a suite memoizes trace generation.
var goTrace struct {
	once sync.Once
	recs []trace.Record
	err  error
}

func goRecords(t *testing.T) []trace.Record {
	t.Helper()
	goTrace.once.Do(func() {
		b, err := workload.ByName("go")
		if err != nil {
			goTrace.err = err
			return
		}
		goTrace.recs = trace.Collect(b.TestSource(60000)).Records
	})
	if goTrace.err != nil {
		t.Fatal(goTrace.err)
	}
	return goTrace.recs
}

// goEngine builds an engine whose Source serves the cached "go" trace
// for every bench name, like a one-benchmark suite.
func goEngine(t *testing.T, snapDir string) *Engine {
	recs := goRecords(t)
	return New(Config{
		Source:  func(string) (trace.Source, error) { return trace.NewBuffer(recs), nil },
		SnapDir: snapDir,
	})
}

func indCellPattern(k uint) IndirectCell {
	return func() (bpred.IndirectPredictor, error) { return targetcache.NewPattern(k), nil }
}

// plantCheckpoint simulates a crashed column replay: it replays the
// first k records of the "go" trace through a fresh copy of the column
// and writes the checkpoint a dying worker would have left behind in
// the engine's SnapDir.
func plantCheckpoint(t *testing.T, dir string, cell Key, jobs []sim.Job, k int) string {
	t.Helper()
	recs := goRecords(t)
	res := sim.RunMany(context.Background(), jobs, trace.NewBuffer(recs[:k]), sim.Options{})
	for i := range res {
		if res[i].Err != nil {
			t.Fatalf("prefix replay failed: %v", res[i].Err)
		}
	}
	key := columnCheckpointKey(cell, jobs)
	cp, err := encodeCheckpoint(key, jobs, k, res)
	if err != nil {
		t.Fatal(err)
	}
	path := checkpointPath(dir, key)
	if err := cp.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCondColumnResumesFromCheckpoint is the requeue-without-replay
// guarantee: a column resumed from a mid-trace checkpoint must produce
// the same rates as an uninterrupted replay, bit-identically, while
// skipping the already-replayed prefix — and must clean up its
// checkpoint once the column completes.
func TestCondColumnResumesFromCheckpoint(t *testing.T) {
	ctx := context.Background()
	cells := []CondCell{condCellGshare(1024), condCellGshare(4096)}

	clean := goEngine(t, "")
	want, err := clean.Column(ctx, Cell{Trace: "go", ColumnID: "ckpt", Cond: cells})
	if err != nil {
		t.Fatal(err)
	}

	const k = 20000
	dir := t.TempDir()
	e := goEngine(t, dir)
	preds := make([]bpred.CondPredictor, len(cells))
	for i, cell := range cells {
		p, err := cell()
		if err != nil {
			t.Fatal(err)
		}
		preds[i] = p
	}
	jobs, _ := e.condJobs(preds)
	path := plantCheckpoint(t, dir, Key{Class: ClassCond, Trace: "go", ColumnID: "ckpt"}, jobs, k)

	got, err := e.Column(ctx, Cell{Trace: "go", ColumnID: "ckpt", Cond: cells})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cell %d: resumed %v, uninterrupted %v", i, got[i], want[i])
		}
	}
	if n := e.Counters().ResumedRecords; n != k {
		t.Errorf("ResumedRecords = %d, want %d", n, k)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("finished column left checkpoint behind (stat err %v)", err)
	}
}

// TestIndirectColumnResumesFromCheckpoint covers the indirect wiring of
// the same guarantee.
func TestIndirectColumnResumesFromCheckpoint(t *testing.T) {
	ctx := context.Background()
	cells := []IndirectCell{indCellPattern(8), indCellPattern(10)}

	clean := goEngine(t, "")
	want, err := clean.Column(ctx, Cell{Trace: "go", ColumnID: "ckpt-ind", Indirect: cells})
	if err != nil {
		t.Fatal(err)
	}

	const k = 15000
	dir := t.TempDir()
	e := goEngine(t, dir)
	jobs := make([]sim.Job, len(cells))
	for i, cell := range cells {
		p, err := cell()
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = sim.IndirectJob(p)
	}
	plantCheckpoint(t, dir, Key{Class: ClassIndirect, Trace: "go", ColumnID: "ckpt-ind"}, jobs, k)

	got, err := e.Column(ctx, Cell{Trace: "go", ColumnID: "ckpt-ind", Indirect: cells})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cell %d: resumed %v, uninterrupted %v", i, got[i], want[i])
		}
	}
	if n := e.Counters().ResumedRecords; n != k {
		t.Errorf("ResumedRecords = %d, want %d", n, k)
	}
}

// TestColumnIgnoresBadCheckpoint pins the trust-but-verify restore: a
// damaged checkpoint and a checkpoint for a different column must both
// be ignored — replay starts from record zero and the rates still match
// the uninterrupted run.
func TestColumnIgnoresBadCheckpoint(t *testing.T) {
	ctx := context.Background()
	cells := []CondCell{condCellGshare(1024), condCellGshare(4096)}

	clean := goEngine(t, "")
	want, err := clean.Column(ctx, Cell{Trace: "go", ColumnID: "ckpt-bad", Cond: cells})
	if err != nil {
		t.Fatal(err)
	}

	for name, damage := range map[string]func(path string){
		"corrupt": func(path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"wrong-column": func(path string) {
			// Overwrite with a valid checkpoint that describes a
			// DIFFERENT column (other cells, other key) parked at our
			// column's path; the spec check must reject it.
			p, err := condCellGshare(256)()
			if err != nil {
				t.Fatal(err)
			}
			jobs, _ := New(Config{}).condJobs([]bpred.CondPredictor{p})
			key := columnCheckpointKey(Key{Class: ClassCond, Trace: "go", ColumnID: "ckpt-other"}, jobs)
			res := []sim.Result{{Branches: 1, Mispredicts: 1}}
			cp, err := encodeCheckpoint(key, jobs, 100, res)
			if err != nil {
				t.Fatal(err)
			}
			if err := cp.SaveFile(path); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			e := goEngine(t, dir)
			preds := make([]bpred.CondPredictor, len(cells))
			for i, cell := range cells {
				p, err := cell()
				if err != nil {
					t.Fatal(err)
				}
				preds[i] = p
			}
			jobs, _ := e.condJobs(preds)
			path := plantCheckpoint(t, dir, Key{Class: ClassCond, Trace: "go", ColumnID: "ckpt-bad"}, jobs, 20000)
			damage(path)

			got, err := e.Column(ctx, Cell{Trace: "go", ColumnID: "ckpt-bad", Cond: cells})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("cell %d: got %v, want %v", i, got[i], want[i])
				}
			}
			if n := e.Counters().ResumedRecords; n != 0 {
				t.Errorf("damaged checkpoint resumed %d records, want 0", n)
			}
		})
	}
}

// TestColumnWritesCheckpointsMidRun pins the stride plumbing: with a
// small stride the checkpointed runner must leave mid-run checkpoints
// on disk (observed via a hook-free proxy — the final results still
// match and nothing resumed), and the stride must not perturb rates.
func TestColumnWritesCheckpointsMidRun(t *testing.T) {
	old := checkpointStride
	checkpointStride = 7000
	defer func() { checkpointStride = old }()

	ctx := context.Background()
	cells := []CondCell{condCellGshare(1024), condCellGshare(4096)}

	clean := goEngine(t, "")
	want, err := clean.Column(ctx, Cell{Trace: "go", ColumnID: "ckpt-stride", Cond: cells})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	e := goEngine(t, dir)
	got, err := e.Column(ctx, Cell{Trace: "go", ColumnID: "ckpt-stride", Cond: cells})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cell %d: strided %v, uninterrupted %v", i, got[i], want[i])
		}
	}
	if n := e.Counters().ResumedRecords; n != 0 {
		t.Errorf("fresh run resumed %d records, want 0", n)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("clean finish left %d files in SnapDir", len(entries))
	}
}
