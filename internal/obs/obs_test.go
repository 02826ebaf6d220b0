package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestSpanMeasuresBranchesAndWall(t *testing.T) {
	sp := StartSpan()
	CountBranches(1000)
	CountBranches(500)
	time.Sleep(time.Millisecond)
	m := sp.End()
	if m.Branches != 1500 {
		t.Errorf("Branches = %d, want 1500", m.Branches)
	}
	if m.WallNanos <= 0 {
		t.Errorf("WallNanos = %d, want > 0", m.WallNanos)
	}
	if m.BranchesPerSec <= 0 {
		t.Errorf("BranchesPerSec = %f, want > 0", m.BranchesPerSec)
	}
	if m.Workers != 1 {
		t.Errorf("Workers = %d, want default 1", m.Workers)
	}
	if m.String() == "" {
		t.Error("String empty")
	}
}

// spanSink keeps TestSpanCountsAllocAndGC's allocation live on the heap.
var spanSink []byte

// TestSpanCountsAllocAndGC pins the allocator half of a span: a 1 MiB
// allocation inside it shows in AllocBytes, and a forced collection in
// GCCycles.
func TestSpanCountsAllocAndGC(t *testing.T) {
	sp := StartSpan()
	spanSink = make([]byte, 1<<20)
	m := sp.End()
	if m.AllocBytes < 1<<20 {
		t.Errorf("AllocBytes = %d after a 1 MiB allocation, want >= %d", m.AllocBytes, 1<<20)
	}
	spanSink = nil

	sp = StartSpan()
	runtime.GC()
	if m := sp.End(); m.GCCycles < 1 {
		t.Errorf("GCCycles = %d across runtime.GC(), want >= 1", m.GCCycles)
	}
}

func TestSpanNestingAndWorkers(t *testing.T) {
	outer := StartSpan()
	inner := StartSpan()
	inner.SetWorkers(8)
	CountBranches(10)
	im := inner.End()
	CountBranches(5)
	om := outer.End()
	if im.Branches != 10 {
		t.Errorf("inner Branches = %d, want 10", im.Branches)
	}
	if om.Branches != 15 {
		t.Errorf("outer Branches = %d, want 15", om.Branches)
	}
	if im.Workers != 8 {
		t.Errorf("inner Workers = %d, want 8", im.Workers)
	}
}

func TestReportWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rep := NewReport("fig9", "gcc conditional vs size")
	rep.SetParam("budget", 16384)
	rep.Metrics = RunMetrics{WallNanos: 123456, Branches: 1000,
		BranchesPerSec: 8.1e6, AllocBytes: 4096, GCCycles: 1, Workers: 4}
	rep.Data = map[string]float64{"vlp": 4.5}

	path, err := rep.WriteBench(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "bench_fig9.json" {
		t.Errorf("canonical path = %s", path)
	}
	got, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != SchemaVersion || got.Name != "fig9" || got.Params["budget"] != "16384" {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if got.Metrics != rep.Metrics {
		t.Errorf("metrics mismatch: %+v vs %+v", got.Metrics, rep.Metrics)
	}
	if got.Env.GoVersion == "" || got.Env.NumCPU <= 0 {
		t.Errorf("env not captured: %+v", got.Env)
	}

	reports, err := GlobReports(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Name != "fig9" {
		t.Errorf("GlobReports = %v", reports)
	}
}

func TestReportWriteCreatesDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "results")
	rep := NewReport("smoke", "")
	if _, err := rep.WriteBench(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(BenchPath(dir, "smoke")); err != nil {
		t.Error(err)
	}
}

func TestReadReportRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"notjson.json":   "{",
		"badschema.json": `{"schema":"other/v9","name":"x","metrics":{},"env":{}}`,
		"noname.json":    `{"schema":"` + SchemaVersion + `","metrics":{},"env":{}}`,
		"negative.json":  `{"schema":"` + SchemaVersion + `","name":"x","metrics":{"wall_ns":-1},"env":{}}`,
	}
	for name, content := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadReport(path); err == nil {
			t.Errorf("%s: invalid report accepted", name)
		}
	}
	if _, err := ReadReport(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoggerVerbositySplit(t *testing.T) {
	var buf bytes.Buffer
	quiet := NewLogger(&buf, false)
	quiet.Logf("result %d", 1)
	quiet.Progressf("chatter")
	if got := buf.String(); got != "result 1\n" {
		t.Errorf("quiet output = %q", got)
	}

	buf.Reset()
	loud := NewLogger(&buf, true)
	loud.Progressf("step %s", "one")
	if !strings.Contains(buf.String(), "step one") {
		t.Errorf("verbose progress missing: %q", buf.String())
	}
	if !loud.Verbose() || quiet.Verbose() {
		t.Error("Verbose() wrong")
	}

	// nil receivers must be safe: library code logs unconditionally.
	var nilLogger *Logger
	nilLogger.Logf("x")
	nilLogger.Progressf("y")
}

func TestProfileFlagsLifecycle(t *testing.T) {
	dir := t.TempDir()
	var f ProfileFlags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs)
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	tr := filepath.Join(dir, "exec.trace")
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem, "-exectrace", tr}); err != nil {
		t.Fatal(err)
	}
	if !f.Enabled() {
		t.Fatal("Enabled() = false after setting all flags")
	}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		CountBranches(1)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil { // idempotent
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem, tr} {
		info, err := os.Stat(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if info.Size() == 0 {
			t.Errorf("%s: empty profile", path)
		}
	}
}

func TestProfileFlagsDisabledIsNoop(t *testing.T) {
	var f ProfileFlags
	if f.Enabled() {
		t.Error("zero value enabled")
	}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestProfileFlagsBadPath(t *testing.T) {
	f := ProfileFlags{CPUProfile: filepath.Join(t.TempDir(), "no", "such", "dir", "x.pprof")}
	if _, err := f.Start(); err == nil {
		t.Error("unwritable CPU profile path accepted")
	}
}
