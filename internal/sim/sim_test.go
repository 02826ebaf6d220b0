package sim

import (
	"context"
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/bpred/bimodal"
	"repro/internal/bpred/targetcache"
	"repro/internal/trace"
)

func TestRunCondCountsAndRate(t *testing.T) {
	// Alternating branch vs a bimodal predictor: deterministic stats.
	var recs []trace.Record
	pc := arch.Addr(0x1004)
	for i := 0; i < 100; i++ {
		taken := i%2 == 0
		next := pc.FallThrough()
		if taken {
			next = 0x9000
		}
		recs = append(recs, trace.Record{PC: pc, Kind: arch.Cond, Taken: taken, Next: next})
		recs = append(recs, trace.Record{PC: 0x200, Kind: arch.Return, Taken: true, Next: 0x300})
	}
	res := RunCond(context.Background(), bimodal.NewBits(8), trace.NewBuffer(recs), Options{PerPC: true})
	if res.Branches != 100 {
		t.Errorf("Branches = %d, want 100 (returns must not count)", res.Branches)
	}
	if res.Mispredicts == 0 || res.Mispredicts > 100 {
		t.Errorf("Mispredicts = %d", res.Mispredicts)
	}
	if res.Rate() != float64(res.Mispredicts)/100 {
		t.Errorf("Rate inconsistent")
	}
	if res.Percent() != res.Rate()*100 {
		t.Errorf("Percent inconsistent")
	}
	st := res.PerPC[pc]
	if st == nil || st.Branches != 100 || st.Mispredicts != res.Mispredicts {
		t.Errorf("PerPC stats wrong: %+v", st)
	}
	if res.String() == "" {
		t.Error("String empty")
	}
}

func TestRunCondResetsSource(t *testing.T) {
	recs := []trace.Record{{PC: 0x1004, Kind: arch.Cond, Taken: true, Next: 0x2000}}
	src := trace.NewBuffer(recs)
	var r trace.Record
	src.Next(&r) // exhaust
	res := RunCond(context.Background(), bimodal.NewBits(4), src, Options{})
	if res.Branches != 1 {
		t.Errorf("RunCond did not reset the source: %d branches", res.Branches)
	}
}

func TestRunIndirectScoresOnlyIndirect(t *testing.T) {
	recs := []trace.Record{
		{PC: 0x1004, Kind: arch.Indirect, Taken: true, Next: 0x5000},
		{PC: 0x1004, Kind: arch.Indirect, Taken: true, Next: 0x5000},
		{PC: 0x2008, Kind: arch.IndirectCall, Taken: true, Next: 0x6000},
		{PC: 0x300c, Kind: arch.Return, Taken: true, Next: 0x7000},
		{PC: 0x4010, Kind: arch.Cond, Taken: true, Next: 0x8000},
	}
	res := RunIndirect(context.Background(), targetcache.NewBTB(8), trace.NewBuffer(recs), Options{PerPC: true})
	if res.Branches != 3 {
		t.Errorf("Branches = %d, want 3 (returns and conds excluded)", res.Branches)
	}
	// First visit misses (cold), second hits; the icall misses cold.
	if res.Mispredicts != 2 {
		t.Errorf("Mispredicts = %d, want 2", res.Mispredicts)
	}
	if len(res.PerPC) != 2 {
		t.Errorf("PerPC has %d sites, want 2", len(res.PerPC))
	}
}

func TestWorstPCs(t *testing.T) {
	res := Result{PerPC: map[arch.Addr]*PCStat{
		0x100: {Branches: 10, Mispredicts: 1},
		0x200: {Branches: 10, Mispredicts: 7},
		0x300: {Branches: 10, Mispredicts: 4},
	}}
	got := res.WorstPCs(2)
	if len(got) != 2 || got[0] != 0x200 || got[1] != 0x300 {
		t.Errorf("WorstPCs = %v", got)
	}
	if n := len(res.WorstPCs(10)); n != 3 {
		t.Errorf("WorstPCs(10) returned %d", n)
	}
}

func TestEmptyRate(t *testing.T) {
	if (Result{}).Rate() != 0 {
		t.Error("empty Rate != 0")
	}
}

func TestRunCapturesMetrics(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 1000; i++ {
		recs = append(recs, trace.Record{PC: 0x1004, Kind: arch.Cond, Taken: i%3 == 0, Next: 0x9000})
	}
	res := RunCond(context.Background(), bimodal.NewBits(8), trace.NewBuffer(recs), Options{})
	m := res.Metrics
	if m.Branches != res.Branches {
		t.Errorf("Metrics.Branches = %d, want %d", m.Branches, res.Branches)
	}
	if m.WallNanos <= 0 {
		t.Errorf("Metrics.WallNanos = %d, want > 0", m.WallNanos)
	}
	if m.BranchesPerSec <= 0 {
		t.Errorf("Metrics.BranchesPerSec = %f, want > 0", m.BranchesPerSec)
	}
	if m.Workers != 1 {
		t.Errorf("Metrics.Workers = %d, want 1", m.Workers)
	}
}

// failingSource yields n records then fails like a truncated trace file:
// Next returns false with Err set, the shape trace.Reader produces.
type failingSource struct {
	n, emitted int
	err        error
}

func (f *failingSource) Next(r *trace.Record) bool {
	if f.emitted >= f.n {
		return false
	}
	f.emitted++
	*r = trace.Record{PC: 0x1004, Kind: arch.Cond, Taken: true, Next: 0x2000}
	return true
}
func (f *failingSource) Reset()     { f.emitted = 0 }
func (f *failingSource) Err() error { return f.err }

// TestRunSurfacesSourceError is the silent-truncation regression test: a
// source that dies mid-stream must not produce a clean-looking Result.
func TestRunSurfacesSourceError(t *testing.T) {
	want := errors.New("record 3: unexpected EOF")
	src := &failingSource{n: 3, err: want}
	res := RunCond(context.Background(), bimodal.NewBits(4), src, Options{})
	if !errors.Is(res.Err, want) {
		t.Errorf("Result.Err = %v, want the source error", res.Err)
	}
	if res.Branches != 3 {
		t.Errorf("Branches = %d, want the 3 replayed before failure", res.Branches)
	}
	clean := &failingSource{n: 3}
	if res := RunCond(context.Background(), bimodal.NewBits(4), clean, Options{}); res.Err != nil {
		t.Errorf("clean source produced Err = %v", res.Err)
	}
}

// TestRunHonorsCancellation: a canceled context stops the replay at a
// stride boundary with Result.Err set.
func TestRunHonorsCancellation(t *testing.T) {
	recs := make([]trace.Record, cancelStride+1000)
	for i := range recs {
		recs[i] = trace.Record{PC: 0x1004, Kind: arch.Cond, Taken: true, Next: 0x2000}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := RunCond(ctx, bimodal.NewBits(4), trace.NewBuffer(recs), Options{})
	if !errors.Is(res.Err, context.Canceled) {
		t.Errorf("Result.Err = %v, want context.Canceled", res.Err)
	}
	if res.Branches >= int64(len(recs)) {
		t.Errorf("run completed all %d records despite cancellation", len(recs))
	}
}
