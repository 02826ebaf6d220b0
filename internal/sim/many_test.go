package sim

import (
	"context"
	"errors"
	"testing"

	"repro/internal/bpred"
	"repro/internal/bpred/bimodal"
	"repro/internal/bpred/gshare"
	"repro/internal/bpred/targetcache"
	"repro/internal/engine/pool"
	"repro/internal/trace"
	"repro/internal/vlp"
)

// manyCondColumn builds a mixed conditional column exercising both the
// plain Predict/Update surface (bimodal) and the fused CondStepper fast
// path (gshare, vlp FLP and VLP-style fixed lengths at two table
// sizes). Calling it twice yields independent identically configured
// predictors, which is what the differential tests need.
func manyCondColumn(t testing.TB) []bpred.CondPredictor {
	t.Helper()
	var preds []bpred.CondPredictor
	preds = append(preds, bimodal.NewBits(10))
	g, err := gshare.New(4 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	preds = append(preds, g)
	for _, cfg := range []struct {
		kb int
		l  int
	}{{1, 3}, {1, 7}, {4, 5}, {4, 9}} {
		p, err := vlp.NewCond(cfg.kb*1024, vlp.Fixed{L: cfg.l}, vlp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		preds = append(preds, p)
	}
	return preds
}

func manyIndColumn(t testing.TB) []bpred.IndirectPredictor {
	t.Helper()
	var preds []bpred.IndirectPredictor
	preds = append(preds, targetcache.NewBTB(8))
	p, err := vlp.NewIndirect(2048, vlp.Fixed{L: 4}, vlp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return append(preds, p)
}

// testColumn is one predictor column the kernel tests replay; build
// returns fresh, identically configured predictors on every call.
type testColumn struct {
	name  string
	build func(t testing.TB) []bpred.Predictor
}

func columns(t testing.TB) []testColumn {
	cond := func(t testing.TB) []bpred.Predictor {
		var out []bpred.Predictor
		for _, p := range manyCondColumn(t) {
			out = append(out, p)
		}
		return out
	}
	ind := func(t testing.TB) []bpred.Predictor {
		var out []bpred.Predictor
		for _, p := range manyIndColumn(t) {
			out = append(out, p)
		}
		return out
	}
	return []testColumn{
		{"cond", cond},
		{"indirect", ind},
		{"mixed", func(t testing.TB) []bpred.Predictor { return append(cond(t), ind(t)...) }},
	}
}

// jobsFor wraps each predictor as the column entry of its class.
func jobsFor(preds []bpred.Predictor) []Job {
	jobs := make([]Job, len(preds))
	for i, p := range preds {
		if c, ok := p.(bpred.CondPredictor); ok {
			jobs[i] = CondJob(c)
		} else {
			jobs[i] = IndirectJob(p.(bpred.IndirectPredictor))
		}
	}
	return jobs
}

// withWorkers caps the engine pool for the rest of the test.
func withWorkers(t *testing.T, n int) {
	pool.SetCap(n)
	t.Cleanup(func() { pool.SetCap(0) })
}

// kernelModes are the ways a column can be run through RunMany: each
// predictor alone (K=1), fused on one worker, and fused and sharded
// across workers.
var kernelModes = []struct {
	name    string
	workers int
	k1      bool
}{
	{"k1", 1, true},
	{"fused", 1, false},
	{"sharded", 3, false},
}

// TestRunManyCondMatchesSequential is the kernel's differential gate:
// for every predictor kind in the test columns, every kernel mode, a
// Buffer and a streaming source, and with and without the per-PC
// breakdown, each job's Result must equal the independent reference
// loop's Result for that predictor alone.
func TestRunManyCondMatchesSequential(t *testing.T) {
	recs := mixedRecords(20000)
	sources := []struct {
		name   string
		source func() trace.Source
	}{
		{"buffer", func() trace.Source { return trace.NewBuffer(recs) }},
		{"stream", func() trace.Source { return opaqueSource{trace.NewBuffer(recs)} }},
	}
	for _, col := range columns(t) {
		for _, m := range kernelModes {
			for _, src := range sources {
				for _, perPC := range []bool{false, true} {
					withWorkers(t, m.workers)
					opts := Options{PerPC: perPC}
					jobs := jobsFor(col.build(t))
					var got []Result
					if m.k1 {
						for i := range jobs {
							got = append(got, RunMany(context.Background(), jobs[i:i+1], src.source(), opts)...)
						}
					} else {
						got = RunMany(context.Background(), jobs, src.source(), opts)
					}
					for i, p := range col.build(t) {
						want := reference(context.Background(), p, src.source(), perPC)
						sameResult(t, col.name+"/"+m.name+"/"+src.name+"/"+p.Name(), got[i], want)
					}
				}
			}
		}
	}
}

// TestRunManyIndirectMatchesSequential pins the class wrappers: RunCond
// and RunIndirect are K=1 kernel calls, and RunManyCond/RunManyIndirect
// return, per entry, what the reference returns for it alone.
func TestRunManyIndirectMatchesSequential(t *testing.T) {
	recs := mixedRecords(20000)
	ref := func(p bpred.Predictor, perPC bool) Result {
		return reference(context.Background(), p, trace.NewBuffer(recs), perPC)
	}
	fused := RunManyIndirect(context.Background(), manyIndColumn(t), trace.NewBuffer(recs), Options{PerPC: true})
	for i, p := range manyIndColumn(t) {
		sameResult(t, "RunManyIndirect/"+p.Name(), fused[i], ref(p, true))
	}
	fresh := manyIndColumn(t)
	for i, p := range manyIndColumn(t) {
		sameResult(t, "RunIndirect/"+p.Name(), RunIndirect(context.Background(), p, trace.NewBuffer(recs), Options{}), ref(fresh[i], false))
	}
	condFused := RunManyCond(context.Background(), manyCondColumn(t), trace.NewBuffer(recs), Options{})
	freshCond := manyCondColumn(t)
	for i, p := range manyCondColumn(t) {
		got := RunCond(context.Background(), p, trace.NewBuffer(recs), Options{})
		sameResult(t, "RunCond/"+p.Name(), got, ref(freshCond[i], false))
		sameResult(t, "RunManyCond/"+p.Name(), condFused[i], got)
		if got.Predictor != p.Name() {
			t.Errorf("RunCond predictor name %q, want %q", got.Predictor, p.Name())
		}
	}
}

// TestRunManyMixedClasses fuses conditional and indirect predictors in
// one column: each class must score only its own records while every
// predictor observes the full stream.
func TestRunManyMixedClasses(t *testing.T) {
	recs := mixedRecords(20000)
	mixed := columns(t)[2]
	res := RunMany(context.Background(), jobsFor(mixed.build(t)), trace.NewBuffer(recs), Options{})
	for i, p := range mixed.build(t) {
		sameResult(t, "mixed/"+p.Name(), res[i], reference(context.Background(), p, trace.NewBuffer(recs), false))
	}
}

// TestRunManyShardedMatchesSingleWorker drives the shard runner with
// forced worker counts and checks that job-to-worker assignment is
// unobservable: the counts equal the single-worker pass. Under -race
// this also verifies the workers share nothing but the read-only record
// window.
func TestRunManyShardedMatchesSingleWorker(t *testing.T) {
	recs := mixedRecords(20000)
	mixed := columns(t)[2]
	withWorkers(t, 1)
	want := RunMany(context.Background(), jobsFor(mixed.build(t)), trace.NewBuffer(recs), Options{})
	for w := 2; w <= 4; w++ {
		jobs := jobsFor(mixed.build(t))
		results := make([]Result, len(jobs))
		run := newRun(jobs, results, Options{})
		if n := runShards(context.Background(), run, recs, 0, w); n != len(recs) {
			t.Fatalf("workers=%d replayed %d records, want %d", w, n, len(recs))
		}
		for i := range results {
			sameResult(t, "sharded/"+results[i].Predictor, results[i], want[i])
		}
	}
}

// TestRunManyCancellation: an already-canceled context stops every
// column entry at the first cancelStride boundary — K=1, fused and
// sharded alike, on a Buffer and a streaming source — with the
// context error on every Result and the counts the reference scores
// before that boundary.
func TestRunManyCancellation(t *testing.T) {
	recs := mixedRecords(cancelStride*2 + 500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range kernelModes {
		for _, stream := range []bool{false, true} {
			withWorkers(t, m.workers)
			src := func() trace.Source {
				if stream {
					return opaqueSource{trace.NewBuffer(recs)}
				}
				return trace.NewBuffer(recs)
			}
			jobs := jobsFor(columns(t)[2].build(t))
			var res []Result
			if m.k1 {
				for i := range jobs {
					res = append(res, RunMany(ctx, jobs[i:i+1], src(), Options{})...)
				}
			} else {
				res = RunMany(ctx, jobs, src(), Options{})
			}
			for i, p := range columns(t)[2].build(t) {
				if !errors.Is(res[i].Err, context.Canceled) {
					t.Fatalf("%s: job %d Err = %v, want context.Canceled", m.name, i, res[i].Err)
				}
				sameResult(t, m.name+"/canceled/"+p.Name(), res[i], reference(ctx, p, src(), false))
				if res[i].Branches == 0 {
					t.Errorf("%s: canceled run scored nothing before the boundary", m.name)
				}
			}
		}
	}
}

// TestRunManyTruncatedSource: a source that fails mid-stream must mark
// every column entry's Result with the failure — a fused run over a
// corrupt trace cannot pass for K clean short runs — while the counts
// equal a clean fused run over the surviving prefix.
func TestRunManyTruncatedSource(t *testing.T) {
	recs := mixedRecords(3000)
	const cut = 1700
	want := errors.New("record 1700: unexpected EOF")
	res := RunManyCond(context.Background(), manyCondColumn(t),
		&recFailingSource{recs: recs[:cut], err: want}, Options{})
	prefix := RunManyCond(context.Background(), manyCondColumn(t), trace.NewBuffer(recs[:cut]), Options{})
	for i := range res {
		if !errors.Is(res[i].Err, want) {
			t.Fatalf("job %d Err = %v, want the source error", i, res[i].Err)
		}
		if prefix[i].Err != nil {
			t.Fatalf("prefix run errored: %v", prefix[i].Err)
		}
		prefix[i].Err = want
		sameResult(t, "truncated/"+res[i].Predictor, res[i], prefix[i])
	}
}

// TestRunManyEdgeCases: the K=0 column returns no results without
// touching the source, an empty source gives clean zero counts, and a
// Buffer whose last record sits on a cancelStride boundary is complete
// when the context is canceled after that record.
func TestRunManyEdgeCases(t *testing.T) {
	buf := trace.NewBuffer(mixedRecords(100))
	res := RunMany(context.Background(), nil, buf, Options{})
	if len(res) != 0 {
		t.Fatalf("K=0 returned %d results", len(res))
	}
	var r trace.Record
	if !buf.Next(&r) {
		t.Error("K=0 run consumed the source")
	}
	for _, src := range []trace.Source{trace.NewBuffer(nil), opaqueSource{trace.NewBuffer(nil)}} {
		for _, got := range RunManyCond(context.Background(), manyCondColumn(t), src, Options{PerPC: true}) {
			if got.Err != nil || got.Branches != 0 || len(got.PerPC) != 0 {
				t.Errorf("empty source: %+v", got)
			}
		}
	}
	// A Buffer of exactly cancelStride records, with an entry that
	// cancels the context at the last record.
	recs := mixedRecords(cancelStride)
	ctx, cancel := context.WithCancel(context.Background())
	jobs := append(jobsFor(columns(t)[2].build(t)), CondJob(&cancelAt{n: cancelStride, cancel: cancel}))
	res = RunMany(ctx, jobs, trace.NewBuffer(recs), Options{})
	cancel()
	for i, p := range columns(t)[2].build(t) {
		if res[i].Err != nil {
			t.Fatalf("canceled after the last record: job %d Err = %v, want a complete run", i, res[i].Err)
		}
		sameResult(t, "canceled-after-end/"+p.Name(), res[i], reference(context.Background(), p, trace.NewBuffer(recs), false))
	}
}

// TestRunManyConsumesBuffer: the fused pass must leave the buffer
// exhausted and rewindable.
func TestRunManyConsumesBuffer(t *testing.T) {
	buf := trace.NewBuffer(mixedRecords(100))
	RunManyCond(context.Background(), manyCondColumn(t), buf, Options{})
	var r trace.Record
	if buf.Next(&r) {
		t.Error("buffer still yields records after a fused run; Consume not applied")
	}
	buf.Reset()
	if !buf.Next(&r) {
		t.Error("Reset after a fused run did not rewind the buffer")
	}
}
