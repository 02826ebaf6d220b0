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
// predictor alone (K=1), fused on one worker, fused and sharded across
// workers, and segmented with a checkpoint hook between windows.
var kernelModes = []struct {
	name    string
	workers int
	k1      bool
	stride  int
}{
	{"k1", 1, true, 0},
	{"fused", 1, false, 0},
	{"sharded", 3, false, 0},
	{"segmented", 3, false, 999},
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
					opts := Options{PerPC: perPC, Stride: m.stride}
					hooks := 0
					if m.stride > 0 {
						opts.Checkpoint = func(int, []Result) error { hooks++; return nil }
					}
					jobs := jobsFor(col.build(t))
					var got []Result
					if m.k1 {
						for i := range jobs {
							got = append(got, RunMany(context.Background(), jobs[i:i+1], src.source(), opts)...)
						}
					} else {
						got = RunMany(context.Background(), jobs, src.source(), opts)
					}
					if m.stride > 0 && hooks != (len(recs)+m.stride-1)/m.stride {
						t.Errorf("%s/%s/%s: %d checkpoints, want one per %d records", col.name, m.name, src.name, hooks, m.stride)
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

// sharedColumn builds a column with shareable path histories (two
// table sizes, several lengths each), applies ShareCondHistories, and
// returns the fused job list plus the predictors in cell order.
func sharedColumn(t testing.TB) ([]Job, []bpred.CondPredictor) {
	t.Helper()
	var preds []bpred.CondPredictor
	for _, kb := range []int{1, 4} {
		for _, l := range []int{3, 6, 9} {
			p, err := vlp.NewCond(kb*1024, vlp.Fixed{L: l}, vlp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			preds = append(preds, p)
		}
	}
	groups := vlp.ShareCondHistories(preds)
	if len(groups) != 2 {
		t.Fatalf("ShareCondHistories made %d groups, want 2 (one per table size)", len(groups))
	}
	var jobs []Job
	for _, g := range groups {
		for i, m := range g.Members {
			j := CondJob(preds[m])
			j.Tie = i > 0
			jobs = append(jobs, j)
		}
		jobs = append(jobs, ObserverJob(g.Observer))
	}
	return jobs, preds
}

// TestRunManySharedHistoryMatchesSequential is the bit-identity gate
// for history sharing: members of a shared HashSet group, trained
// before the group's single per-record insert, must produce exactly the
// counts of their solo reference runs with private HashSets — fused on
// one worker, sharded, and segmented.
func TestRunManySharedHistoryMatchesSequential(t *testing.T) {
	recs := mixedRecords(20000)
	for _, m := range kernelModes[1:] {
		withWorkers(t, m.workers)
		jobs, preds := sharedColumn(t)
		opts := Options{Stride: m.stride}
		if m.stride > 0 {
			opts.Checkpoint = func(int, []Result) error { return nil }
		}
		res := RunMany(context.Background(), jobs, trace.NewBuffer(recs), opts)
		// Job order is a permutation of cell order; match results by
		// predictor identity instead of position.
		resByPred := map[bpred.CondPredictor]Result{}
		for i, j := range jobs {
			if j.Cond != nil {
				resByPred[j.Cond] = res[i]
			}
		}
		i := 0
		for _, kb := range []int{1, 4} {
			for _, l := range []int{3, 6, 9} {
				got, ok := resByPred[preds[i]]
				if !ok {
					t.Fatalf("%s: no fused result for cell %d", m.name, i)
				}
				solo, err := vlp.NewCond(kb*1024, vlp.Fixed{L: l}, vlp.Options{})
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, m.name+"/"+got.Predictor, got, reference(context.Background(), solo, trace.NewBuffer(recs), false))
				i++
			}
		}
	}
}

// TestRunManyShardedMatchesSingleWorker drives the shard runner with
// forced worker counts and checks that shard-to-worker assignment is
// unobservable: tie-runs stay intact, shared groups keep their
// member-before-observer order, and the counts equal the single-worker
// pass. Under -race this also verifies the workers share nothing but
// the read-only record window.
func TestRunManyShardedMatchesSingleWorker(t *testing.T) {
	recs := mixedRecords(20000)
	withWorkers(t, 1)
	jobs, _ := sharedColumn(t)
	want := RunMany(context.Background(), jobs, trace.NewBuffer(recs), Options{})
	for w := 2; w <= 4; w++ {
		jobs, _ := sharedColumn(t)
		results := make([]Result, len(jobs))
		run := newRun(jobs, results, Options{})
		shards := shardJobs(run, jobs)
		if len(shards) != 2 {
			t.Fatalf("shardJobs made %d shards, want 2 tie-runs", len(shards))
		}
		if n := runShards(context.Background(), run, shards, recs, 0, w); n != len(recs) {
			t.Fatalf("workers=%d replayed %d records, want %d", w, n, len(recs))
		}
		for i := range results {
			sameResult(t, "sharded/"+results[i].Predictor, results[i], want[i])
		}
	}
}

// TestShardJobs pins the tie-run boundaries: a shard break happens
// exactly at each untied job.
func TestShardJobs(t *testing.T) {
	mk := func(tie bool) Job {
		j := CondJob(bimodal.NewBits(4))
		j.Tie = tie
		return j
	}
	jobs := []Job{mk(false), mk(true), mk(true), mk(false), mk(false), mk(true)}
	run := make([]manyJob, len(jobs))
	shards := shardJobs(run, jobs)
	sizes := make([]int, len(shards))
	for i, s := range shards {
		sizes[i] = len(s)
	}
	want := []int{3, 1, 2}
	if len(sizes) != len(want) {
		t.Fatalf("shard sizes %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("shard sizes %v, want %v", sizes, want)
		}
	}
}

// TestRunManyCancellation: an already-canceled context stops every
// column entry at the first cancelStride boundary — K=1, fused, sharded
// and segmented alike, on a Buffer and a streaming source — with the
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
			opts := Options{Stride: m.stride}
			if m.stride > 0 {
				opts.Checkpoint = func(int, []Result) error { return nil }
			}
			jobs := jobsFor(columns(t)[2].build(t))
			var res []Result
			if m.k1 {
				for i := range jobs {
					res = append(res, RunMany(ctx, jobs[i:i+1], src(), opts)...)
				}
			} else {
				res = RunMany(ctx, jobs, src(), opts)
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
// touching the source, and an empty source gives clean zero counts.
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

// TestRunManyObserverResult: observers participate but are never
// scored; their Result row exists (position parity) with zero counts.
func TestRunManyObserverResult(t *testing.T) {
	recs := mixedRecords(5000)
	jobs, _ := sharedColumn(t)
	res := RunMany(context.Background(), jobs, trace.NewBuffer(recs), Options{PerPC: true})
	seenObserver := false
	for i, j := range jobs {
		if j.Observer == nil {
			continue
		}
		seenObserver = true
		if res[i].Branches != 0 || res[i].Mispredicts != 0 || res[i].PerPC != nil {
			t.Errorf("observer row %d has counts %d/%d, want 0/0 and no breakdown", i, res[i].Mispredicts, res[i].Branches)
		}
	}
	if !seenObserver {
		t.Fatal("shared column has no observer jobs")
	}
}

// TestRunManySegmentedMatchesSinglePass pins segmented replay to the
// uninterrupted kernel: for a mixed column, a Buffer and a streaming
// source, and several strides — including strides that don't divide
// the trace, strides longer than a streaming window, and no stride (one
// call at the end) — the counts and per-PC breakdowns must be
// bit-identical to one unsegmented pass, and the hook must see
// strictly increasing consumed positions, each with the counts of the
// prefix replayed so far, ending at the trace length.
func TestRunManySegmentedMatchesSinglePass(t *testing.T) {
	recs := mixedRecords(cancelStride + 20000)
	want := RunMany(context.Background(), jobsFor(columns(t)[2].build(t)), trace.NewBuffer(recs), Options{PerPC: true})
	for _, stride := range []int{0, 17, 999, 40000, cancelStride + 20000, 1 << 20} {
		for _, stream := range []bool{false, true} {
			var src trace.Source = trace.NewBuffer(recs)
			if stream {
				src = opaqueSource{src}
			}
			last, calls := -1, 0
			got := RunMany(context.Background(), jobsFor(columns(t)[2].build(t)), src, Options{PerPC: true, Stride: stride,
				Checkpoint: func(consumed int, partial []Result) error {
					calls++
					if consumed <= last {
						t.Fatalf("stride %d: consumed went %d -> %d", stride, last, consumed)
					}
					if stride > 0 && consumed%stride != 0 && consumed != len(recs) {
						t.Fatalf("stride %d: checkpoint at %d, off the stride", stride, consumed)
					}
					if consumed == 40000 {
						prefix := RunMany(context.Background(), jobsFor(columns(t)[2].build(t)), trace.NewBuffer(recs[:consumed]), Options{})
						for i := range prefix {
							if partial[i].Branches != prefix[i].Branches || partial[i].Mispredicts != prefix[i].Mispredicts {
								t.Fatalf("stride %d: partial counts at %d differ from the prefix run", stride, consumed)
							}
						}
					}
					last = consumed
					return nil
				}})
			if last != len(recs) {
				t.Errorf("stride %d: final checkpoint at %d, want %d", stride, last, len(recs))
			}
			wantCalls := 1 // no stride: one call, at the end
			if stride > 0 {
				wantCalls = (len(recs) + stride - 1) / stride
			}
			if calls != wantCalls {
				t.Errorf("stride %d: %d checkpoints, want %d", stride, calls, wantCalls)
			}
			for i := range want {
				sameResult(t, want[i].Predictor, got[i], want[i])
			}
		}
	}
}

// TestRunManySegmentedCheckpointError pins the abort contract: a
// checkpoint hook error stops the replay at that window, is not
// followed by another hook call, and surfaces on every result; the
// counts are those of the replayed prefix.
func TestRunManySegmentedCheckpointError(t *testing.T) {
	recs := mixedRecords(5000)
	boom := errors.New("spill failed")
	for _, stream := range []bool{false, true} {
		var src trace.Source = trace.NewBuffer(recs)
		if stream {
			src = opaqueSource{src}
		}
		calls := 0
		got := RunManyCond(context.Background(), manyCondColumn(t), src, Options{Stride: 1000,
			Checkpoint: func(consumed int, _ []Result) error {
				calls++
				if consumed >= 2000 {
					return boom
				}
				return nil
			}})
		if calls != 2 {
			t.Errorf("checkpoint called %d times, want 2", calls)
		}
		prefix := RunManyCond(context.Background(), manyCondColumn(t), trace.NewBuffer(recs[:2000]), Options{})
		for i := range got {
			if !errors.Is(got[i].Err, boom) {
				t.Errorf("job %d: Err = %v, want checkpoint error", i, got[i].Err)
			}
			prefix[i].Err = boom
			sameResult(t, "aborted/"+got[i].Predictor, got[i], prefix[i])
		}
	}
}
