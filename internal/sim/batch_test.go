package sim

import (
	"context"
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/trace"
)

// The kernel reads a *trace.Buffer as one window and any other source
// into a reused window of at most cancelStride records. These tests pin
// the two source shapes together on traces longer than one streaming
// window: identical counts, an identical stop record under
// cancellation, an identical Err on truncation, and an identical read
// position afterwards.

// bufferAndStream returns the same records as a Buffer and as a
// streaming source over a second Buffer, so the stream's read position
// can be inspected after a run.
func bufferAndStream(recs []trace.Record) (buf, under *trace.Buffer, stream trace.Source) {
	under = trace.NewBuffer(recs)
	return trace.NewBuffer(recs), under, opaqueSource{under}
}

// position returns how many records of buf have been read.
func position(buf *trace.Buffer) int {
	n := 0
	var r trace.Record
	for buf.Next(&r) {
		n++
	}
	return buf.Len() - n
}

// TestBatchedRunMatchesGeneric: a Buffer and a streaming source over
// the same records give identical Result counts, per-PC breakdowns
// included, for K=1 and K>1 columns.
func TestBatchedRunMatchesGeneric(t *testing.T) {
	recs := mixedRecords(2*cancelStride + 5000)
	for _, perPC := range []bool{false, true} {
		opts := Options{PerPC: perPC}
		buf, _, stream := bufferAndStream(recs)
		for _, col := range columns(t) {
			batched := RunMany(context.Background(), jobsFor(col.build(t)), buf, opts)
			generic := RunMany(context.Background(), jobsFor(col.build(t)), stream, opts)
			for i := range batched {
				if batched[i].Err != nil {
					t.Fatalf("clean run errored: %v", batched[i].Err)
				}
				sameResult(t, col.name+"/"+batched[i].Predictor, generic[i], batched[i])
			}
		}
		p := manyCondColumn(t)[2]
		q := manyCondColumn(t)[2]
		sameResult(t, "k1", RunCond(context.Background(), p, stream, opts), RunCond(context.Background(), q, buf, opts))
	}
}

// cancelAt is a conditional predictor that always predicts not taken
// and cancels the run's context once its Update has seen n records.
type cancelAt struct {
	n, seen int
	cancel  context.CancelFunc
}

func (c *cancelAt) Name() string           { return "cancel-at" }
func (c *cancelAt) SizeBytes() int         { return 0 }
func (c *cancelAt) Predict(arch.Addr) bool { return false }
func (c *cancelAt) Update(trace.Record) {
	if c.seen++; c.seen == c.n {
		c.cancel()
	}
}

// TestBatchedRunMatchesGenericOnCancellation: with an already-canceled
// context both sources stop before record cancelStride, having scored
// exactly the records before it and read exactly up to it; a context
// canceled mid-run (here by a column entry at record 3000) stops at the
// next cancelStride boundary, not where it was canceled.
func TestBatchedRunMatchesGenericOnCancellation(t *testing.T) {
	recs := mixedRecords(2*cancelStride + 500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	buf, under, stream := bufferAndStream(recs)
	batched := RunManyCond(ctx, manyCondColumn(t), buf, Options{PerPC: true})
	generic := RunManyCond(ctx, manyCondColumn(t), stream, Options{PerPC: true})
	prefix := RunManyCond(context.Background(), manyCondColumn(t), trace.NewBuffer(recs[:cancelStride]), Options{PerPC: true})
	for i := range batched {
		if !errors.Is(batched[i].Err, context.Canceled) || !errors.Is(generic[i].Err, context.Canceled) {
			t.Fatalf("Err = %v (buffer) / %v (stream), want context.Canceled", batched[i].Err, generic[i].Err)
		}
		sameResult(t, "canceled", generic[i], batched[i])
		prefix[i].Err = batched[i].Err
		sameResult(t, "canceled-vs-prefix", batched[i], prefix[i])
	}
	if b, s := position(buf), position(under); b != cancelStride || s != cancelStride {
		t.Errorf("canceled runs stopped at record %d (buffer) / %d (stream), want %d", b, s, cancelStride)
	}

	// One worker: the canceling entry must step every record before the
	// other entries reach the boundary check.
	withWorkers(t, 1)
	for _, stream := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		var src trace.Source = trace.NewBuffer(recs)
		if stream {
			src = opaqueSource{src}
		}
		var jobs []Job
		for _, p := range manyCondColumn(t) {
			jobs = append(jobs, CondJob(p))
		}
		jobs = append(jobs, CondJob(&cancelAt{n: 3000, cancel: cancel}))
		res := RunMany(ctx, jobs, src, Options{PerPC: true})
		cancel()
		for i := range prefix {
			if !errors.Is(res[i].Err, context.Canceled) {
				t.Fatalf("stream=%v: Err = %v, want context.Canceled", stream, res[i].Err)
			}
			sameResult(t, "canceled-mid-run", res[i], prefix[i])
		}
	}
}

// TestBatchedRunMatchesTruncatedGeneric: a source that fails mid-stream
// replays exactly the records before the failure, so its counts equal a
// Buffer run over that prefix, and its Result carries the source error.
func TestBatchedRunMatchesTruncatedGeneric(t *testing.T) {
	recs := mixedRecords(cancelStride + 3000)
	cut := cancelStride + 1700
	want := errors.New("record 67236: unexpected EOF")
	generic := RunManyCond(context.Background(), manyCondColumn(t), &recFailingSource{recs: recs[:cut], err: want}, Options{PerPC: true})
	batched := RunManyCond(context.Background(), manyCondColumn(t), trace.NewBuffer(recs[:cut]), Options{PerPC: true})
	for i := range generic {
		if !errors.Is(generic[i].Err, want) {
			t.Fatalf("stream Err = %v, want the source error", generic[i].Err)
		}
		if batched[i].Err != nil {
			t.Fatalf("buffer prefix run errored: %v", batched[i].Err)
		}
		batched[i].Err = want
		sameResult(t, "truncated", generic[i], batched[i])
	}
	p := manyCondColumn(t)[0]
	if got := reference(context.Background(), p, &recFailingSource{recs: recs[:cut], err: want}, true); !errors.Is(got.Err, want) {
		t.Errorf("reference Err = %v, want the source error", got.Err)
	}
}

// TestBatchedRunConsumesBuffer: a finished run leaves a Buffer and a
// streaming source equally exhausted, and both rewind on Reset.
func TestBatchedRunConsumesBuffer(t *testing.T) {
	recs := mixedRecords(cancelStride + 100)
	buf, under, stream := bufferAndStream(recs)
	RunManyCond(context.Background(), manyCondColumn(t), buf, Options{})
	RunManyCond(context.Background(), manyCondColumn(t), stream, Options{})
	if b, s := position(buf), position(under); b != len(recs) || s != len(recs) {
		t.Errorf("finished runs left the read position at %d (buffer) / %d (stream), want %d", b, s, len(recs))
	}
	var r trace.Record
	buf.Reset()
	stream.Reset()
	if !buf.Next(&r) || !under.Next(&r) {
		t.Error("Reset after a run did not rewind the source")
	}
}
