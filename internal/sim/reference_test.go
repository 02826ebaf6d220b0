package sim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/bpred"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// reference is the independent per-record loop the kernel is checked
// against: plain Next, Predict and Update on one predictor — no windows,
// no sharding, no fused StepCond, no shared accounting code. It checks
// ctx before every record whose index is a positive multiple of
// cancelStride, the kernel's documented stop point, and surfaces a
// failing source's Err the way the kernel must.
func reference(ctx context.Context, p bpred.Predictor, src trace.Source, perPC bool) Result {
	res := Result{Predictor: p.Name()}
	if perPC {
		res.PerPC = make(map[arch.Addr]*PCStat)
	}
	book := func(pc arch.Addr, correct bool) {
		res.Branches++
		if !correct {
			res.Mispredicts++
		}
		if res.PerPC != nil {
			st := res.PerPC[pc]
			if st == nil {
				st = &PCStat{}
				res.PerPC[pc] = st
			}
			st.Branches++
			if !correct {
				st.Mispredicts++
			}
		}
	}
	src.Reset()
	var r trace.Record
	for i := 0; ; i++ {
		if i > 0 && i%cancelStride == 0 && ctx.Err() != nil {
			res.Err = ctx.Err()
			break
		}
		if !src.Next(&r) {
			break
		}
		switch q := p.(type) {
		case bpred.CondPredictor:
			if r.Kind == arch.Cond {
				book(r.PC, q.Predict(r.PC) == r.Taken)
			}
		case bpred.IndirectPredictor:
			if r.Kind.IndirectTarget() {
				book(r.PC, q.Predict(r.PC) == r.Next)
			}
		}
		p.Update(r)
	}
	if ec, ok := src.(interface{ Err() error }); ok && res.Err == nil {
		res.Err = ec.Err()
	}
	return res
}

// opaqueSource hides a Source's concrete type so the kernel cannot take
// the *trace.Buffer path — it is a streaming source on demand, and it
// advances the wrapped buffer's read position exactly as Next does.
type opaqueSource struct{ src trace.Source }

func (o opaqueSource) Next(r *trace.Record) bool { return o.src.Next(r) }
func (o opaqueSource) Reset()                    { o.src.Reset() }

// recFailingSource replays a fixed prefix then reports a decode error,
// the shape trace.Reader produces for a truncated file.
type recFailingSource struct {
	recs []trace.Record
	pos  int
	err  error
}

func (f *recFailingSource) Next(r *trace.Record) bool {
	if f.pos >= len(f.recs) {
		return false
	}
	*r = f.recs[f.pos]
	f.pos++
	return true
}
func (f *recFailingSource) Reset()     { f.pos = 0 }
func (f *recFailingSource) Err() error { return f.err }

// mixedRecords builds a deterministic pseudo-random trace mixing every
// branch kind.
func mixedRecords(n int) []trace.Record {
	rng := xrand.New(42)
	recs := make([]trace.Record, 0, n)
	pcs := []arch.Addr{0x1004, 0x2008, 0x300c, 0x4010, 0x5014, 0x6018}
	for i := 0; i < n; i++ {
		pc := pcs[rng.Uint64()%uint64(len(pcs))]
		switch rng.Uint64() % 4 {
		case 0:
			taken := rng.Bool(0.6)
			next := pc.FallThrough()
			if taken {
				next = arch.Addr(0x9000 + (rng.Uint64()&0x3)*16)
			}
			recs = append(recs, trace.Record{PC: pc, Kind: arch.Cond, Taken: taken, Next: next})
		case 1:
			recs = append(recs, trace.Record{PC: pc, Kind: arch.Indirect, Taken: true,
				Next: arch.Addr(0xa000 + (rng.Uint64()&0x7)*16)})
		case 2:
			recs = append(recs, trace.Record{PC: pc, Kind: arch.Call, Taken: true, Next: 0xb000})
		default:
			recs = append(recs, trace.Record{PC: pc, Kind: arch.Return, Taken: true, Next: 0xc000})
		}
	}
	return recs
}

// sameResult compares the counts, per-PC breakdowns and error of two
// results.
func sameResult(t *testing.T, name string, got, want Result) {
	t.Helper()
	if got.Branches != want.Branches {
		t.Errorf("%s: Branches %d, want %d", name, got.Branches, want.Branches)
	}
	if got.Mispredicts != want.Mispredicts {
		t.Errorf("%s: Mispredicts %d, want %d", name, got.Mispredicts, want.Mispredicts)
	}
	if !reflect.DeepEqual(got.PerPC, want.PerPC) {
		t.Errorf("%s: PerPC maps differ", name)
	}
	if (got.Err == nil) != (want.Err == nil) || (got.Err != nil && got.Err.Error() != want.Err.Error()) {
		t.Errorf("%s: Err %v, want %v", name, got.Err, want.Err)
	}
}
