package cfg

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// loopProgram builds: entry cond (Loop trip) -> body jump -> entry;
// fall-through -> exit jump -> entry. A tiny two-branch program.
func loopProgram(t *testing.T, trip int) *Program {
	t.Helper()
	b := NewBuilder("loop", 0x1000, nil)
	head := b.Cond(Loop{Trip: trip})
	body := b.Jump()
	exit := b.Jump()
	head.TakenTo = body.ID
	head.FallTo = exit.ID
	body.TakenTo = head.ID
	exit.TakenTo = head.ID
	p, err := b.Finish(head)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return p
}

func TestBuilderAddresses(t *testing.T) {
	b := NewBuilder("p", 0x1000, nil)
	b1 := b.Jump()
	b2 := b.Jump()
	if b1.Addr != 0x1000 {
		t.Errorf("first block at %v, want 0x1000", b1.Addr)
	}
	if b1.NumInstrs != 4 {
		t.Errorf("default NumInstrs = %d, want 4", b1.NumInstrs)
	}
	if b1.BranchPC() != 0x100c {
		t.Errorf("BranchPC = %v, want 0x100c", b1.BranchPC())
	}
	if b2.Addr <= b1.BranchPC().FallThrough() {
		t.Errorf("blocks too close: b1 branch %v, b2 start %v — fall-through would alias",
			b1.BranchPC(), b2.Addr)
	}
}

func TestBuilderRandomSizes(t *testing.T) {
	b := NewBuilder("p", 0x1000, xrand.New(1))
	sizes := map[int]bool{}
	var prevEnd arch.Addr
	for i := 0; i < 50; i++ {
		blk := b.Jump()
		sizes[blk.NumInstrs] = true
		if blk.Addr < prevEnd {
			t.Fatalf("block %d overlaps previous", i)
		}
		prevEnd = blk.Addr + arch.Addr(blk.NumInstrs*arch.InstrBytes)
	}
	if len(sizes) < 3 {
		t.Errorf("sized blocks not varied: %v", sizes)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	mk := func() (*Builder, *Block) {
		b := NewBuilder("bad", 0x1000, nil)
		head := b.Cond(AlwaysTaken{})
		return b, head
	}

	b, head := mk()
	head.TakenTo = 99
	head.FallTo = head.ID
	if _, err := b.Finish(head); err == nil {
		t.Error("invalid taken successor accepted")
	}

	b, head = mk()
	head.TakenTo = head.ID
	head.FallTo = NoBlock
	if _, err := b.Finish(head); err == nil {
		t.Error("missing fall-through accepted")
	}

	b = NewBuilder("bad", 0x1000, nil)
	ind := b.NewBlock(arch.Indirect)
	ind.Ind = UniformTargets{}
	if _, err := b.Finish(ind); err == nil {
		t.Error("indirect with no targets accepted")
	}

	b = NewBuilder("bad", 0x1000, nil)
	ind = b.IndirectBlock(nil)
	ind.Targets = []BlockID{ind.ID}
	ind.Ind = nil
	if _, err := b.Finish(ind); err == nil {
		t.Error("indirect with no behaviour accepted")
	}

	b = NewBuilder("bad", 0x1000, nil)
	c := b.NewBlock(arch.Cond)
	c.TakenTo, c.FallTo = c.ID, c.ID
	if _, err := b.Finish(c); err == nil {
		t.Error("conditional with no behaviour accepted")
	}
}

func TestExecutorLoopTrace(t *testing.T) {
	p := loopProgram(t, 4)
	src := NewSource(p, 1, 100)
	var r trace.Record
	outcomes := ""
	for src.Next(&r) {
		if err := r.Validate(); err != nil {
			t.Fatalf("invalid record: %v", err)
		}
		if r.Kind == arch.Cond {
			if r.Taken {
				outcomes += "T"
			} else {
				outcomes += "N"
			}
		}
	}
	// Loop{4}: pattern TTTN repeating.
	want := "TTTN"
	for i := 0; i < len(outcomes); i++ {
		if outcomes[i] != want[i%4] {
			t.Fatalf("outcome %d = %c, want %c (full: %s)", i, outcomes[i], want[i%4], outcomes[:20])
		}
	}
}

func TestExecutorDeterminismAndReset(t *testing.T) {
	b := NewBuilder("rand", 0x1000, nil)
	head := b.Cond(Bias{P: 0.5})
	l := b.Jump()
	r := b.Jump()
	head.TakenTo, head.FallTo = l.ID, r.ID
	l.TakenTo = head.ID
	r.TakenTo = head.ID
	p := b.MustFinish(head)

	s1 := NewSource(p, 42, 500)
	s2 := NewSource(p, 42, 500)
	t1 := trace.Collect(s1)
	t2 := trace.Collect(s2)
	if t1.Len() != 500 || t2.Len() != 500 {
		t.Fatalf("lengths %d, %d", t1.Len(), t2.Len())
	}
	for i := range t1.Records {
		if t1.Records[i] != t2.Records[i] {
			t.Fatalf("same seed diverges at %d", i)
		}
	}
	// Reset replays identically.
	t1b := trace.Collect(s1)
	for i := range t1.Records {
		if t1.Records[i] != t1b.Records[i] {
			t.Fatalf("reset replay diverges at %d", i)
		}
	}
	// Different seeds differ.
	s3 := NewSource(p, 43, 500)
	t3 := trace.Collect(s3)
	same := 0
	for i := range t1.Records {
		if t1.Records[i] == t3.Records[i] {
			same++
		}
	}
	if same == 500 {
		t.Error("different seeds produced identical traces")
	}
}

func TestCallReturn(t *testing.T) {
	b := NewBuilder("call", 0x1000, nil)
	caller := b.CallBlock()
	callee := b.ReturnBlock()
	cont := b.Jump()
	caller.TakenTo = callee.ID
	caller.FallTo = cont.ID
	cont.TakenTo = caller.ID
	p := b.MustFinish(caller)

	src := NewSource(p, 1, 9)
	var r trace.Record
	var kinds []arch.BranchKind
	var nexts []arch.Addr
	for src.Next(&r) {
		kinds = append(kinds, r.Kind)
		nexts = append(nexts, r.Next)
	}
	wantKinds := []arch.BranchKind{arch.Call, arch.Return, arch.Uncond,
		arch.Call, arch.Return, arch.Uncond, arch.Call, arch.Return, arch.Uncond}
	for i := range wantKinds {
		if kinds[i] != wantKinds[i] {
			t.Fatalf("step %d kind = %v, want %v (all: %v)", i, kinds[i], wantKinds[i], kinds)
		}
	}
	// Return must report the architectural return address (the
	// instruction after the call), which is what a return address stack
	// predicts.
	if want := p.Blocks[caller.ID].BranchPC().FallThrough(); nexts[1] != want {
		t.Errorf("return went to %v, want call fall-through %v", nexts[1], want)
	}
}

func TestReturnWithEmptyStackWraps(t *testing.T) {
	b := NewBuilder("wrap", 0x1000, nil)
	ret := b.ReturnBlock()
	p := b.MustFinish(ret)
	src := NewSource(p, 1, 10)
	var r trace.Record
	for src.Next(&r) {
		if r.Next != p.Blocks[ret.ID].Addr {
			t.Fatalf("wrap went to %v, want entry %v", r.Next, p.Blocks[ret.ID].Addr)
		}
	}
	if src.exec.Wraps() != 10 {
		t.Errorf("Wraps = %d, want 10", src.exec.Wraps())
	}
}

func TestIndirectDispatch(t *testing.T) {
	b := NewBuilder("dispatch", 0x1000, nil)
	sw := b.IndirectBlock(SeqTargets{})
	h1 := b.Jump()
	h2 := b.Jump()
	h3 := b.Jump()
	sw.Targets = []BlockID{h1.ID, h2.ID, h3.ID}
	for _, h := range []*Block{h1, h2, h3} {
		h.TakenTo = sw.ID
	}
	p := b.MustFinish(sw)

	src := NewSource(p, 1, 12)
	var r trace.Record
	var seq []arch.Addr
	for src.Next(&r) {
		if r.Kind == arch.Indirect {
			seq = append(seq, r.Next)
		}
	}
	want := []arch.Addr{p.Blocks[h1.ID].Addr, p.Blocks[h2.ID].Addr, p.Blocks[h3.ID].Addr}
	for i, a := range seq {
		if a != want[i%3] {
			t.Fatalf("dispatch %d went to %v, want %v", i, a, want[i%3])
		}
	}
}

func TestProgramBlockOutOfRange(t *testing.T) {
	p := loopProgram(t, 2)
	if p.Block(-1) != nil || p.Block(BlockID(p.NumBlocks())) != nil {
		t.Error("out-of-range Block lookup returned non-nil")
	}
	if p.Block(0) == nil {
		t.Error("in-range Block lookup returned nil")
	}
}

// dispatchProgram is an indirect dispatch over n random conditionals,
// each of which jumps back to the dispatch: n+1 blocks with behaviours,
// spread over several builder slabs.
func dispatchProgram(n int) *Program {
	b := NewBuilder("slabs", 0x1000, xrand.New(7))
	sw := b.IndirectBlock(UniformTargets{})
	for i := 0; i < n; i++ {
		c := b.Cond(Bias{P: 0.3})
		c.TakenTo, c.FallTo = sw.ID, sw.ID
		sw.Targets = append(sw.Targets, c.ID)
	}
	return b.MustFinish(sw)
}

func TestSourceMatchesExecutor(t *testing.T) {
	p := dispatchProgram(300)
	for i, blk := range p.Blocks {
		if blk.ID != BlockID(i) || p.Block(blk.ID) != blk {
			t.Fatalf("block %d: id %d", i, blk.ID)
		}
	}
	const n = 4000
	e := NewExecutor(p, 9)
	want := make([]trace.Record, n)
	for i := range want {
		e.Step(&want[i])
	}
	src := NewSource(p, 9, n)
	for replay := 0; replay < 2; replay++ {
		got := trace.Collect(src)
		if got.Len() != n || cap(got.Records) != n {
			t.Fatalf("replay %d: len %d cap %d, want %d", replay, got.Len(), cap(got.Records), n)
		}
		for i := range want {
			if got.Records[i] != want[i] {
				t.Fatalf("replay %d: record %d = %v, executor gave %v", replay, i, got.Records[i], want[i])
			}
		}
	}
	// A source read partway and reset restarts from the first record.
	src.Reset()
	var r trace.Record
	for i := 0; i < 10; i++ {
		src.Next(&r)
	}
	src.Reset()
	if !src.Next(&r) || r != want[0] {
		t.Errorf("after a mid-stream Reset: first record %v, want %v", r, want[0])
	}
}

func TestCollectLimitExactSize(t *testing.T) {
	p := dispatchProgram(20)
	for _, limit := range []int{0, 7, 500, 2000} {
		got := trace.Collect(trace.NewLimit(NewSource(p, 3, 500), limit))
		if want := min(limit, 500); got.Len() != want || cap(got.Records) != want {
			t.Errorf("Limit(%d): len %d cap %d, want %d", limit, got.Len(), cap(got.Records), want)
		}
	}
}
