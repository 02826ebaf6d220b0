// Package trace defines the branch-trace interface between workloads and
// predictors.
//
// The paper instruments Alpha binaries with ATOM (§5.1) so that every
// executed control-transfer instruction reports its address, kind, direction,
// and the address control actually transferred to. A trace here is exactly
// that stream. Everything downstream — the predictors, the profiling
// pipeline, the experiment harness — consumes traces through the Source
// interface, so workloads can be generated on the fly, replayed from memory,
// or streamed from a file interchangeably.
package trace

import (
	"fmt"

	"repro/internal/arch"
)

// Record describes one executed branch.
type Record struct {
	// PC is the address of the branch instruction itself.
	PC arch.Addr
	// Kind classifies the branch.
	Kind arch.BranchKind
	// Taken reports the resolved direction. It is true for every
	// non-conditional branch (they always transfer control).
	Taken bool
	// Next is the address control transferred to: the branch target when
	// taken, or PC+4 when a conditional branch falls through. For the
	// path-history predictors Next is the path element (§3.2): the
	// address of the basic block that executed after this branch.
	Next arch.Addr
}

// String renders the record compactly for debugging and trace dumps.
func (r Record) String() string {
	dir := "T"
	if !r.Taken {
		dir = "N"
	}
	return fmt.Sprintf("%v %s %s -> %v", r.PC, r.Kind, dir, r.Next)
}

// Validate reports an error if the record is internally inconsistent: a
// non-conditional branch marked not-taken, or a not-taken conditional whose
// Next is not the fall-through address.
func (r Record) Validate() error {
	if r.Kind != arch.Cond && !r.Taken {
		return fmt.Errorf("trace: %v branch at %v marked not-taken", r.Kind, r.PC)
	}
	if r.Kind == arch.Cond && !r.Taken && r.Next != r.PC.FallThrough() {
		return fmt.Errorf("trace: not-taken branch at %v has Next %v, want fall-through %v",
			r.PC, r.Next, r.PC.FallThrough())
	}
	return nil
}

// Source is a replayable stream of branch records. Next returns false when
// the stream is exhausted. Reset rewinds the stream to the beginning so it
// can be replayed; the profiling pipeline (§3.5) replays the profile input
// many times (once per candidate hash function in step 1 and once per
// iteration in step 2).
type Source interface {
	Next(*Record) bool
	Reset()
}

// Buffer is an in-memory Source. The zero value is an empty, ready-to-use
// buffer.
type Buffer struct {
	Records []Record
	pos     int
}

// NewBuffer returns a Buffer over the given records.
func NewBuffer(records []Record) *Buffer { return &Buffer{Records: records} }

// Append adds a record to the end of the buffer.
func (b *Buffer) Append(r Record) { b.Records = append(b.Records, r) }

// Next implements Source.
func (b *Buffer) Next(r *Record) bool {
	if b.pos >= len(b.Records) {
		return false
	}
	*r = b.Records[b.pos]
	b.pos++
	return true
}

// Reset implements Source.
func (b *Buffer) Reset() { b.pos = 0 }

// Len returns the number of records in the buffer.
func (b *Buffer) Len() int { return len(b.Records) }

// Consume advances the read position by n records, as if Next had been
// called n times. Batched replay loops that iterate Records directly use
// it to keep the stream position consistent with what they consumed, so a
// caller that mixes direct iteration with Next sees the same exhaustion
// behaviour either way.
func (b *Buffer) Consume(n int) {
	b.pos += n
	if b.pos > len(b.Records) {
		b.pos = len(b.Records)
	}
	if b.pos < 0 {
		b.pos = 0
	}
}

// Sized is a Source that states how many records one replay yields, or a
// negative count when it cannot tell without replaying.
type Sized interface {
	Source
	Len() int
}

// Collect drains src into a new Buffer, resetting src first. It is a
// convenience for tests and for materialising generated workloads. A
// Sized source's records land in one allocation of the stated length;
// a wrong statement costs only that, never a record.
func Collect(src Source) *Buffer {
	src.Reset()
	b := &Buffer{}
	if s, ok := src.(Sized); ok && s.Len() > 0 {
		b.Records = make([]Record, 0, s.Len())
	}
	var r Record
	for src.Next(&r) {
		b.Append(r)
	}
	return b
}

// Limit wraps a Source, truncating it to at most n records per replay.
type Limit struct {
	Src Source
	N   int
	cnt int
}

// NewLimit returns a Source yielding at most n records of src per replay.
func NewLimit(src Source, n int) *Limit { return &Limit{Src: src, N: n} }

// Next implements Source.
func (l *Limit) Next(r *Record) bool {
	if l.cnt >= l.N {
		return false
	}
	if !l.Src.Next(r) {
		return false
	}
	l.cnt++
	return true
}

// Reset implements Source.
func (l *Limit) Reset() {
	l.Src.Reset()
	l.cnt = 0
}

// Len implements Sized: N, or fewer when Src states fewer; negative
// when Src states no length.
func (l *Limit) Len() int {
	s, ok := l.Src.(Sized)
	if !ok || s.Len() < 0 {
		return -1
	}
	return min(l.N, s.Len())
}

// Skip wraps a Source, discarding the first n records of each replay.
// It is Limit's counterpart: together they cut a window out of a trace,
// and a predictor state saved after n records continues over
// NewSkip(src, n).
type Skip struct {
	Src     Source
	N       int
	skipped bool
}

// NewSkip returns a Source yielding src's records after the first n.
func NewSkip(src Source, n int) *Skip { return &Skip{Src: src, N: n} }

// Next implements Source, discarding the prefix lazily on the first
// call after a Reset.
func (s *Skip) Next(r *Record) bool {
	if !s.skipped {
		s.skipped = true
		for i := 0; i < s.N; i++ {
			if !s.Src.Next(r) {
				return false
			}
		}
	}
	return s.Src.Next(r)
}

// Reset implements Source.
func (s *Skip) Reset() {
	s.Src.Reset()
	s.skipped = false
}
