package trace

import (
	"testing"
	"unsafe"

	"repro/internal/arch"
)

func rec(pc uint64, kind arch.BranchKind, taken bool, next uint64) Record {
	return Record{PC: arch.Addr(pc), Kind: kind, Taken: taken, Next: arch.Addr(next)}
}

// TestRecordLayout pins a record at 12 bytes: 32-bit PC and Next, with
// Kind and Taken in the padding between them. Every trace, served chunk
// window and profile input is a slice of records.
func TestRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != 12 {
		t.Errorf("Sizeof(Record{}) = %d, want 12", got)
	}
}

func TestRecordString(t *testing.T) {
	r := rec(0x100, arch.Cond, true, 0x200)
	if got, want := r.String(), "0x100 cond T -> 0x200"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	r = rec(0x100, arch.Cond, false, 0x104)
	if got, want := r.String(), "0x100 cond N -> 0x104"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestRecordValidate(t *testing.T) {
	cases := []struct {
		name string
		r    Record
		ok   bool
	}{
		{"taken cond", rec(0x100, arch.Cond, true, 0x400), true},
		{"not-taken cond fallthrough", rec(0x100, arch.Cond, false, 0x104), true},
		{"not-taken cond wrong next", rec(0x100, arch.Cond, false, 0x400), false},
		{"uncond taken", rec(0x100, arch.Uncond, true, 0x400), true},
		{"uncond not-taken", rec(0x100, arch.Uncond, false, 0x104), false},
		{"indirect taken", rec(0x100, arch.Indirect, true, 0x999000), true},
		{"return not-taken", rec(0x100, arch.Return, false, 0x104), false},
	}
	for _, c := range cases {
		err := c.r.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestBufferSource(t *testing.T) {
	b := NewBuffer([]Record{
		rec(0x100, arch.Cond, true, 0x200),
		rec(0x200, arch.Uncond, true, 0x300),
	})
	var r Record
	var got []Record
	for b.Next(&r) {
		got = append(got, r)
	}
	if len(got) != 2 {
		t.Fatalf("drained %d records, want 2", len(got))
	}
	if b.Next(&r) {
		t.Error("Next after exhaustion returned true")
	}
	b.Reset()
	n := 0
	for b.Next(&r) {
		n++
	}
	if n != 2 {
		t.Errorf("after Reset drained %d records, want 2", n)
	}
}

func TestCollect(t *testing.T) {
	src := NewBuffer([]Record{rec(4, arch.Cond, false, 8), rec(8, arch.Return, true, 96)})
	var r Record
	src.Next(&r) // advance so Collect must reset
	out := Collect(src)
	if out.Len() != 2 {
		t.Fatalf("Collect got %d records, want 2", out.Len())
	}
	if out.Records[0].PC != 4 || out.Records[1].PC != 8 {
		t.Errorf("Collect order wrong: %v", out.Records)
	}
}

func TestLimit(t *testing.T) {
	var recs []Record
	for i := 0; i < 10; i++ {
		recs = append(recs, rec(uint64(4+4*i), arch.Cond, true, 0x100))
	}
	l := NewLimit(NewBuffer(recs), 4)
	var r Record
	n := 0
	for l.Next(&r) {
		n++
	}
	if n != 4 {
		t.Fatalf("Limit yielded %d records, want 4", n)
	}
	l.Reset()
	n = 0
	for l.Next(&r) {
		n++
	}
	if n != 4 {
		t.Errorf("after Reset Limit yielded %d records, want 4", n)
	}
}

func TestLimitLargerThanSource(t *testing.T) {
	l := NewLimit(NewBuffer([]Record{rec(4, arch.Cond, true, 8)}), 100)
	var r Record
	n := 0
	for l.Next(&r) {
		n++
	}
	if n != 1 {
		t.Errorf("Limit yielded %d records, want 1", n)
	}
}

func TestSummary(t *testing.T) {
	src := NewBuffer([]Record{
		rec(0x100, arch.Cond, true, 0x200),
		rec(0x100, arch.Cond, false, 0x104),
		rec(0x104, arch.Cond, true, 0x300),
		rec(0x300, arch.Indirect, true, 0x400),
		rec(0x400, arch.Return, true, 0x104),
		rec(0x500, arch.IndirectCall, true, 0x600),
		rec(0x700, arch.Uncond, true, 0x100),
	})
	s := Summarize(src)
	if got := s.DynamicCond(); got != 3 {
		t.Errorf("DynamicCond = %d, want 3", got)
	}
	if got := s.StaticCond; got != 2 {
		t.Errorf("StaticCond = %d, want 2", got)
	}
	if got := s.DynamicIndirect(); got != 2 {
		t.Errorf("DynamicIndirect = %d, want 2 (returns excluded)", got)
	}
	if got := s.StaticIndirect; got != 2 {
		t.Errorf("StaticIndirect = %d, want 2", got)
	}
	if got := s.DynamicTotal(); got != 7 {
		t.Errorf("DynamicTotal = %d, want 7", got)
	}
	if got := s.TakenRate(); got < 0.66 || got > 0.67 {
		t.Errorf("TakenRate = %v, want 2/3", got)
	}
}

func TestSummaryEmpty(t *testing.T) {
	s := Summarize(NewBuffer(nil))
	if s.DynamicTotal() != 0 || s.TakenRate() != 0 {
		t.Errorf("empty summary not zero: %v", s)
	}
}

// statedSource yields n records but states a length of stated.
type statedSource struct {
	n, stated, pos int
}

func (s *statedSource) Next(r *Record) bool {
	if s.pos >= s.n {
		return false
	}
	*r = rec(uint64(0x100+4*s.pos), arch.Uncond, true, uint64(0x200+4*s.pos))
	s.pos++
	return true
}

func (s *statedSource) Reset()   { s.pos = 0 }
func (s *statedSource) Len() int { return s.stated }

func TestCollectStatedLength(t *testing.T) {
	for _, c := range []struct{ n, stated int }{
		{10, 10}, {10, 3}, {10, 25}, {10, -1}, {0, 4}, {5, 0},
	} {
		b := Collect(&statedSource{n: c.n, stated: c.stated, pos: 2})
		if b.Len() != c.n {
			t.Fatalf("n=%d stated=%d: collected %d records", c.n, c.stated, b.Len())
		}
		for i, r := range b.Records {
			if want := rec(uint64(0x100+4*i), arch.Uncond, true, uint64(0x200+4*i)); r != want {
				t.Fatalf("n=%d stated=%d: record %d = %v, want %v", c.n, c.stated, i, r, want)
			}
		}
		if c.stated == c.n && cap(b.Records) != c.n {
			t.Errorf("n=%d: a true length gave cap %d", c.n, cap(b.Records))
		}
	}
}

func TestLimitLen(t *testing.T) {
	for _, c := range []struct{ n, stated, limit, want int }{
		{10, 10, 4, 4}, {10, 10, 40, 10}, {10, -1, 4, -1},
	} {
		l := NewLimit(&statedSource{n: c.n, stated: c.stated}, c.limit)
		if got := l.Len(); got != c.want {
			t.Errorf("Limit(%d) over %d stated: Len %d, want %d", c.limit, c.stated, got, c.want)
		}
		if b := Collect(l); b.Len() != min(c.n, c.limit) {
			t.Errorf("Limit(%d) over %d: collected %d", c.limit, c.n, b.Len())
		}
	}
	if got := NewLimit(&Buffer{}, 3).Len(); got != 0 {
		t.Errorf("Limit over an empty buffer: Len %d, want 0", got)
	}
}
