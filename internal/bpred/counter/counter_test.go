package counter

import (
	"testing"
	"testing/quick"
)

func TestArraySaturation(t *testing.T) {
	a := NewArray(4, 2, 0)
	for i := 0; i < 10; i++ {
		a.Inc(0)
	}
	if a.Value(0) != 3 {
		t.Errorf("saturated up value = %d, want 3", a.Value(0))
	}
	for i := 0; i < 10; i++ {
		a.Dec(0)
	}
	if a.Value(0) != 0 {
		t.Errorf("saturated down value = %d, want 0", a.Value(0))
	}
}

func TestArrayTakenThreshold(t *testing.T) {
	a := NewArray(1, 2, 0)
	// 0, 1 -> not taken; 2, 3 -> taken (paper §3.1: >= 2).
	for v, want := range map[uint8]bool{0: false, 1: false, 2: true, 3: true} {
		a.Set(0, v)
		if got := a.Taken(0); got != want {
			t.Errorf("Taken at value %d = %v, want %v", v, got, want)
		}
	}
}

func TestArrayTrain(t *testing.T) {
	a := NewArray(1, 2, 1)
	a.Train(0, true)
	if a.Value(0) != 2 {
		t.Errorf("after train-taken value = %d, want 2", a.Value(0))
	}
	a.Train(0, false)
	a.Train(0, false)
	if a.Value(0) != 0 {
		t.Errorf("after two train-not-taken value = %d, want 0", a.Value(0))
	}
}

func TestArrayInitAndSize(t *testing.T) {
	a := NewArray(1024, 2, 1)
	for i := 0; i < a.Len(); i++ {
		if a.Value(i) != 1 {
			t.Fatalf("counter %d init = %d", i, a.Value(i))
		}
	}
	if a.SizeBits() != 2048 {
		t.Errorf("SizeBits = %d, want 2048", a.SizeBits())
	}
	if a.SizeBytes() != 256 {
		t.Errorf("SizeBytes = %d, want 256", a.SizeBytes())
	}
	if a.Bits() != 2 {
		t.Errorf("Bits = %d", a.Bits())
	}
}

// TestArrayResetMatchesNaiveFill pins the doubling-copy Reset (and so
// NewArray) to a byte-by-byte fill at lengths around the doubling steps,
// starting from a dirtied table so stale values would show.
func TestArrayResetMatchesNaiveFill(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 4096, 4097} {
		for init := uint8(0); init <= 3; init++ {
			a := NewArray(n, 2, 3-init)
			for i := 0; i < n; i += 3 {
				a.Set(i, uint8(i)%4)
			}
			a.Reset(init)
			for i := 0; i < n; i++ {
				if a.Value(i) != init {
					t.Fatalf("n=%d init=%d: counter %d = %d after Reset", n, init, i, a.Value(i))
				}
			}
			fresh := NewArray(n, 2, init)
			for i := 0; i < n; i++ {
				if fresh.Value(i) != init {
					t.Fatalf("n=%d init=%d: NewArray counter %d = %d", n, init, i, fresh.Value(i))
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Reset above the counter maximum did not panic")
		}
	}()
	NewArray(4, 2, 0).Reset(4)
}

func TestArraySetSaturates(t *testing.T) {
	a := NewArray(1, 3, 0)
	a.Set(0, 200)
	if a.Value(0) != 7 {
		t.Errorf("Set clamped to %d, want 7", a.Value(0))
	}
}

func TestArrayPanics(t *testing.T) {
	cases := []func(){
		func() { NewArray(0, 2, 0) },
		func() { NewArray(4, 0, 0) },
		func() { NewArray(4, 9, 0) },
		func() { NewArray(4, 2, 4) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestShiftReg(t *testing.T) {
	s := NewShiftReg(4)
	s.Push(true)
	s.Push(false)
	s.Push(true)
	if s.Value() != 0b101 {
		t.Errorf("Value = %#b, want 0b101", s.Value())
	}
	s.Push(true)
	s.Push(true)
	// Oldest bit (the first true) has been shifted out of the 4-bit window.
	if s.Value() != 0b0111 {
		t.Errorf("Value = %#b, want 0b0111", s.Value())
	}
	if s.Width() != 4 || s.SizeBits() != 4 {
		t.Errorf("Width/SizeBits = %d/%d", s.Width(), s.SizeBits())
	}
}

func TestShiftRegFullWidth(t *testing.T) {
	s := NewShiftReg(64)
	for i := 0; i < 200; i++ {
		s.Push(i%2 == 0)
	}
	// Must not panic or lose the mask; value fits in 64 bits trivially.
	_ = s.Value()
}

func TestShiftRegPushBitsEqualsPushes(t *testing.T) {
	f := func(v uint8, init uint16) bool {
		a := NewShiftReg(12)
		b := NewShiftReg(12)
		a.PushBits(uint64(init), 12)
		b.PushBits(uint64(init), 12)
		a.PushBits(uint64(v), 8)
		for i := 7; i >= 0; i-- {
			b.Push(v&(1<<uint(i)) != 0)
		}
		return a.Value() == b.Value()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShiftRegPushBitsClamped(t *testing.T) {
	s := NewShiftReg(8)
	s.PushBits(0xffff, 16) // q clamped to width
	if s.Value() != 0xff {
		t.Errorf("Value = %#x, want 0xff", s.Value())
	}
}

func TestShiftRegPanics(t *testing.T) {
	for _, n := range []uint{0, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewShiftReg(%d) did not panic", n)
				}
			}()
			NewShiftReg(n)
		}()
	}
}

// TestArrayStepMatchesTakenTrain checks the branch-free Step against
// Taken followed by Train for every width, value and outcome.
func TestArrayStepMatchesTakenTrain(t *testing.T) {
	for bits := 1; bits <= 8; bits++ {
		max := 1<<bits - 1
		for v := 0; v <= max; v++ {
			for _, taken := range []bool{false, true} {
				got, want := NewArray(1, bits, uint8(v)), NewArray(1, bits, uint8(v))
				correct := got.Step(0, taken)
				wantCorrect := want.Taken(0) == taken
				want.Train(0, taken)
				if correct != wantCorrect || got.Value(0) != want.Value(0) {
					t.Errorf("bits %d value %d taken %v: Step = (%v, %d), Taken+Train = (%v, %d)",
						bits, v, taken, correct, got.Value(0), wantCorrect, want.Value(0))
				}
			}
		}
	}
}

// TestReleasedArrayPanics: a released array has no table, so using it
// panics instead of reading counters that another array now owns.
func TestReleasedArrayPanics(t *testing.T) {
	for name, use := range map[string]func(a *Array){
		"Taken": func(a *Array) { a.Taken(0) },
		"Step":  func(a *Array) { a.Step(0, true) },
		"Train": func(a *Array) { a.Train(0, true) },
		"Value": func(a *Array) { a.Value(0) },
		"Reset": func(a *Array) { a.Reset(1) },
	} {
		a := NewArray(16, 2, 1)
		a.Release()
		a.Release() // twice is harmless
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released array did not panic", name)
				}
			}()
			use(a)
		}()
	}
}

// TestNewArrayOverwritesReusedTable: an array built on a released table
// starts at its init value in every counter.
func TestNewArrayOverwritesReusedTable(t *testing.T) {
	for try := 0; try < 16; try++ {
		a := NewArray(64, 2, 3)
		a.Release()
		b := NewArray(64, 2, 0)
		for i := 0; i < b.Len(); i++ {
			if b.Value(i) != 0 {
				t.Fatalf("counter %d = %d, want 0", i, b.Value(i))
			}
		}
		b.Release()
	}
}
