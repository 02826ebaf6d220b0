package trace

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/xrand"
)

// seekBuffer is a minimal io.ReadSeeker over a byte slice for tests.
type seekBuffer struct {
	data []byte
	pos  int64
}

func (s *seekBuffer) Read(p []byte) (int, error) {
	if s.pos >= int64(len(s.data)) {
		return 0, io.EOF
	}
	n := copy(p, s.data[s.pos:])
	s.pos += int64(n)
	return n, nil
}

func (s *seekBuffer) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case 0:
		s.pos = offset
	case 1:
		s.pos += offset
	case 2:
		s.pos = int64(len(s.data)) + offset
	}
	return s.pos, nil
}

func randomRecords(seed uint64, n int) []Record {
	rng := xrand.New(seed)
	recs := make([]Record, n)
	pc := arch.Addr(0x10000)
	for i := range recs {
		kind := arch.BranchKind(rng.Intn(arch.NumKinds))
		taken := true
		next := arch.Addr(uint64(rng.Intn(1<<20)) * arch.InstrBytes)
		if kind == arch.Cond && rng.Bool(0.4) {
			taken = false
			next = pc.FallThrough()
		}
		recs[i] = Record{PC: pc, Kind: kind, Taken: taken, Next: next}
		// Wander the PC in small sign-alternating steps like real code.
		pc = arch.Addr(int64(pc) + int64(rng.IntnRange(-64, 64))*arch.InstrBytes)
		if int64(pc) < arch.InstrBytes {
			pc = 0x10000
		}
	}
	return recs
}

func encodeAll(t *testing.T, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, len(recs))
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func TestFileRoundTrip(t *testing.T) {
	recs := randomRecords(1, 5000)
	data := encodeAll(t, recs)
	r, err := NewReader(&seekBuffer{data: data})
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if r.Count() != len(recs) {
		t.Fatalf("Count = %d, want %d", r.Count(), len(recs))
	}
	var got Record
	for i, want := range recs {
		if !r.Next(&got) {
			t.Fatalf("Next returned false at record %d: %v", i, r.Err())
		}
		if got != want {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if r.Next(&got) {
		t.Error("Next returned true past the end")
	}
	if r.Err() != nil {
		t.Errorf("Err = %v", r.Err())
	}
}

func TestReaderReset(t *testing.T) {
	recs := randomRecords(2, 100)
	data := encodeAll(t, recs)
	r, err := NewReader(&seekBuffer{data: data})
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	var rec Record
	for i := 0; i < 37; i++ {
		if !r.Next(&rec) {
			t.Fatal("short stream")
		}
	}
	r.Reset()
	for i, want := range recs {
		if !r.Next(&rec) {
			t.Fatalf("after Reset, short at %d: %v", i, r.Err())
		}
		if rec != want {
			t.Fatalf("after Reset, record %d = %+v, want %+v", i, rec, want)
		}
	}
}

func TestFileRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw) % 64
		recs := randomRecords(seed, n)
		var buf bytes.Buffer
		w, err := NewWriter(&buf, n)
		if err != nil {
			return false
		}
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		r, err := NewReader(&seekBuffer{data: buf.Bytes()})
		if err != nil {
			return false
		}
		var got Record
		for _, want := range recs {
			if !r.Next(&got) || got != want {
				return false
			}
		}
		return !r.Next(&got) && r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWriterCountMismatch(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(rec(4, arch.Cond, true, 8)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Error("Close with missing records did not error")
	}
	// Writing past the declared count errors too.
	w2, _ := NewWriter(&buf, 0)
	if err := w2.Write(rec(4, arch.Cond, true, 8)); err == nil {
		t.Error("Write past declared count did not error")
	}
}

func TestReaderBadMagic(t *testing.T) {
	if _, err := NewReader(&seekBuffer{data: []byte("NOPE\x01\x00")}); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestReaderTruncated(t *testing.T) {
	recs := randomRecords(3, 10)
	data := encodeAll(t, recs)
	r, err := NewReader(&seekBuffer{data: data[:len(data)-3]})
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	var rec Record
	n := 0
	for r.Next(&rec) {
		n++
	}
	if r.Err() == nil {
		t.Error("truncated file decoded without error")
	}
	if n >= 10 {
		t.Errorf("decoded %d records from truncated file", n)
	}
}

func TestWriteReadFile(t *testing.T) {
	recs := randomRecords(4, 1000)
	path := filepath.Join(t.TempDir(), "t.vlpt")
	if err := WriteFile(path, NewBuffer(recs)); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got.Len() != len(recs) {
		t.Fatalf("ReadFile got %d records, want %d", got.Len(), len(recs))
	}
	for i := range recs {
		if got.Records[i] != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got.Records[i], recs[i])
		}
	}
}

func TestFileCompactness(t *testing.T) {
	// The encoding should be far smaller than the naive 17-byte struct;
	// typical records are 2-4 bytes. This guards against regressions
	// that silently bloat generated trace files.
	recs := randomRecords(5, 10000)
	data := encodeAll(t, recs)
	if perRec := float64(len(data)) / float64(len(recs)); perRec > 8 {
		t.Errorf("encoding uses %.1f bytes/record, want <= 8", perRec)
	}
}

func TestGzipRoundTrip(t *testing.T) {
	recs := randomRecords(9, 2000)
	dir := t.TempDir()
	plain := filepath.Join(dir, "t.vlpt")
	gz := filepath.Join(dir, "t.vlpt.gz")
	if err := WriteFile(plain, NewBuffer(recs)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(gz, NewBuffer(recs)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(gz)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(recs) {
		t.Fatalf("gz read %d records, want %d", got.Len(), len(recs))
	}
	for i := range recs {
		if got.Records[i] != recs[i] {
			t.Fatalf("gz record %d differs", i)
		}
	}
	ps, _ := os.Stat(plain)
	gs, _ := os.Stat(gz)
	if gs.Size() >= ps.Size() {
		t.Errorf("gzip did not shrink the file: %d vs %d bytes", gs.Size(), ps.Size())
	}
}

func TestGzipRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.gz")
	if err := os.WriteFile(path, []byte("not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Error("garbage .gz accepted")
	}
}

// corruptFixtures enumerates on-disk failure shapes the ingestion layer
// must classify as corrupt (no-retry) rather than transient I/O.
func corruptFixtures(t *testing.T) map[string][]byte {
	t.Helper()
	valid := encodeAll(t, randomRecords(11, 20))
	return map[string][]byte{
		"bad-magic":      []byte("NOPE\x01\x00"),
		"short-magic":    []byte("VL"),
		"bad-version":    []byte("VLPT\x09\x00"),
		"truncated":      valid[:len(valid)-4],
		"empty":          {},
		"overflow-count": []byte("VLPT\x01\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80"),
		"huge-count":     []byte("VLPT\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"),
		"bad-kind":       append([]byte("VLPT\x01\x01"), 0x07, 0x02),
	}
}

func TestReadFileClassifiesCorruption(t *testing.T) {
	dir := t.TempDir()
	for name, data := range corruptFixtures(t) {
		path := filepath.Join(dir, name+".vlpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadFile(path)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error not classified corrupt: %v", name, err)
		}
	}
	// A missing file is an I/O failure, not corruption: the retry layer
	// must be allowed to treat it differently.
	if _, err := ReadFile(filepath.Join(dir, "nope.vlpt")); err == nil || errors.Is(err, ErrCorrupt) {
		t.Errorf("missing file misclassified: %v", err)
	}
}

func TestReaderErrIsCorruptOnTruncation(t *testing.T) {
	data := encodeAll(t, randomRecords(12, 10))
	r, err := NewReader(&seekBuffer{data: data[:len(data)-3]})
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	for r.Next(&rec) {
	}
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("truncation error not classified corrupt: %v", r.Err())
	}
}

func TestPreallocCount(t *testing.T) {
	cases := []struct {
		declared  uint64
		dataBytes int
		want      int
	}{
		{0, 100, 0},
		{10, 100, 10},                          // honest header: exact
		{1 << 60, 100, 50},                     // lying header: bounded by payload
		{1 << 60, 1 << 40, maxPreallocRecords}, // lying header, huge payload: absolute cap
		{maxPreallocRecords + 1, 1 << 40, maxPreallocRecords},
		{5, 10, 5},
	}
	for _, c := range cases {
		if got := preallocCount(c.declared, c.dataBytes); got != c.want {
			t.Errorf("preallocCount(%d, %d) = %d, want %d", c.declared, c.dataBytes, got, c.want)
		}
	}
}

func TestReadFileHugeCountDoesNotPreallocate(t *testing.T) {
	// A tiny file whose header declares 2^40 records must fail fast on
	// decode, not try to allocate a multi-terabyte slice first.
	path := filepath.Join(t.TempDir(), "huge.vlpt")
	header := []byte("VLPT\x01\x80\x80\x80\x80\x80\x80\x80\x80\x01") // count uvarint = 2^56
	if err := os.WriteFile(path, header, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Errorf("huge-count file not rejected as corrupt: %v", err)
	}
}
