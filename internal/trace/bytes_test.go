package trace

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/arch"
)

func testRecords() []Record {
	return []Record{
		{PC: 0x1000, Kind: arch.Cond, Taken: true, Next: 0x2000},
		{PC: 0x2000, Kind: arch.Cond, Taken: false, Next: arch.Addr(0x2000).FallThrough()},
		{PC: 0x2004, Kind: arch.Indirect, Taken: true, Next: 0x4000},
		{PC: 0x4000, Kind: arch.Call, Taken: true, Next: 0x8000},
		{PC: 0x8000, Kind: arch.Return, Taken: true, Next: 0x4004},
	}
}

// TestEncodeDecodeRoundTrip pins the in-memory codec to the file
// format: records survive exactly, and Decode sees the same bytes the
// file Writer would produce.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	recs := testRecords()
	data, err := Encode(NewBuffer(recs))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(buf.Records, recs) {
		t.Fatalf("round trip changed records:\n got %v\nwant %v", buf.Records, recs)
	}
	// Empty traces are legal chunks.
	data, err = Encode(NewBuffer(nil))
	if err != nil {
		t.Fatal(err)
	}
	buf, err = Decode(data)
	if err != nil || buf.Len() != 0 {
		t.Fatalf("empty round trip: %d records, err %v", buf.Len(), err)
	}
}

// TestDecodeCorrupt asserts every structural failure mode carries the
// ErrCorrupt classification the service's 400 mapping relies on.
func TestDecodeCorrupt(t *testing.T) {
	valid, err := Encode(NewBuffer(testRecords()))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":         {},
		"bad magic":     []byte("NOPE\x01\x00"),
		"bad version":   []byte("VLPT\x07\x00"),
		"truncated":     valid[:len(valid)-2],
		"short header":  valid[:5],
		"declared more": []byte("VLPT\x01\x09"),
	}
	for name, data := range cases {
		_, err := Decode(data)
		if err == nil {
			t.Errorf("%s: decoded successfully", name)
			continue
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v not classified ErrCorrupt", name, err)
		}
	}
}

// TestEncodeRejectsMisaligned pins the writer's alignment check: the
// format stores addresses in instruction units, so a PC or Next off an
// instruction boundary is an error, not silently rounded down.
func TestEncodeRejectsMisaligned(t *testing.T) {
	for _, r := range []Record{
		{PC: 0x1002, Kind: arch.Cond, Taken: true, Next: 0x2001},
		{PC: 0x1002, Kind: arch.Cond, Taken: true, Next: 0x2000},
		{PC: 0x1000, Kind: arch.Indirect, Taken: true, Next: 0x2001},
	} {
		if data, err := Encode(NewBuffer([]Record{r})); err == nil {
			buf, _ := Decode(data)
			t.Errorf("Encode(%v) succeeded; it decodes as %v", r, buf.Records)
		}
	}
}
