package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"strings"
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

// rawRecord encodes one VLPT record field by field, so a test can write
// what Writer refuses to: the header byte, the PC delta and, unless the
// header has the fall-through bit, Next, both in instruction units.
func rawRecord(hdr byte, delta int64, next uint64) []byte {
	p := binary.AppendVarint([]byte{hdr}, delta)
	if hdr&hdrFallThrough == 0 {
		p = binary.AppendUvarint(p, next)
	}
	return p
}

// addrStream is a two-record stream: a fall-through at 0x1000, then
// second.
func addrStream(second []byte) []byte {
	data := append([]byte("VLPT\x01\x02"), rawRecord(hdrFallThrough, 0x1000/arch.InstrBytes, 0)...)
	return append(data, second...)
}

// TestDecodeRejectsWideAddress: an address is 32 bits, so a record
// whose PC, explicit Next or implied fall-through lies outside
// [0, 2^32) is corrupt, named by its index, through every decode path,
// rather than truncated onto another address.
func TestDecodeRejectsWideAddress(t *testing.T) {
	const units = 0x1000 / arch.InstrBytes // the first record's PC
	cases := map[string][]byte{
		"pc 2^32":        rawRecord(hdrFallThrough, 1<<30-units, 0),
		"pc below 0":     rawRecord(hdrFallThrough, -units-1, 0),
		"pc delta wraps": rawRecord(hdrFallThrough, math.MaxInt64, 0),
		"next 2^32":      rawRecord(hdrTaken, 0, 1<<30),
		"next wraps":     rawRecord(hdrTaken, 0, math.MaxUint64),
		"fall-through":   rawRecord(hdrFallThrough, 1<<30-1-units, 0),
	}
	for name, second := range cases {
		data := addrStream(second)
		_, err := Decode(data)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "record 1") ||
			!strings.Contains(err.Error(), "32-bit address space") {
			t.Errorf("%s: Decode error %v, want a corrupt record 1 outside the address space", name, err)
			continue
		}
		into, intoErr := DecodeInto(make([]Record, 0, 4), data)
		sameOutcome(t, name+": DecodeInto", intoErr, err, into, nil)
		r, rerr := NewReader(bytes.NewReader(data))
		if rerr != nil {
			t.Fatalf("%s: header: %v", name, rerr)
		}
		drain(r)
		sameOutcome(t, name+": Reader", r.Err(), err, nil, nil)
	}
}

// TestAddressSpaceEdges: the last addresses of the space decode and
// round-trip. The fall-through of the last instruction wraps to 0 in an
// arch.Addr, so Writer stores that Next explicitly.
func TestAddressSpaceEdges(t *testing.T) {
	const top = math.MaxUint32 / arch.InstrBytes
	data := addrStream(rawRecord(hdrTaken, top-0x1000/arch.InstrBytes, 0))
	buf, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := buf.Records[1], (Record{PC: 0xfffffffc, Kind: arch.Cond, Taken: true, Next: 0}); got != want {
		t.Errorf("top record = %+v, want %+v", got, want)
	}
	recs := []Record{
		{PC: 0xfffffff8, Kind: arch.Cond, Next: 0xfffffffc},
		{PC: 0xfffffffc, Kind: arch.Cond, Next: arch.Addr(0xfffffffc).FallThrough()},
		{PC: 0x10000, Kind: arch.Indirect, Taken: true, Next: 0xfffffffc},
	}
	enc, err := Encode(NewBuffer(recs))
	if err != nil {
		t.Fatal(err)
	}
	if buf, err = Decode(enc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(buf.Records, recs) {
		t.Errorf("round trip = %+v, want %+v", buf.Records, recs)
	}
}
