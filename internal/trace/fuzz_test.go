package trace

import (
	"bytes"
	"errors"
	"testing"
)

// drain decodes every record the reader will yield.
func drain(r *Reader) []Record {
	var recs []Record
	var rec Record
	for r.Next(&rec) {
		recs = append(recs, rec)
	}
	return recs
}

// FuzzReader throws arbitrary bytes at the trace decoder. The decoder
// must never panic or over-read, Reset must be deterministic, and any
// input that decodes cleanly must survive an encode/decode round trip
// bit-for-bit at the record level. Every input must also decode the
// same way, to the same records or the same error and ErrCorrupt
// classification, through Decode, DecodeInto a dirty longer reused
// window, and the streaming Reader.
func FuzzReader(f *testing.F) {
	// Seeds: an empty valid file, a real encoded trace, a truncation of
	// it, bad magic, a wrong version, and a header whose declared count
	// promises records the stream does not hold.
	f.Add([]byte("VLPT\x01\x00"))
	recs := randomRecords(7, 50)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, len(recs))
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte("NOPE\x01\x00"))
	f.Add([]byte("VLPT\x02\x00"))
	f.Add([]byte("VLPT\x01\xff\xff\xff\xff\xff\xff\xff\xff\x7f"))

	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, decErr := Decode(data)
		window := make([]Record, 64)
		for i := range window {
			window[i] = Record{PC: 0xdead0, Next: 0xbeef0, Taken: true}
		}
		into, intoErr := DecodeInto(window[:37], data)
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			sameOutcome(t, "DecodeInto", intoErr, decErr, into, nil)
			sameOutcome(t, "Reader", err, decErr, nil, nil)
			return // rejected at the header; nothing more to check
		}
		first := drain(r)
		firstErr := r.Err()
		if len(first) > r.Count() {
			t.Fatalf("decoded %d records, header declared %d", len(first), r.Count())
		}
		if firstErr != nil && !errors.Is(firstErr, ErrCorrupt) {
			// An in-memory reader can only fail structurally; every such
			// failure must carry the no-retry classification.
			t.Fatalf("decode error not classified corrupt: %v", firstErr)
		}
		var want []Record
		if decErr == nil {
			want = decoded.Records
		}
		sameOutcome(t, "DecodeInto", intoErr, decErr, into, want)
		if firstErr == nil {
			sameOutcome(t, "Reader", nil, decErr, first, want)
		} else {
			sameOutcome(t, "Reader", firstErr, decErr, nil, nil)
		}

		// Reset replays the identical stream.
		r.Reset()
		second := drain(r)
		if len(second) != len(first) || (r.Err() == nil) != (firstErr == nil) {
			t.Fatalf("Reset not deterministic: %d/%v then %d/%v",
				len(first), firstErr, len(second), r.Err())
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("Reset changed record %d: %+v vs %+v", i, first[i], second[i])
			}
		}

		// Clean decodes round-trip through the writer.
		if firstErr != nil || len(first) != r.Count() {
			return
		}
		var rebuf bytes.Buffer
		rw, err := NewWriter(&rebuf, len(first))
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range first {
			if err := rw.Write(rec); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
		}
		if err := rw.Close(); err != nil {
			t.Fatalf("re-encode close: %v", err)
		}
		rr, err := NewReader(bytes.NewReader(rebuf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode header: %v", err)
		}
		third := drain(rr)
		if rr.Err() != nil {
			t.Fatalf("re-decode: %v", rr.Err())
		}
		if len(third) != len(first) {
			t.Fatalf("round trip lost records: %d vs %d", len(third), len(first))
		}
		for i := range first {
			if third[i] != first[i] {
				t.Fatalf("round trip changed record %d: %+v vs %+v", i, first[i], third[i])
			}
		}
	})
}

// sameOutcome fails t unless a decode path's result (err, recs) matches
// Decode's: the same error text and ErrCorrupt classification, or the
// same records.
func sameOutcome(t *testing.T, path string, err, want error, recs, wantRecs []Record) {
	t.Helper()
	if (err == nil) != (want == nil) {
		t.Fatalf("%s error %v, Decode error %v", path, err, want)
	}
	if err != nil {
		if err.Error() != want.Error() || errors.Is(err, ErrCorrupt) != errors.Is(want, ErrCorrupt) {
			t.Fatalf("%s error %q (corrupt %v), Decode error %q (corrupt %v)", path,
				err, errors.Is(err, ErrCorrupt), want, errors.Is(want, ErrCorrupt))
		}
		return
	}
	if len(recs) != len(wantRecs) {
		t.Fatalf("%s decoded %d records, Decode %d", path, len(recs), len(wantRecs))
	}
	for i := range recs {
		if recs[i] != wantRecs[i] {
			t.Fatalf("%s record %d = %+v, Decode %+v", path, i, recs[i], wantRecs[i])
		}
	}
}
