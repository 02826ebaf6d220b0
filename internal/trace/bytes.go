package trace

import (
	"bytes"
)

// Encode and Decode move whole traces through memory in the same VLPT
// wire format the file layer uses, so a trace chunk can travel over a
// network connection (the prediction service's request bodies) or sit in
// a test fixture without touching the filesystem. A decoded chunk is
// bit-identical to the records that were encoded: ReadFile, Decode and
// DecodeInto are one slice codec, and the streaming Reader runs the
// same per-record decoder.

// Encode serializes all records of src (after resetting it) into the
// VLPT wire format.
func Encode(src Source) ([]byte, error) {
	buf := Collect(src)
	var out bytes.Buffer
	w, err := NewWriter(&out, buf.Len())
	if err != nil {
		return nil, err
	}
	for _, rec := range buf.Records {
		if err := w.Write(rec); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// Decode parses one complete VLPT stream held in data into a new
// Buffer: DecodeInto with no storage to reuse. Decode failures carry
// the same ErrCorrupt classification as the file reader, so callers
// can distinguish structurally bad payloads from transient I/O the same
// way the batch pipeline does.
func Decode(data []byte) (*Buffer, error) {
	recs, err := DecodeInto(nil, data)
	if err != nil {
		return nil, err
	}
	return NewBuffer(recs), nil
}
