package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/arch"
)

// File format
//
// The paper's substrate pipes ATOM instrumentation output into the
// simulators; our equivalent is a compact binary trace file so that
// workloads can be generated once (cmd/traceg) and replayed by every
// predictor configuration. The format is:
//
//	magic   "VLPT"           4 bytes
//	version uvarint          currently 1
//	count   uvarint          number of records
//	records count times:
//	    header byte: kind (bits 0-2), taken (bit 3), nextIsFallThrough (bit 4)
//	    pcDelta  varint       signed delta from previous record's PC, in
//	                          instruction units (PC deltas are small and
//	                          sign-alternating, so zig-zag varints are short)
//	    next     uvarint      omitted when nextIsFallThrough; otherwise the
//	                          Next address in instruction units
//
// All multi-byte values use the standard library's varint encoding.
// The varints can spell addresses of any width, but an arch.Addr is 32
// bits: a record whose PC, Next or implied fall-through PC+4 lies outside
// [0, 2^32) is corrupt, not truncated.

const (
	fileMagic   = "VLPT"
	fileVersion = 1
)

// ErrCorrupt classifies structural decode failures — bad magic, an
// unsupported version, a truncated stream, an invalid record — as
// distinct from transient I/O errors. Corrupt data decodes identically
// on every attempt, so ingestion layers must not retry it; they check
// errors.Is(err, ErrCorrupt) to pick between "retry" and "skip with
// reason".
var ErrCorrupt = errors.New("corrupt trace data")

// corruptError wraps a decode failure so both the underlying error and
// the ErrCorrupt classification are reachable through errors.Is/As
// without changing the error message.
type corruptError struct{ err error }

func (e *corruptError) Error() string   { return e.err.Error() }
func (e *corruptError) Unwrap() []error { return []error{e.err, ErrCorrupt} }

func corruptf(format string, args ...any) error {
	return &corruptError{err: fmt.Errorf(format, args...)}
}

// readErr formats a failure to read the field what. A premature end of
// stream is corruption (the header promised more data than the stream
// holds); other I/O errors, which may be transient, stay unclassified.
func readErr(what string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return corruptf("trace: %s: %w", what, err)
	}
	return fmt.Errorf("trace: %s: %w", what, err)
}

// errVarintOverflow reports a varint longer than 64 bits: structurally
// bad data, where the standard library's overflow would read as
// retryable I/O to the ingestion layer.
var errVarintOverflow = &corruptError{err: errors.New("varint overflows a 64-bit integer")}

// varintErr is the failure behind binary.Uvarint(buf)'s n <= 0:
// overflow, or end, the reason buf ends where it does (io.EOF for a
// complete payload). Uvarint reports ten bytes that all continue as a
// short buffer (n == 0) when they are all of buf, but no valid varint
// has them, whatever follows: that is overflow too.
func varintErr(buf []byte, n int, end error) error {
	if n < 0 || len(buf) >= binary.MaxVarintLen64 {
		return errVarintOverflow
	}
	return end
}

const (
	// maxHeaderBytes is the longest file header: magic, version, count.
	maxHeaderBytes = len(fileMagic) + 2*binary.MaxVarintLen64
	// maxRecordBytes is the longest encoded record: header byte, PC
	// delta and Next.
	maxRecordBytes = 1 + 2*binary.MaxVarintLen64
)

// parseHeader parses the file header at the front of p and returns the
// declared record count and the header's length. end is the reason p
// ends where it does: io.EOF when p holds the whole stream, the read
// error when p is a prefix of one.
func parseHeader(p []byte, end error) (count uint64, n int, err error) {
	if len(p) < len(fileMagic) {
		if len(p) > 0 && end == io.EOF {
			end = io.ErrUnexpectedEOF
		}
		return 0, 0, readErr("reading magic", end)
	}
	if string(p[:len(fileMagic)]) != fileMagic {
		return 0, 0, corruptf("trace: bad magic %q", p[:len(fileMagic)])
	}
	n = len(fileMagic)
	version, m := binary.Uvarint(p[n:])
	if m <= 0 {
		return 0, 0, corruptf("trace: reading version: %w", varintErr(p[n:], m, end))
	}
	if version != fileVersion {
		return 0, 0, corruptf("trace: unsupported version %d", version)
	}
	n += m
	count, m = binary.Uvarint(p[n:])
	if m <= 0 {
		err = varintErr(p[n:], m, end)
	} else if count > math.MaxInt {
		// Count() reports int; a count that cannot even be represented
		// is a scrambled header, not a plausible trace.
		err = corruptf("implausible record count %d", count)
	}
	if err != nil {
		return 0, 0, corruptf("trace: reading count: %w", err)
	}
	return count, n + m, nil
}

// decodeRecord is the one VLPT record decoder: it parses the record at
// the front of p, the i-th of its stream, whose predecessor's PC is
// prevPC, and returns it with its encoded length. end is the reason p
// ends where it does, reported if the record runs off it.
func decodeRecord(p []byte, end error, prevPC arch.Addr, i uint64) (Record, int, error) {
	if len(p) == 0 {
		return Record{}, 0, readErr(fmt.Sprintf("record %d header", i), end)
	}
	hdr := p[0]
	kind := arch.BranchKind(hdr & hdrKindMask)
	if int(kind) >= arch.NumKinds {
		return Record{}, 0, corruptf("trace: record %d has invalid kind %d", i, kind)
	}
	// Both varints take an inlined one-byte path; binary.Uvarint
	// decodes longer ones and reports truncation and overflow.
	n := 1
	ux, m := uint64(0), 1
	if len(p) > n && p[n] < 0x80 {
		ux = uint64(p[n])
	} else if ux, m = binary.Uvarint(p[n:]); m <= 0 {
		return Record{}, 0, readErr(fmt.Sprintf("record %d pc delta", i), varintErr(p[n:], m, end))
	}
	n += m
	delta := int64(ux >> 1)
	if ux&1 != 0 {
		delta = ^delta
	}
	// The product overflows only for a delta beyond the address space,
	// which the check rejects before it reads pc.
	pc := int64(prevPC) + delta*arch.InstrBytes
	if delta < -maxAddrUnits || delta > maxAddrUnits || pc < 0 || pc > math.MaxUint32 {
		return Record{}, 0, corruptf("trace: record %d: pc %v%+d instructions is beyond the 32-bit address space", i, prevPC, delta)
	}
	var next int64
	if hdr&hdrFallThrough != 0 {
		if next = pc + arch.InstrBytes; next > math.MaxUint32 {
			return Record{}, 0, corruptf("trace: record %d: fall-through of pc %#x is beyond the 32-bit address space", i, pc)
		}
	} else {
		u, m := uint64(0), 1
		if len(p) > n && p[n] < 0x80 {
			u = uint64(p[n])
		} else if u, m = binary.Uvarint(p[n:]); m <= 0 {
			return Record{}, 0, readErr(fmt.Sprintf("record %d next", i), varintErr(p[n:], m, end))
		}
		if u > maxAddrUnits {
			return Record{}, 0, corruptf("trace: record %d: next of %d instructions is beyond the 32-bit address space", i, u)
		}
		next, n = int64(u)*arch.InstrBytes, n+m
	}
	return Record{PC: arch.Addr(pc), Kind: kind, Taken: hdr&hdrTaken != 0, Next: arch.Addr(next)}, n, nil
}

// maxAddrUnits is the largest address in instruction units: the file
// format stores addresses that way, and an arch.Addr is 32 bits.
const maxAddrUnits = math.MaxUint32 / arch.InstrBytes

// DecodeInto parses one complete VLPT stream held in data into dst's
// storage, discarding dst's contents, and returns the records. It
// allocates only when dst's capacity is short of the declared count
// (bounded by what data could encode), so a caller that decodes chunk
// after chunk into the returned slice decodes without allocating. On
// error it returns the storage emptied, for reuse.
func DecodeInto(dst []Record, data []byte) ([]Record, error) {
	dst = dst[:0]
	count, off, err := parseHeader(data, io.EOF)
	if err != nil {
		return dst, err
	}
	// The header's declared count is untrusted: the preallocation is
	// capped by what len(data) bytes could possibly encode.
	if n := preallocCount(count, len(data)); cap(dst) < n {
		dst = make([]Record, 0, n)
	}
	var prevPC arch.Addr
	for i := uint64(0); i < count; i++ {
		rec, n, err := decodeRecord(data[off:], io.EOF, prevPC, i)
		if err != nil {
			return dst[:0], err
		}
		dst = append(dst, rec)
		prevPC = rec.PC
		off += n
	}
	return dst, nil
}

// maxPreallocRecords caps how many records a header can make DecodeInto
// preallocate before a single record has been decoded. A hostile or
// scrambled header can declare 2^60 records; the slice still grows to
// the real decoded size on demand, so the cap costs nothing on honest
// payloads. 1M records ≈ 12 MB of slice.
const maxPreallocRecords = 1 << 20

// minRecordBytes is the smallest possible encoded record: one header
// byte plus a one-byte PC delta (the fall-through bit elides Next).
// A payload of N bytes therefore holds at most N/minRecordBytes records,
// which bounds the preallocation exactly.
const minRecordBytes = 2

// preallocCount returns a safe capacity hint for a declared record
// count: bounded by what dataBytes of payload could possibly encode and
// by the absolute maxPreallocRecords cap.
func preallocCount(declared uint64, dataBytes int) int {
	return int(min(declared, uint64(dataBytes)/minRecordBytes, maxPreallocRecords))
}

const (
	hdrKindMask    = 0x07
	hdrTaken       = 0x08
	hdrFallThrough = 0x10
)

// Writer encodes records to an underlying stream. Close must be called to
// flush buffered data; the record count is written up front, so the caller
// supplies it to NewWriter.
type Writer struct {
	w      *bufio.Writer
	prevPC arch.Addr
	wrote  uint64
	count  uint64
	buf    [2 * binary.MaxVarintLen64]byte
}

// NewWriter writes the file header for count records and returns a Writer.
func NewWriter(w io.Writer, count int) (*Writer, error) {
	if count < 0 {
		return nil, errors.New("trace: negative record count")
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(fileMagic); err != nil {
		return nil, err
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], fileVersion)
	n += binary.PutUvarint(buf[n:], uint64(count))
	if _, err := bw.Write(buf[:n]); err != nil {
		return nil, err
	}
	return &Writer{w: bw, count: uint64(count)}, nil
}

// Write encodes one record. The format stores addresses in instruction
// units, so a PC or Next that is not instruction-aligned is an error
// rather than silently rounded down.
func (w *Writer) Write(r Record) error {
	if w.wrote == w.count {
		return fmt.Errorf("trace: writing more than the declared %d records", w.count)
	}
	if r.PC%arch.InstrBytes != 0 || r.Next%arch.InstrBytes != 0 {
		return fmt.Errorf("trace: record %d (%v -> %v) is not %d-byte aligned",
			w.wrote, r.PC, r.Next, arch.InstrBytes)
	}
	hdr := byte(r.Kind) & hdrKindMask
	if r.Taken {
		hdr |= hdrTaken
	}
	// Compared in 64 bits: the fall-through of the last address in the
	// space wraps to 0 in an arch.Addr, which the decoder refuses.
	fall := uint64(r.Next) == uint64(r.PC)+arch.InstrBytes
	if fall {
		hdr |= hdrFallThrough
	}
	if err := w.w.WriteByte(hdr); err != nil {
		return err
	}
	delta := int64(r.PC)/arch.InstrBytes - int64(w.prevPC)/arch.InstrBytes
	n := binary.PutVarint(w.buf[:], delta)
	if !fall {
		n += binary.PutUvarint(w.buf[n:], uint64(r.Next)/arch.InstrBytes)
	}
	if _, err := w.w.Write(w.buf[:n]); err != nil {
		return err
	}
	w.prevPC = r.PC
	w.wrote++
	return nil
}

// Close flushes the writer and verifies that exactly the declared number of
// records was written.
func (w *Writer) Close() error {
	if w.wrote != w.count {
		return fmt.Errorf("trace: wrote %d records, declared %d", w.wrote, w.count)
	}
	return w.w.Flush()
}

// Reader decodes a trace file. It implements Source when constructed over
// an io.ReadSeeker (Reset seeks back to the first record).
type Reader struct {
	rs     io.ReadSeeker
	br     *bufio.Reader
	prevPC arch.Addr
	count  uint64
	read   uint64
	start  int64
	err    error
}

// NewReader validates the header and returns a Reader positioned at the
// first record.
func NewReader(rs io.ReadSeeker) (*Reader, error) {
	br := bufio.NewReaderSize(rs, 1<<16)
	p, end := br.Peek(maxHeaderBytes)
	count, n, err := parseHeader(p, end)
	if err != nil {
		return nil, err
	}
	_, _ = br.Discard(n) // cannot fail: Peek buffered the n bytes
	// Record where the data section starts so Reset can seek back to it.
	pos, err := rs.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil, fmt.Errorf("trace: locating data section: %w", err)
	}
	start := pos - int64(br.Buffered())
	return &Reader{rs: rs, br: br, count: count, start: start}, nil
}

// Count returns the number of records declared in the header.
func (r *Reader) Count() int { return int(r.count) }

// Err returns the first decoding error encountered, if any. Next returns
// false both at a clean end of stream and on error; callers that need to
// distinguish check Err.
func (r *Reader) Err() error { return r.err }

// Next implements Source.
func (r *Reader) Next(rec *Record) bool {
	if r.err != nil || r.read >= r.count {
		return false
	}
	p, end := r.br.Peek(maxRecordBytes)
	got, n, err := decodeRecord(p, end, r.prevPC, r.read)
	if err != nil {
		r.err = err
		return false
	}
	_, _ = r.br.Discard(n) // cannot fail: Peek buffered the n bytes
	*rec = got
	r.prevPC = got.PC
	r.read++
	return true
}

// Reset implements Source, seeking back to the first record.
func (r *Reader) Reset() {
	if _, err := r.rs.Seek(r.start, io.SeekStart); err != nil {
		r.err = fmt.Errorf("trace: reset: %w", err)
		return
	}
	r.br.Reset(r.rs)
	r.prevPC = 0
	r.read = 0
	r.err = nil
}

// WriteFile writes all records of src (after resetting it) to the named
// file; a ".gz" suffix selects gzip compression.
func WriteFile(path string, src Source) (err error) {
	if gzipPath(path) {
		return writeFileGz(path, src)
	}
	buf := Collect(src)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w, err := NewWriter(f, buf.Len())
	if err != nil {
		return err
	}
	for _, rec := range buf.Records {
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	return w.Close()
}

// ReadFile loads an entire trace file into memory; a ".gz" suffix selects
// gzip decompression.
func ReadFile(path string) (*Buffer, error) {
	if gzipPath(path) {
		return readFileGz(path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
