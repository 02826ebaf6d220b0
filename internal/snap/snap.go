// Package snap implements the predictor snapshot container: the vlps/v1
// file format that carries one predictor's externalized state together
// with the identity needed to restore it safely.
//
// A snapshot answers three questions a bare state blob cannot: *what*
// was saved (the branch class and the factory spec string, so state is
// never loaded into a predictor built from a different configuration),
// *which codec wrote it* (a format version, so the layout can evolve),
// and *whether it survived the trip* (a sha256 trailer over everything
// else, so truncation and bit flips are detected before any state byte
// reaches a predictor's LoadState).
//
// Layout of vlps/v1, in order:
//
//	"VLPS"                magic
//	uvarint               format version (1)
//	string                branch class ("cond" / "indirect" / free-form)
//	string                predictor spec (factory grammar, canonical)
//	bytes                 meta — opaque caller payload (session
//	                      totals); may be empty
//	bytes                 state — the predictor's StateCodec output
//	[32]byte              raw sha256 over all preceding bytes
//
// Strings and byte fields are uvarint-length-prefixed (the state
// package's framing). Every decode failure — bad magic, unknown
// version, checksum mismatch, truncation, trailing garbage — is
// classified under ErrCorrupt, mirroring the trace decoder's
// discipline, so transports and services can map "damaged snapshot" to
// one error class without enumerating causes.
package snap

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/bpred"
	"repro/internal/bpred/state"
	"repro/internal/runx"
)

// Magic opens every snapshot file.
const Magic = "VLPS"

// Version is the current format version.
const Version = 1

// ErrCorrupt classifies every form of snapshot damage. It is the same
// sentinel the predictor state codecs use (state.ErrCorrupt), so one
// errors.Is covers container-level damage — bad magic, checksum
// mismatch, truncation — and state-level damage inside LoadState alike.
var ErrCorrupt = state.ErrCorrupt

// ErrSpecMismatch reports a structurally valid snapshot offered to a
// predictor built from a different class or spec. It is distinct from
// ErrCorrupt: the file is fine, the pairing is wrong.
var ErrSpecMismatch = errors.New("snap: snapshot spec mismatch")

// ErrNotStateful reports a predictor that does not implement
// bpred.StateCodec and therefore cannot be snapshotted or restored.
var ErrNotStateful = errors.New("snap: predictor does not support state save/restore")

// maxFieldLen bounds the class, spec, and meta fields; specs are short
// strings and meta is a small counters blob, so anything larger is
// damage.
const maxFieldLen = 1 << 16

// maxStateLen bounds the state field, far above the largest predictor
// configuration in the repository's sweeps.
const maxStateLen = 1 << 30

// Snapshot is a decoded (or to-be-encoded) predictor snapshot.
type Snapshot struct {
	// Class is the branch class the predictor serves, normally a
	// factory.Class String ("cond" / "indirect").
	Class string
	// Spec identifies the predictor configuration, normally the
	// canonical factory spec string. Restore refuses a mismatch.
	Spec string
	// Meta is an opaque caller payload carried alongside the state:
	// serve stores accumulated session totals. May be nil.
	Meta []byte
	// State is the predictor's StateCodec output.
	State []byte
}

// Capture saves p's state into a new snapshot labeled with the given
// class and spec. It returns ErrNotStateful when p has no state codec.
func Capture(class, spec string, p bpred.Predictor) (*Snapshot, error) {
	sc, ok := p.(bpred.StateCodec)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotStateful, p.Name())
	}
	var buf bytes.Buffer
	if err := sc.SaveState(&buf); err != nil {
		return nil, fmt.Errorf("snap: saving %s: %w", p.Name(), err)
	}
	return &Snapshot{Class: class, Spec: spec, State: buf.Bytes()}, nil
}

// CheckSpec verifies the snapshot was captured for the given class and
// spec, returning an ErrSpecMismatch-classified error otherwise.
func (s *Snapshot) CheckSpec(class, spec string) error {
	if s.Class != class || s.Spec != spec {
		return fmt.Errorf("%w: snapshot is %s %q, predictor is %s %q",
			ErrSpecMismatch, s.Class, s.Spec, class, spec)
	}
	return nil
}

// Restore loads the snapshot's state into p, which must have been built
// from the same class and spec the snapshot records. State-level damage
// surfaces as the codec's ErrCorrupt-classified error; on any error p
// must be discarded.
func (s *Snapshot) Restore(class, spec string, p bpred.Predictor) error {
	if err := s.CheckSpec(class, spec); err != nil {
		return err
	}
	sc, ok := p.(bpred.StateCodec)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotStateful, p.Name())
	}
	r := bytes.NewReader(s.State)
	if err := sc.LoadState(r); err != nil {
		return fmt.Errorf("snap: restoring %s: %w", p.Name(), err)
	}
	if r.Len() != 0 {
		return state.Corruptf("snap: %d trailing state bytes after restoring %s", r.Len(), p.Name())
	}
	return nil
}

// Encode renders the snapshot in the vlps/v1 layout.
func (s *Snapshot) Encode() []byte {
	var buf bytes.Buffer
	buf.WriteString(Magic)
	e := state.NewEncoder(&buf)
	e.U64(Version)
	e.String(s.Class)
	e.String(s.Spec)
	e.Bytes(s.Meta)
	e.Bytes(s.State)
	sum := sha256.Sum256(buf.Bytes())
	buf.Write(sum[:])
	return buf.Bytes()
}

// WriteTo writes the encoded snapshot to w.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(s.Encode())
	return int64(n), err
}

// Decode parses and verifies a vlps/v1 snapshot. The checksum is
// verified before any field is interpreted, so a truncated or bit-
// flipped file fails closed with ErrCorrupt; the state payload itself
// is opaque here and is validated by LoadState at restore time.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(Magic)+sha256.Size {
		return nil, state.Corruptf("snap: %d-byte file shorter than header and trailer", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, state.Corruptf("snap: bad magic %q", data[:len(Magic)])
	}
	body, trailer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], trailer) {
		return nil, state.Corruptf("snap: checksum mismatch: trailer %x…, contents hash to %x…",
			trailer[:6], sum[:6])
	}
	r := bytes.NewReader(body[len(Magic):])
	d := state.NewDecoder(r)
	version := d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if version != Version {
		return nil, state.Corruptf("snap: unsupported format version %d (have %d)", version, Version)
	}
	s := &Snapshot{}
	s.Class = d.String(maxFieldLen)
	s.Spec = d.String(maxFieldLen)
	s.Meta = d.Field(maxFieldLen)
	s.State = d.Field(maxStateLen)
	if err := d.Err(); err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, state.Corruptf("snap: %d trailing bytes after state field", r.Len())
	}
	if len(s.Meta) == 0 {
		s.Meta = nil
	}
	return s, nil
}

// ReadFrom decodes a snapshot from r, reading at most maxStateLen-scale
// bytes into memory (the checksum requires the whole file).
func ReadFrom(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxStateLen+maxFieldLen*4))
	if err != nil {
		return nil, fmt.Errorf("snap: reading snapshot: %w", err)
	}
	return Decode(data)
}

// SaveFile atomically writes the encoded snapshot to path, creating
// parent directories as needed (runx.AtomicWriteFile semantics: no
// reader ever observes a partial file, even across kill -9).
func (s *Snapshot) SaveFile(path string) error {
	return runx.AtomicWriteFile(path, s.Encode(), 0o644)
}

// LoadFile reads and verifies a snapshot file. A missing file surfaces
// as os.ErrNotExist, NOT as corruption, so callers can distinguish
// "never saved" from "saved and damaged".
func LoadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("snap: %s: %w", path, err)
	}
	return s, nil
}
