package trace

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"
)

// WriteFile and ReadFile transparently gzip-compress traces whose path
// ends in ".gz". Long workload traces compress by another 2-4x on top of
// the varint encoding, which matters when a full-scale suite run (tens of
// millions of records) is archived for later replay.

// gzipPath reports whether the file should be gzip-framed.
func gzipPath(path string) bool { return strings.HasSuffix(path, ".gz") }

// writeFileGz writes all records of src to a gzip-compressed file.
func writeFileGz(path string, src Source) (err error) {
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
	zw := gzip.NewWriter(f)
	w, err := NewWriter(zw, buf.Len())
	if err != nil {
		return err
	}
	for _, rec := range buf.Records {
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	return zw.Close()
}

// readFileGz loads an entire gzip-compressed trace file into memory:
// it inflates the stream and decodes the bytes in one pass into a Buffer
// (which is itself a replayable Source).
func readFileGz(path string) (*Buffer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	defer zr.Close()
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, readErr(path, err)
	}
	return Decode(data)
}
