package runx

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// ManifestSchema tags the manifest file so readers can reject formats
// they do not understand, mirroring the repro-bench report schema.
const ManifestSchema = "runx-manifest/v1"

// ManifestName is the file name a suite run writes inside its results
// directory.
const ManifestName = "manifest.json"

// Status is the terminal state of one unit of work in a manifest.
type Status string

const (
	// StatusOK means the unit completed and its output was written.
	StatusOK Status = "ok"
	// StatusFailed means the unit ran and failed; a resumed run
	// should re-run it.
	StatusFailed Status = "failed"
	// StatusSkipped means the unit was never run, with the reason in
	// Error (for example, its input trace was corrupt).
	StatusSkipped Status = "skipped"
)

// ManifestEntry is the checkpoint record for one unit of work
// (one experiment of a suite run).
type ManifestEntry struct {
	ID     string `json:"id"`
	Status Status `json:"status"`
	// Output is the unit's result file (a bench report path), present
	// when Status is ok. Resume validates it before trusting it.
	Output string `json:"output,omitempty"`
	// Error is the failure or skip reason.
	Error string `json:"error,omitempty"`
	// WallNanos is how long the unit ran.
	WallNanos int64 `json:"wall_nanos,omitempty"`
	// Checksum is the digest of Output at checkpoint time (see
	// runx.Checksum). When present, Satisfied re-digests the file and a
	// mismatch quarantines it instead of trusting it — a torn or
	// corrupted artifact re-runs. Empty means "not recorded" (older
	// manifests), which verifies trivially.
	Checksum string `json:"checksum,omitempty"`
}

// Manifest is the checkpoint state of a suite run: one entry per unit,
// written after each unit completes so a crashed or canceled run can
// resume from the units that already finished.
type Manifest struct {
	Schema  string                   `json:"schema"`
	Entries map[string]ManifestEntry `json:"entries"`
}

// NewManifest returns an empty manifest stamped with the current schema.
func NewManifest() *Manifest {
	return &Manifest{Schema: ManifestSchema, Entries: map[string]ManifestEntry{}}
}

// LoadManifest reads and validates a manifest file.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("runx: %s: %w", path, err)
	}
	if m.Schema != ManifestSchema {
		return nil, fmt.Errorf("runx: %s: unknown manifest schema %q (want %q)", path, m.Schema, ManifestSchema)
	}
	if m.Entries == nil {
		m.Entries = map[string]ManifestEntry{}
	}
	for id, e := range m.Entries {
		if e.ID == "" {
			e.ID = id
			m.Entries[id] = e
		}
	}
	return &m, nil
}

// Set records one entry, replacing any previous record for its ID.
func (m *Manifest) Set(e ManifestEntry) {
	if m.Entries == nil {
		m.Entries = map[string]ManifestEntry{}
	}
	m.Entries[e.ID] = e
}

// Get returns the entry for id, if present.
func (m *Manifest) Get(id string) (ManifestEntry, bool) {
	e, ok := m.Entries[id]
	return e, ok
}

// Satisfied reports whether the manifest proves the unit already has a
// valid output on disk: the checkpoint says it succeeded, the recorded
// checksum (when present) still matches the file, AND validate (when
// non-nil) accepts the recorded output path — so a deleted, torn, or
// corrupted output re-runs instead of being trusted. A checksum
// mismatch additionally quarantines the file (renamed to
// <output>.quarantined) so the rerun cannot collide with the corrupt
// bytes and the evidence survives for triage. Both the single-process
// suite resume (cmd/paperrepro) and the distributed sweep resume
// (internal/dist) gate on this.
func (m *Manifest) Satisfied(id string, validate func(outputPath string) error) bool {
	if m == nil {
		return false
	}
	e, ok := m.Get(id)
	if !ok || e.Status != StatusOK || e.Output == "" {
		return false
	}
	if err := VerifyFileChecksum(e.Output, e.Checksum); err != nil {
		if !os.IsNotExist(err) {
			// Keep the corrupt bytes out of the rerun's way but on disk
			// for inspection. Best effort: if the rename fails the unit
			// still re-runs and overwrites.
			os.Rename(e.Output, e.Output+".quarantined")
		}
		return false
	}
	if validate == nil {
		return true
	}
	return validate(e.Output) == nil
}

// Save writes the manifest through AtomicWriteFile (temp file + fsync
// + rename), creating the directory if needed, so a crash
// mid-checkpoint never leaves a truncated manifest that would poison
// the next resume.
func (m *Manifest) Save(path string) error {
	if m.Schema == "" {
		m.Schema = ManifestSchema
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("runx: marshal manifest: %w", err)
	}
	data = append(data, '\n')
	return AtomicWriteFile(path, data, 0o644)
}

// ManifestPath returns the canonical manifest location inside a
// results directory.
func ManifestPath(dir string) string { return filepath.Join(dir, ManifestName) }
