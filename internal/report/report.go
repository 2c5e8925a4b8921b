// Package report defines the versioned JSON schema for experiment results
// and the on-disk results store that makes evaluation runs diffable across
// commits.
//
// An Artifact is the serializable form of one regenerated table or figure:
// the rendered text plus the driver's typed result marshaled with stable
// field names. A Run is the metadata sidecar written alongside the
// artifacts of one evaluation pass (options, suite, timings). A Store
// addresses runs as results/<run-id>/<artifact>.json; Diff compares two
// stored runs metric by metric under per-metric absolute/relative
// tolerances (see diff.go).
//
// Schema evolution: SchemaVersion is bumped on any change that is not
// strictly additive (renaming or re-typing a field, changing metric
// semantics). Loaders reject artifacts written under a different major
// version rather than guessing; additive fields keep the version. See
// DESIGN.md §6.
package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// SchemaVersion is the current version of the artifact and run schemas.
// Bump on any non-additive change; Load rejects mismatched versions.
const SchemaVersion = 1

// Artifact is the serializable form of one experiment artifact.
type Artifact struct {
	// SchemaVersion stamps the schema the artifact was written under.
	SchemaVersion int `json:"schema_version"`
	// ID is the artifact identifier ("fig2", "table1", ...). It doubles as
	// the file stem inside a run directory, so it is restricted to a safe
	// character set (see NewArtifact).
	ID string `json:"id"`
	// Title describes the artifact.
	Title string `json:"title"`
	// Text is the rendered table, kept alongside the data so a stored run
	// is human-readable without re-running anything.
	Text string `json:"text"`
	// Data is the driver's typed result in compact canonical JSON. Diff
	// flattens its numeric leaves into metric paths.
	Data json.RawMessage `json:"data,omitempty"`
}

// Run is the metadata sidecar (run.json) of one evaluation pass. Unlike
// artifacts, run metadata carries wall-clock facts (timings, creation
// time), so two otherwise identical runs differ here and only here.
type Run struct {
	SchemaVersion int       `json:"schema_version"`
	ID            string    `json:"id"`
	CreatedAt     time.Time `json:"created_at"`
	// Options records the evaluation scale and suite the run used.
	Options RunOptions `json:"options"`
	// Artifacts lists the artifact IDs stored with the run, in run order.
	Artifacts []string `json:"artifacts"`
	// Timings holds per-artifact wall-clock durations.
	Timings []Timing `json:"timings,omitempty"`
	// TotalNanos is the whole pass's wall-clock duration.
	TotalNanos int64 `json:"total_nanos,omitempty"`
}

// RunOptions is the serializable subset of the experiment options.
type RunOptions struct {
	Workloads []string `json:"workloads"`
	// SweepWorkloads is the suite the design-space sweep artifacts ran
	// over (additive field; absent in runs stored before sweeps existed).
	SweepWorkloads []string `json:"sweep_workloads,omitempty"`
	WarmupInstrs   uint64   `json:"warmup_instrs"`
	MeasureInstrs  uint64   `json:"measure_instrs"`
	Parallel       int      `json:"parallel,omitempty"`
	// System is the simulated machine description (config.System), kept as
	// an open-ended value so this package stays schema-generic.
	System any `json:"system,omitempty"`
}

// Timing is one artifact's wall-clock duration.
type Timing struct {
	ID    string `json:"id"`
	Nanos int64  `json:"nanos"`
}

// Elapsed returns the timing as a duration.
func (t Timing) Elapsed() time.Duration { return time.Duration(t.Nanos) }

// validID reports whether id is usable as an artifact ID (and therefore a
// file stem): non-empty, at most 64 bytes, alphanumeric start, and only
// alphanumerics, '.', '_', '-' after. "run" is reserved — its file stem
// is the metadata sidecar.
func validID(id string) bool {
	if id == "" || len(id) > 64 || id == "run" {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case (c == '.' || c == '_' || c == '-') && i > 0:
		default:
			return false
		}
	}
	return true
}

// ValidArtifactID reports whether id is usable as an artifact ID (see
// validID) — exported so callers that will later persist an artifact
// under a caller-chosen ID (e.g. the sweep CLI's grid summary) can
// reject a bad ID before doing the work the artifact would record.
func ValidArtifactID(id string) bool { return validID(id) }

// encode marshals v deterministically (sorted map keys via encoding/json,
// no HTML escaping) with optional indentation. The returned bytes end in a
// newline.
func encode(v any, indent bool) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if indent {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// compactJSON returns the whitespace-normalized form of raw JSON.
func compactJSON(raw []byte) (json.RawMessage, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// crashBeforeRename is a test seam simulating a writer killed between
// writing its temp file and renaming it into place: when it reports a
// crash for a path, writeFileAtomic abandons the write exactly the way a
// SIGKILL would — temp file left behind, final path never created. Nil
// outside tests.
var crashBeforeRename func(path string) bool

// errSimulatedCrash marks the test seam's abandonment.
var errSimulatedCrash = fmt.Errorf("report: simulated crash before rename")

// writeFileAtomic writes b at path via a uniquely named temp file in the
// same directory renamed into place, so no reader — nor a crash at any
// instant — ever observes a partially written file: the final path either
// does not exist or holds the complete bytes. Temp files are dot-prefixed
// and never end in ".json", so a crashed writer's leftovers are invisible
// to Load and LoadJobResults.
func writeFileAtomic(path string, b []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := f.Write(b)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	if crashBeforeRename != nil && crashBeforeRename(path) {
		return errSimulatedCrash
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// AtomicWriteFile exposes the store's atomic write primitive (temp file
// + rename in the destination directory, dot-prefixed temps invisible to
// Load and globs) for sibling stores layered on this package — the
// experiment service persists its run-database index files with exactly
// the crash-safety contract Save gives artifacts.
func AtomicWriteFile(path string, b []byte) error { return writeFileAtomic(path, b) }

// NewArtifact builds a schema-stamped artifact from a driver result. data
// may be any JSON-marshalable value (or nil for text-only artifacts); it
// is canonicalized to compact JSON so identical results are byte-identical
// regardless of how they were produced.
func NewArtifact(id, title, text string, data any) (Artifact, error) {
	if !validID(id) {
		return Artifact{}, fmt.Errorf("report: invalid artifact ID %q", id)
	}
	a := Artifact{SchemaVersion: SchemaVersion, ID: id, Title: title, Text: text}
	if data != nil {
		b, err := encode(data, false)
		if err != nil {
			return Artifact{}, fmt.Errorf("report: marshal %s data: %w", id, err)
		}
		c, err := compactJSON(b)
		if err != nil {
			return Artifact{}, fmt.Errorf("report: canonicalize %s data: %w", id, err)
		}
		a.Data = c
	}
	return a, nil
}

// Encode returns the artifact's canonical compact serialization, the form
// compared byte-for-byte by determinism tests.
func (a Artifact) Encode() ([]byte, error) { return encode(a, false) }

// WriteArtifact writes one artifact as indented JSON at path. The write
// is atomic (temp file + rename in the same directory): a reader never
// observes a torn artifact, and a writer killed mid-write leaves the
// previous file — or no file — in place, never a readable prefix.
func WriteArtifact(path string, a Artifact) error {
	if !validID(a.ID) {
		return fmt.Errorf("report: invalid artifact ID %q", a.ID)
	}
	b, err := encode(a, true)
	if err != nil {
		return fmt.Errorf("report: marshal artifact %s: %w", a.ID, err)
	}
	return writeFileAtomic(path, b)
}

// ReadArtifact loads one artifact file, verifying the schema version and
// re-canonicalizing Data so that ReadArtifact(WriteArtifact(a)) == a.
func ReadArtifact(path string) (Artifact, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Artifact{}, err
	}
	var a Artifact
	if err := json.Unmarshal(b, &a); err != nil {
		return Artifact{}, fmt.Errorf("report: parse %s: %w", path, err)
	}
	if a.SchemaVersion != SchemaVersion {
		return Artifact{}, fmt.Errorf("report: %s has schema version %d, want %d", path, a.SchemaVersion, SchemaVersion)
	}
	if !validID(a.ID) {
		return Artifact{}, fmt.Errorf("report: %s has invalid artifact ID %q", path, a.ID)
	}
	if a.Data != nil {
		c, err := compactJSON(a.Data)
		if err != nil {
			return Artifact{}, fmt.Errorf("report: %s data: %w", path, err)
		}
		a.Data = c
	}
	return a, nil
}

// runFile is the name of the metadata sidecar inside a run directory.
const runFile = "run.json"

// Save writes a run directory: one <artifact-id>.json per artifact, the
// per-job results under jobs/ (replaced wholesale, see saveJobResults),
// then run.json. dir is created if needed; existing files are
// overwritten.
//
// Crash safety: every file is written atomically (see writeFileAtomic)
// and run.json — the only file Load treats as proof of a complete run —
// is written last. A writer killed, or failing, at any single write
// therefore leaves either a directory without run.json (which Load
// rejects outright) or a fully consistent run; a readable-but-partial
// run directory is never observable.
func Save(dir string, run Run, artifacts []Artifact, jobs []JobResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Invalidate any previous run first: overwriting a complete run
	// directory must not leave the old manifest next to a partial mix of
	// old and new artifacts if this writer dies mid-save.
	if err := os.Remove(filepath.Join(dir, runFile)); err != nil && !os.IsNotExist(err) {
		return err
	}
	run.SchemaVersion = SchemaVersion
	// Fresh slice: run is a value, but reusing the caller's backing array
	// would mutate their copy.
	run.Artifacts = make([]string, 0, len(artifacts))
	for _, a := range artifacts {
		run.Artifacts = append(run.Artifacts, a.ID)
	}
	for _, a := range artifacts {
		if err := WriteArtifact(filepath.Join(dir, a.ID+".json"), a); err != nil {
			return err
		}
	}
	if err := saveJobResults(dir, jobs); err != nil {
		return err
	}
	b, err := encode(run, true)
	if err != nil {
		return fmt.Errorf("report: marshal run metadata: %w", err)
	}
	return writeFileAtomic(filepath.Join(dir, runFile), b)
}

// Load reads a run directory written by Save. Artifacts are returned in
// the order run.json lists them.
func Load(dir string) (Run, []Artifact, error) {
	b, err := os.ReadFile(filepath.Join(dir, runFile))
	if err != nil {
		return Run{}, nil, fmt.Errorf("report: %s is not a results directory: %w", dir, err)
	}
	var run Run
	if err := json.Unmarshal(b, &run); err != nil {
		return Run{}, nil, fmt.Errorf("report: parse %s: %w", filepath.Join(dir, runFile), err)
	}
	if run.SchemaVersion != SchemaVersion {
		return Run{}, nil, fmt.Errorf("report: %s has schema version %d, want %d", dir, run.SchemaVersion, SchemaVersion)
	}
	arts := make([]Artifact, 0, len(run.Artifacts))
	for _, id := range run.Artifacts {
		if !validID(id) {
			return Run{}, nil, fmt.Errorf("report: %s lists invalid artifact ID %q", dir, id)
		}
		a, err := ReadArtifact(filepath.Join(dir, id+".json"))
		if err != nil {
			return Run{}, nil, err
		}
		if a.ID != id {
			return Run{}, nil, fmt.Errorf("report: %s/%s.json declares ID %q", dir, id, a.ID)
		}
		arts = append(arts, a)
	}
	return run, arts, nil
}

// Store addresses runs inside a results root as <Root>/<run-id>/.
type Store struct {
	// Root is the results directory holding one subdirectory per run.
	Root string
}

// Dir returns the directory of a run.
func (s Store) Dir(runID string) string { return filepath.Join(s.Root, runID) }

// Save stores a run without per-job results under its ID.
func (s Store) Save(run Run, artifacts []Artifact) error {
	if !validID(run.ID) {
		return fmt.Errorf("report: invalid run ID %q", run.ID)
	}
	return Save(s.Dir(run.ID), run, artifacts, nil)
}

// Load reads a stored run by ID.
func (s Store) Load(runID string) (Run, []Artifact, error) {
	if !validID(runID) {
		return Run{}, nil, fmt.Errorf("report: invalid run ID %q", runID)
	}
	return Load(s.Dir(runID))
}

// Runs lists the stored run IDs (directories containing run.json) in
// lexical order — the directory-listing view. For a listing ordered the
// way a human (or the experiment service's list endpoint) wants it — by
// when each run started — use List.
func (s Store) Runs() ([]string, error) {
	entries, err := os.ReadDir(s.Root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(s.Root, e.Name(), runFile)); err == nil {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// RunInfo is one stored run's listing entry: its store address (the run
// directory name), when it was created, and how many artifacts it holds.
type RunInfo struct {
	ID        string    `json:"id"`
	CreatedAt time.Time `json:"created_at"`
	Artifacts int       `json:"artifacts"`
}

// List describes every stored run, sorted by creation time (ties broken
// by ID, so the order is total and stable). Unlike Load it reads only
// each run's metadata sidecar, never the artifacts, so listing a large
// corpus stays cheap. A run.json that fails to parse or carries a
// foreign schema version is an error — a corpus with an unreadable run
// should be noticed, not silently elided from listings.
func (s Store) List() ([]RunInfo, error) {
	ids, err := s.Runs()
	if err != nil {
		return nil, err
	}
	infos := make([]RunInfo, 0, len(ids))
	for _, id := range ids {
		b, err := os.ReadFile(filepath.Join(s.Dir(id), runFile))
		if err != nil {
			return nil, fmt.Errorf("report: list %s: %w", id, err)
		}
		var run Run
		if err := json.Unmarshal(b, &run); err != nil {
			return nil, fmt.Errorf("report: list %s: parse run.json: %w", id, err)
		}
		if run.SchemaVersion != SchemaVersion {
			return nil, fmt.Errorf("report: list %s: run.json has schema version %d, want %d", id, run.SchemaVersion, SchemaVersion)
		}
		infos = append(infos, RunInfo{ID: id, CreatedAt: run.CreatedAt, Artifacts: len(run.Artifacts)})
	}
	sort.Slice(infos, func(a, b int) bool {
		if !infos[a].CreatedAt.Equal(infos[b].CreatedAt) {
			return infos[a].CreatedAt.Before(infos[b].CreatedAt)
		}
		return infos[a].ID < infos[b].ID
	})
	return infos, nil
}
