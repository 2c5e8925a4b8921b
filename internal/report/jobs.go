package report

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// jobsDir is the subdirectory of a run directory holding per-job results.
const jobsDir = "jobs"

// JobResult is the schema-versioned persisted form of one raw per-job
// simulation result — one grid cell of a design-space sweep (or one job of
// a figure's variant table), stored as results/<run-id>/jobs/<key>.json so
// sweeps finer than one artifact can be diffed across commits.
type JobResult struct {
	// SchemaVersion stamps the schema the result was written under (shared
	// with artifacts; see SchemaVersion).
	SchemaVersion int `json:"schema_version"`
	// Key is the job's unique identity within the run; it doubles as the
	// file stem, so it is restricted to ValidJobKey.
	Key string `json:"key"`
	// Label is the human-readable job label ("fig10/OLTP DB2/PIF").
	Label string `json:"label,omitempty"`
	// Point locates the job on its sweep's axes (axis name -> value key).
	Point map[string]string `json:"point,omitempty"`
	// Engine records the resolved prefetch-engine spec the job ran with:
	// the registry name and every effective parameter (defaults applied,
	// budget derivations resolved), so stored runs compare like-for-like
	// even when cells derive parameters from budgets. Additive metadata:
	// DiffJobResults compares Data only.
	Engine *EngineRef `json:"engine,omitempty"`
	// Data is the raw sim.Result in compact canonical JSON. DiffJobResults
	// flattens its numeric leaves into per-job metric paths.
	Data json.RawMessage `json:"data,omitempty"`
}

// EngineRef is the persisted form of a resolved engine spec. It mirrors
// prefetch.Spec without importing it (report stays a leaf package);
// params serialize in canonical (sorted-key) order.
type EngineRef struct {
	Name   string             `json:"name"`
	Params map[string]float64 `json:"params,omitempty"`
}

// ValidJobKey reports whether key is usable as a per-job result key (and
// therefore a file stem under jobs/): non-empty, at most 160 bytes,
// alphanumeric start, and only alphanumerics, '.', '_', '-' after. Keys
// are longer than artifact IDs because they concatenate a sweep name with
// one coordinate per axis.
func ValidJobKey(key string) bool {
	if key == "" || len(key) > 160 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case (c == '.' || c == '_' || c == '-') && i > 0:
		default:
			return false
		}
	}
	return true
}

// NewJobResult builds a schema-stamped per-job result. data is the job's
// raw simulation outcome (any JSON-marshalable value); it is canonicalized
// to compact JSON so identical results are byte-identical regardless of
// how they were produced.
func NewJobResult(key, label string, point map[string]string, data any) (JobResult, error) {
	if !ValidJobKey(key) {
		return JobResult{}, fmt.Errorf("report: invalid job key %q", key)
	}
	j := JobResult{SchemaVersion: SchemaVersion, Key: key, Label: label}
	if len(point) > 0 {
		j.Point = make(map[string]string, len(point))
		for k, v := range point {
			j.Point[k] = v
		}
	}
	if data != nil {
		b, err := encode(data, false)
		if err != nil {
			return JobResult{}, fmt.Errorf("report: marshal job %s data: %w", key, err)
		}
		c, err := compactJSON(b)
		if err != nil {
			return JobResult{}, fmt.Errorf("report: canonicalize job %s data: %w", key, err)
		}
		j.Data = c
	}
	return j, nil
}

// JobsDir returns the per-job results directory inside a run directory.
func JobsDir(runDir string) string { return filepath.Join(runDir, jobsDir) }

// saveJobResults writes one <key>.json per job under <runDir>/jobs/,
// replacing the directory wholesale: unlike artifacts, per-job results
// have no manifest in run.json, so LoadJobResults reads whatever files
// are present — stale jobs from an earlier run stored in the same
// directory must not survive an overwrite, or a later diff compares
// outdated cells as current. Duplicate keys are an error — two jobs
// colliding on one file would silently drop a grid cell. Saving an empty
// slice clears any previous jobs directory and writes nothing.
func saveJobResults(runDir string, jobs []JobResult) error {
	dir := JobsDir(runDir)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if len(jobs) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	seen := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if !ValidJobKey(j.Key) {
			return fmt.Errorf("report: invalid job key %q", j.Key)
		}
		if seen[j.Key] {
			return fmt.Errorf("report: duplicate job key %q", j.Key)
		}
		seen[j.Key] = true
		if err := WriteJobResult(filepath.Join(dir, j.Key+".json"), j); err != nil {
			return err
		}
	}
	return nil
}

// WriteJobResult atomically persists one per-job result to path
// (temp-file + rename in the destination directory, like WriteArtifact).
// It stamps the current schema version. The remote coordinator uses this
// to stream results into <run>/jobs/ as workers complete them, so a
// crashed coordinator never leaves a truncated job file behind.
func WriteJobResult(path string, j JobResult) error {
	if !ValidJobKey(j.Key) {
		return fmt.Errorf("report: invalid job key %q", j.Key)
	}
	j.SchemaVersion = SchemaVersion
	b, err := encode(j, true)
	if err != nil {
		return fmt.Errorf("report: marshal job %s: %w", j.Key, err)
	}
	return writeFileAtomic(path, b)
}

// LoadJobResults reads every per-job result under <runDir>/jobs/, sorted
// by key. A run without a jobs directory yields an empty slice — per-job
// persistence is optional, and diffing such a run is not an error.
func LoadJobResults(runDir string) ([]JobResult, error) {
	dir := JobsDir(runDir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var jobs []JobResult
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var j JobResult
		if err := json.Unmarshal(b, &j); err != nil {
			return nil, fmt.Errorf("report: parse %s: %w", path, err)
		}
		if j.SchemaVersion != SchemaVersion {
			return nil, fmt.Errorf("report: %s has schema version %d, want %d", path, j.SchemaVersion, SchemaVersion)
		}
		if !ValidJobKey(j.Key) {
			return nil, fmt.Errorf("report: %s has invalid job key %q", path, j.Key)
		}
		if want := strings.TrimSuffix(e.Name(), ".json"); j.Key != want {
			return nil, fmt.Errorf("report: %s declares key %q", path, j.Key)
		}
		if j.Data != nil {
			c, err := compactJSON(j.Data)
			if err != nil {
				return nil, fmt.Errorf("report: %s data: %w", path, err)
			}
			j.Data = c
		}
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].Key < jobs[b].Key })
	return jobs, nil
}

// DiffJobResults compares two per-job result sets at per-job granularity:
// jobs are matched by key, each matched pair's raw simulation data is
// flattened into metric paths rooted at "jobs/<key>", and jobs present on
// one side only are reported like missing artifacts. Tolerance prefixes
// compose the same way ("jobs/sweep-history" governs a whole sweep,
// "jobs/sweep-history.workload-oltp-xl_engine-pif_budget-512kb.uipc" one
// metric of one grid cell).
func DiffJobResults(a, b []JobResult, tol Tolerances) Diff {
	conv := func(jobs []JobResult) []Artifact {
		arts := make([]Artifact, 0, len(jobs))
		for _, j := range jobs {
			arts = append(arts, Artifact{ID: "jobs/" + j.Key, Data: j.Data})
		}
		return arts
	}
	return DiffArtifacts(conv(a), conv(b), tol)
}

// Merge appends the other diff's findings to d (used to combine the
// artifact-level and per-job comparisons of one run pair).
func (d *Diff) Merge(o Diff) {
	d.OnlyInA = append(d.OnlyInA, o.OnlyInA...)
	d.OnlyInB = append(d.OnlyInB, o.OnlyInB...)
	d.Metrics = append(d.Metrics, o.Metrics...)
	d.Mismatches = append(d.Mismatches, o.Mismatches...)
}
