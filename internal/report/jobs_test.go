package report

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestValidJobKey(t *testing.T) {
	good := []string{
		"fig10.workload-oltp-db2_engine-pif",
		"sweep-history.workload-oltp-xl_engine-tifs_budget-512kb",
		"a", "A9._-x", strings.Repeat("k", 160),
	}
	for _, k := range good {
		if !ValidJobKey(k) {
			t.Errorf("ValidJobKey(%q) = false", k)
		}
	}
	bad := []string{
		"", ".leading", "-leading", "_leading", "has space", "has/slash",
		"has\\backslash", strings.Repeat("k", 161), "uni\u00e9",
	}
	for _, k := range bad {
		if ValidJobKey(k) {
			t.Errorf("ValidJobKey(%q) = true", k)
		}
	}
}

type fakeSim struct {
	UIPC     float64 `json:"uipc"`
	Misses   uint64  `json:"correct_misses"`
	Workload string  `json:"workload"`
}

func mkJob(t *testing.T, key string, uipc float64, point map[string]string) JobResult {
	t.Helper()
	j, err := NewJobResult(key, "label/"+key, point, fakeSim{UIPC: uipc, Misses: 7, Workload: "w"})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestJobResultsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jobs := []JobResult{
		mkJob(t, "s.workload-a_engine-pif", 1.25, map[string]string{"workload": "a", "engine": "pif"}),
		mkJob(t, "s.workload-a_engine-none", 1.0, map[string]string{"workload": "a", "engine": "none"}),
	}
	if err := saveJobResults(dir, jobs); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJobResults(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("loaded %d jobs", len(got))
	}
	// Load sorts by key; the 'none' job sorts first.
	if got[0].Key != "s.workload-a_engine-none" || got[1].Key != "s.workload-a_engine-pif" {
		t.Fatalf("order = %s, %s", got[0].Key, got[1].Key)
	}
	want := map[string]JobResult{jobs[0].Key: jobs[0], jobs[1].Key: jobs[1]}
	for _, j := range got {
		w := want[j.Key]
		if j.Label != w.Label || !reflect.DeepEqual(j.Point, w.Point) || string(j.Data) != string(w.Data) {
			t.Fatalf("round trip mismatch for %s:\n got %+v\nwant %+v", j.Key, j, w)
		}
	}
}

func TestSaveJobResultsRejectsDuplicates(t *testing.T) {
	dir := t.TempDir()
	jobs := []JobResult{mkJob(t, "dup.key", 1, nil), mkJob(t, "dup.key", 2, nil)}
	if err := saveJobResults(dir, jobs); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate keys accepted: %v", err)
	}
}

// TestSaveJobResultsReplacesStale locks the overwrite semantics: a run
// directory reused for a different run must not leak the previous run's
// per-job results (there is no manifest for jobs; the directory is the
// source of truth).
func TestSaveJobResultsReplacesStale(t *testing.T) {
	dir := t.TempDir()
	if err := saveJobResults(dir, []JobResult{mkJob(t, "old.cell", 1, nil)}); err != nil {
		t.Fatal(err)
	}
	if err := saveJobResults(dir, []JobResult{mkJob(t, "new.cell", 2, nil)}); err != nil {
		t.Fatal(err)
	}
	jobs, err := LoadJobResults(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Key != "new.cell" {
		t.Fatalf("stale jobs survived overwrite: %+v", jobs)
	}
	// An empty save clears the directory entirely.
	if err := saveJobResults(dir, nil); err != nil {
		t.Fatal(err)
	}
	if jobs, err := LoadJobResults(dir); err != nil || len(jobs) != 0 {
		t.Fatalf("empty save left jobs behind: %v, %v", jobs, err)
	}
}

func TestSaveJobResultsEmptyIsNoop(t *testing.T) {
	dir := t.TempDir()
	if err := saveJobResults(dir, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(JobsDir(dir)); !os.IsNotExist(err) {
		t.Fatalf("empty save created a jobs dir: %v", err)
	}
	jobs, err := LoadJobResults(dir)
	if err != nil || jobs != nil {
		t.Fatalf("LoadJobResults on run without jobs = %v, %v", jobs, err)
	}
}

func TestLoadJobResultsRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	if err := saveJobResults(dir, []JobResult{mkJob(t, "ok.key", 1, nil)}); err != nil {
		t.Fatal(err)
	}
	// Key/stem mismatch.
	bad := filepath.Join(JobsDir(dir), "other.json")
	src, _ := os.ReadFile(filepath.Join(JobsDir(dir), "ok.key.json"))
	if err := os.WriteFile(bad, src, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadJobResults(dir); err == nil || !strings.Contains(err.Error(), "declares key") {
		t.Fatalf("stem mismatch accepted: %v", err)
	}
	os.Remove(bad)
	// Wrong schema version.
	if err := os.WriteFile(bad, []byte(`{"schema_version":99,"key":"other"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadJobResults(dir); err == nil || !strings.Contains(err.Error(), "schema version") {
		t.Fatalf("schema mismatch accepted: %v", err)
	}
}

func TestNewJobResultValidation(t *testing.T) {
	if _, err := NewJobResult("bad key", "", nil, nil); err == nil {
		t.Error("invalid key accepted")
	}
	if _, err := NewJobResult("ok", "", nil, func() {}); err == nil {
		t.Error("unmarshalable data accepted")
	}
}

func TestDiffJobResultsPerJob(t *testing.T) {
	point := map[string]string{"workload": "a", "engine": "pif"}
	a := []JobResult{
		mkJob(t, "s.workload-a_engine-pif", 1.25, point),
		mkJob(t, "s.workload-a_engine-none", 1.0, nil),
	}
	b := []JobResult{
		mkJob(t, "s.workload-a_engine-pif", 1.30, point), // drifted
		mkJob(t, "s.workload-b_engine-none", 1.0, nil),   // different cell
	}
	d := DiffJobResults(a, b, noise)
	if !d.HasMissing() || !d.HasDrift() {
		t.Fatalf("HasMissing=%v HasDrift=%v", d.HasMissing(), d.HasDrift())
	}
	if len(d.OnlyInA) != 1 || d.OnlyInA[0] != "jobs/s.workload-a_engine-none" {
		t.Fatalf("OnlyInA = %v", d.OnlyInA)
	}
	if len(d.OnlyInB) != 1 || d.OnlyInB[0] != "jobs/s.workload-b_engine-none" {
		t.Fatalf("OnlyInB = %v", d.OnlyInB)
	}
	var found bool
	for _, m := range d.Metrics {
		if m.Path == "jobs/s.workload-a_engine-pif.uipc" {
			found = true
			if m.Within {
				t.Errorf("4%% drift within default tolerance")
			}
		}
	}
	if !found {
		t.Fatalf("per-job uipc drift not reported: %+v", d.Metrics)
	}

	// Identical sets are clean and carry no drift.
	d = DiffJobResults(a, a, Tolerance{})
	if !d.Clean() {
		t.Fatalf("self-diff not clean: %+v", d)
	}
}

// gridArtifact builds a sweep-grid-shaped artifact: nested axis arrays
// whose metric paths look like "sweep-history.pif_cov[1][2]".
func gridArtifact(t *testing.T, id string, bump float64) Artifact {
	t.Helper()
	data := map[string]any{
		"workloads": []string{"OLTP XL", "Web XL"},
		"pif_cov": [][]float64{
			{0.25, 0.78, 0.90},
			{0.28, 0.75, 0.92 + bump},
		},
		"tifs_cov": [][]float64{
			{0.22, 0.61, 0.78},
			{0.25, 0.57, 0.69},
		},
	}
	a, err := NewArtifact(id, "grid", "", data)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestDiffGridPaths locks diffing on sweep-grid metric paths (nested
// axis indices): a moved cell is reported at its exact path and fails a
// tight tolerance, and a looser one absorbs it.
func TestDiffGridPaths(t *testing.T) {
	a := []Artifact{gridArtifact(t, "sweep-history", 0)}
	b := []Artifact{gridArtifact(t, "sweep-history", 0.04)} // one cell moved 4%

	d := DiffArtifacts(a, b, noise)
	if !d.HasDrift() {
		t.Fatal("4% cell drift passed the noise tolerance")
	}
	if len(d.Metrics) != 1 || d.Metrics[0].Path != "sweep-history.pif_cov[1][2]" {
		t.Fatalf("metrics = %+v", d.Metrics)
	}
	if d := DiffArtifacts(a, b, Tolerance{Abs: 0.1}); d.HasDrift() {
		t.Fatalf("0.1 absolute tolerance not applied: %+v", d.Metrics)
	}
}

func TestDiffMerge(t *testing.T) {
	var d Diff
	d.Metrics = append(d.Metrics, MetricDiff{Path: "a.x", Within: true})
	o := Diff{
		OnlyInA:    []string{"jobs/k1"},
		OnlyInB:    []string{"jobs/k2"},
		Metrics:    []MetricDiff{{Path: "jobs/k3.uipc", Within: false}},
		Mismatches: []string{"jobs/k4.name: \"a\" != \"b\""},
	}
	d.Merge(o)
	if !d.HasMissing() || !d.HasDrift() {
		t.Fatalf("merge lost findings: %+v", d)
	}
	if len(d.Metrics) != 2 {
		t.Fatalf("metrics = %d", len(d.Metrics))
	}
}
