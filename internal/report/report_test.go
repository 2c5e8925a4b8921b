package report

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

type sampleData struct {
	Workloads []string    `json:"workloads"`
	Coverage  []float64   `json:"coverage"`
	CDF       [][]float64 `json:"cdf"`
}

func sample() sampleData {
	return sampleData{
		Workloads: []string{"OLTP DB2", "Web Zeus"},
		Coverage:  []float64{0.913, 0.871},
		CDF:       [][]float64{{0.1, 0.5, 1}, {0.2, 0.6, 1}},
	}
}

func mustArtifact(t *testing.T, id string, data any) Artifact {
	t.Helper()
	a, err := NewArtifact(id, "title of "+id, "rendered "+id+"\n", data)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewArtifactCanonicalizes(t *testing.T) {
	a := mustArtifact(t, "fig2", sample())
	b, err := NewArtifact("fig2", a.Title, a.Text, json.RawMessage(" {\n \"workloads\": [\"OLTP DB2\", \"Web Zeus\"],\n \"coverage\": [0.913, 0.871],\n \"cdf\": [[0.1,0.5,1],[0.2,0.6,1]] } "))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Data, b.Data) {
		t.Errorf("canonical forms differ:\n%s\n%s", a.Data, b.Data)
	}
	if a.SchemaVersion != SchemaVersion {
		t.Errorf("schema version not stamped: %d", a.SchemaVersion)
	}
}

func TestNewArtifactRejectsBadIDs(t *testing.T) {
	// "run" is reserved: an artifact named run would collide with the
	// run.json metadata sidecar.
	for _, id := range []string{"", ".", "..", "../evil", "a/b", "a b", ".hidden", "run", strings.Repeat("x", 65)} {
		if _, err := NewArtifact(id, "t", "x", nil); err == nil {
			t.Errorf("ID %q accepted", id)
		}
	}
	for _, id := range []string{"fig2", "table1", "fig8.left", "a-b_c", "X9"} {
		if _, err := NewArtifact(id, "t", "x", nil); err != nil {
			t.Errorf("ID %q rejected: %v", id, err)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	arts := []Artifact{
		mustArtifact(t, "fig2", sample()),
		mustArtifact(t, "table1", map[string]any{"system": map[string]any{"Cores": 16}}),
	}
	run := Run{
		ID:        "baseline",
		CreatedAt: time.Date(2026, 7, 29, 0, 0, 0, 0, time.UTC),
		Options:   RunOptions{Workloads: []string{"OLTP DB2"}, WarmupInstrs: 100, MeasureInstrs: 50},
		Timings:   []Timing{{ID: "fig2", Nanos: 12345}},
	}
	if err := Save(dir, run, arts, nil); err != nil {
		t.Fatal(err)
	}
	gotRun, gotArts, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if gotRun.ID != "baseline" || gotRun.SchemaVersion != SchemaVersion {
		t.Errorf("run metadata mangled: %+v", gotRun)
	}
	if len(gotRun.Artifacts) != 2 || gotRun.Artifacts[0] != "fig2" || gotRun.Artifacts[1] != "table1" {
		t.Errorf("artifact list = %v", gotRun.Artifacts)
	}
	if !gotRun.CreatedAt.Equal(run.CreatedAt) {
		t.Errorf("created_at = %v", gotRun.CreatedAt)
	}
	if len(gotArts) != len(arts) {
		t.Fatalf("got %d artifacts", len(gotArts))
	}
	for i := range arts {
		if gotArts[i].ID != arts[i].ID || gotArts[i].Title != arts[i].Title || gotArts[i].Text != arts[i].Text {
			t.Errorf("artifact %d fields mangled: %+v", i, gotArts[i])
		}
		if !bytes.Equal(gotArts[i].Data, arts[i].Data) {
			t.Errorf("artifact %d data not round-tripped:\n%s\n%s", i, arts[i].Data, gotArts[i].Data)
		}
	}
	if d := DiffArtifacts(arts, gotArts, Tolerance{}); !d.Clean() {
		t.Errorf("round-tripped run diffs against itself:\n%s", d.Render())
	}
}

func TestSaveDoesNotMutateCallerRun(t *testing.T) {
	arts := []Artifact{mustArtifact(t, "fig2", sample()), mustArtifact(t, "table1", nil)}
	caller := []string{"orig0", "orig1", "orig2"}
	run := Run{ID: "r", Artifacts: caller}
	if err := Save(t.TempDir(), run, arts, nil); err != nil {
		t.Fatal(err)
	}
	if caller[0] != "orig0" || caller[1] != "orig1" || caller[2] != "orig2" {
		t.Errorf("Save overwrote the caller's slice: %v", caller)
	}
}

func TestLoadRejectsMislabeledArtifact(t *testing.T) {
	dir := t.TempDir()
	if err := Save(dir, Run{ID: "r"}, []Artifact{mustArtifact(t, "fig2", sample())}, nil); err != nil {
		t.Fatal(err)
	}
	// A fig3.json whose payload declares a different ID must not load.
	b, err := os.ReadFile(filepath.Join(dir, "fig2.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "fig3.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	runJSON, err := os.ReadFile(filepath.Join(dir, "run.json"))
	if err != nil {
		t.Fatal(err)
	}
	runJSON = bytes.Replace(runJSON, []byte(`"fig2"`), []byte(`"fig3"`), 1)
	if err := os.WriteFile(filepath.Join(dir, "run.json"), runJSON, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "declares ID") {
		t.Errorf("mislabeled artifact accepted: %v", err)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a := mustArtifact(t, "fig2", sample())
	b := mustArtifact(t, "fig2", sample())
	ea, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Error("identical artifacts encode differently")
	}
}

func TestLoadRejectsSchemaMismatch(t *testing.T) {
	dir := t.TempDir()
	a := mustArtifact(t, "fig2", sample())
	if err := Save(dir, Run{ID: "r"}, []Artifact{a}, nil); err != nil {
		t.Fatal(err)
	}
	// Corrupt the artifact's schema version.
	path := filepath.Join(dir, "fig2.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b = bytes.Replace(b, []byte(`"schema_version": 1`), []byte(`"schema_version": 99`), 1)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "schema version") {
		t.Errorf("schema mismatch not rejected: %v", err)
	}
}

func TestLoadRejectsMissingRun(t *testing.T) {
	if _, _, err := Load(t.TempDir()); err == nil {
		t.Error("empty directory accepted as a results directory")
	}
}

func TestStore(t *testing.T) {
	s := Store{Root: filepath.Join(t.TempDir(), "results")}
	arts := []Artifact{mustArtifact(t, "fig2", sample())}
	for _, id := range []string{"runB", "runA"} {
		if err := s.Save(Run{ID: id}, arts); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Save(Run{ID: "../evil"}, arts); err == nil {
		t.Error("path-traversal run ID accepted")
	}
	ids, err := s.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "runA" || ids[1] != "runB" {
		t.Errorf("Runs() = %v", ids)
	}
	run, got, err := s.Load("runA")
	if err != nil {
		t.Fatal(err)
	}
	if run.ID != "runA" || len(got) != 1 || got[0].ID != "fig2" {
		t.Errorf("Load = %+v, %+v", run, got)
	}
	if _, _, err := s.Load("nope/../runA"); err == nil {
		t.Error("path-traversal load accepted")
	}
	empty := Store{Root: filepath.Join(t.TempDir(), "missing")}
	if ids, err := empty.Runs(); err != nil || ids != nil {
		t.Errorf("missing root: %v, %v", ids, err)
	}
}

// noise absorbs float formatting/accumulation noise while failing on any
// behavioral shift, as the golden suite's tolerance does.
var noise = Tolerance{Abs: 1e-12, Rel: 1e-9}

func TestToleranceWithin(t *testing.T) {
	cases := []struct {
		tol  Tolerance
		a, b float64
		want bool
	}{
		{Tolerance{}, 1, 1, true},
		{Tolerance{}, 1, 1.0000001, false},
		{Tolerance{Abs: 1e-3}, 0.5, 0.5005, true},
		{Tolerance{Abs: 1e-3}, 0.5, 0.502, false},
		{Tolerance{Rel: 0.01}, 100, 100.5, true},
		{Tolerance{Rel: 0.01}, 100, 102, false},
		{Tolerance{Rel: 0.01}, 0, 1e-9, false}, // rel undefined at zero without abs
		{Tolerance{Abs: 1e-6}, 0, 1e-9, true},
	}
	for i, c := range cases {
		if got := c.tol.Within(c.a, c.b); got != c.want {
			t.Errorf("case %d: Within(%v, %v) under %+v = %v", i, c.a, c.b, c.tol, got)
		}
	}
}

func TestDiffToleranceAndMismatches(t *testing.T) {
	a := []Artifact{
		mustArtifact(t, "fig2", map[string]any{"coverage": []float64{0.90, 0.80}, "workloads": []string{"A", "B"}}),
		mustArtifact(t, "onlyA", map[string]any{"x": 1.0}),
	}
	b := []Artifact{
		mustArtifact(t, "fig2", map[string]any{"coverage": []float64{0.90000001, 0.70}, "workloads": []string{"A", "C"}}),
		mustArtifact(t, "onlyB", map[string]any{"x": 1.0}),
	}
	d := DiffArtifacts(a, b, Tolerance{Abs: 1e-6})
	if len(d.OnlyInA) != 1 || d.OnlyInA[0] != "onlyA" || len(d.OnlyInB) != 1 || d.OnlyInB[0] != "onlyB" {
		t.Errorf("artifact matching wrong: %v / %v", d.OnlyInA, d.OnlyInB)
	}
	var within, out int
	for _, m := range d.Metrics {
		if m.Within {
			within++
		} else {
			out++
		}
	}
	if within != 1 || out != 1 {
		t.Errorf("metric verdicts: %d within, %d out (want 1/1):\n%s", within, out, d.Render())
	}
	found := false
	for _, mm := range d.Mismatches {
		if strings.Contains(mm, "workloads[1]") {
			found = true
		}
	}
	if !found {
		t.Errorf("non-numeric mismatch not reported: %v", d.Mismatches)
	}
	if !d.OutOfTolerance() {
		t.Error("diff with drift and mismatches reported in tolerance")
	}
	if !strings.Contains(d.Render(), "FAIL") {
		t.Error("render lacks FAIL markers")
	}
}

func TestDiffTypeChange(t *testing.T) {
	a := []Artifact{mustArtifact(t, "x", map[string]any{"v": 1.0})}
	b := []Artifact{mustArtifact(t, "x", map[string]any{"v": "one"})}
	d := DiffArtifacts(a, b, noise)
	if len(d.Mismatches) != 1 || !strings.Contains(d.Mismatches[0], "type changed") {
		t.Errorf("type change not reported: %v", d.Mismatches)
	}
}

func TestDiffEscapesPathMetacharacters(t *testing.T) {
	// {"a.b": 1} and {"a": {"b": 2}} must not collide on the same path.
	a := []Artifact{mustArtifact(t, "x", map[string]any{"a.b": 1.0, "a": map[string]any{"b": 2.0}})}
	b := []Artifact{mustArtifact(t, "x", map[string]any{"a.b": 1.0, "a": map[string]any{"b": 3.0}})}
	d := DiffArtifacts(a, b, Tolerance{})
	if len(d.Metrics) != 1 || d.Metrics[0].Path != "x.a.b" || d.Metrics[0].A != 2 || d.Metrics[0].B != 3 {
		t.Errorf("structural leaf lost to key collision: %+v (mismatches %v)", d.Metrics, d.Mismatches)
	}
	c := []Artifact{mustArtifact(t, "x", map[string]any{"a.b": 9.0, "a": map[string]any{"b": 2.0}})}
	d = DiffArtifacts(a, c, Tolerance{})
	if len(d.Metrics) != 1 || d.Metrics[0].Path != `x.a\.b` || d.Metrics[0].A != 1 || d.Metrics[0].B != 9 {
		t.Errorf("dotted-key leaf lost to collision: %+v (mismatches %v)", d.Metrics, d.Mismatches)
	}
}

func TestDiffIdenticalClean(t *testing.T) {
	arts := []Artifact{mustArtifact(t, "fig2", sample())}
	d := DiffArtifacts(arts, arts, Tolerance{})
	if !d.Clean() || d.OutOfTolerance() {
		t.Errorf("self-diff not clean:\n%s", d.Render())
	}
	if d.Render() != "identical\n" {
		t.Errorf("clean render = %q", d.Render())
	}
}

// TestStoreList covers the run-listing view: entries carry each run's
// creation time and artifact count, sorted by creation time (ties by ID)
// rather than the lexical order Runs keeps, and a directory whose
// run.json cannot be parsed fails the listing loudly instead of being
// silently skipped.
func TestStoreList(t *testing.T) {
	s := Store{Root: t.TempDir()}
	arts := []Artifact{mustArtifact(t, "fig2", sample()), mustArtifact(t, "table1", sample())}
	// IDs chosen so lexical order ("newest" < "oldest") inverts creation
	// order: List must sort by time, Runs lexically.
	times := map[string]time.Time{
		"oldest": time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
		"newest": time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC),
	}
	for id, at := range times {
		if err := s.Save(Run{ID: id, CreatedAt: at}, arts[:1+len(id)%2]); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].ID != "oldest" || infos[1].ID != "newest" {
		t.Fatalf("List() order = %+v, want oldest then newest", infos)
	}
	for _, info := range infos {
		if !info.CreatedAt.Equal(times[info.ID]) {
			t.Errorf("%s: CreatedAt = %v, want %v", info.ID, info.CreatedAt, times[info.ID])
		}
		if want := 1 + len(info.ID)%2; info.Artifacts != want {
			t.Errorf("%s: Artifacts = %d, want %d", info.ID, info.Artifacts, want)
		}
	}
	runs, err := s.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0] != "newest" || runs[1] != "oldest" {
		t.Errorf("Runs() = %v, want lexical order", runs)
	}

	// Directories without run.json (in-progress or foreign) are not runs
	// and stay out of the listing.
	if err := os.MkdirAll(filepath.Join(s.Root, "partial"), 0o755); err != nil {
		t.Fatal(err)
	}
	infos, err = s.List()
	if err != nil || len(infos) != 2 {
		t.Fatalf("List() with partial dir = %+v, %v", infos, err)
	}

	// A torn run.json is an error, not a silent omission.
	if err := os.WriteFile(filepath.Join(s.Root, "partial", "run.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.List(); err == nil {
		t.Error("List() swallowed an unparseable run.json")
	}
}

// TestDiffCodeAndReport pins the machine-readable diff contract to the
// CLI exit codes: Code is 0/1/3 for clean/drift/missing (missing wins
// when both hold — same precedence as `experiments diff`), 2 is reserved
// for load/usage errors and never produced by a computed diff, and the
// report serializes with the diff and rendering intact.
func TestDiffCodeAndReport(t *testing.T) {
	cases := []struct {
		name string
		d    Diff
		code int
	}{
		{"clean", Diff{}, 0},
		{"drift", Diff{Metrics: []MetricDiff{{Path: "x.m", A: 1, B: 2}}}, 1},
		{"mismatch", Diff{Mismatches: []string{"x.m: type changed"}}, 1},
		{"missing", Diff{OnlyInA: []string{"x"}}, 3},
		{"missing-and-drift", Diff{OnlyInB: []string{"y"}, Metrics: []MetricDiff{{Path: "x.m", A: 1, B: 2}}}, 3},
	}
	for _, tc := range cases {
		if got := tc.d.Code(); got != tc.code {
			t.Errorf("%s: Code() = %d, want %d", tc.name, got, tc.code)
		}
		rep := NewDiffReport("a", "b", tc.d)
		if rep.Code != tc.code || rep.A != "a" || rep.B != "b" {
			t.Errorf("%s: report = {Code %d A %q B %q}", tc.name, rep.Code, rep.A, rep.B)
		}
		if rep.Text != tc.d.Render() {
			t.Errorf("%s: report text %q != render %q", tc.name, rep.Text, tc.d.Render())
		}
		blob, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		var back DiffReport
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatal(err)
		}
		if back.Code != tc.code || back.Diff.Code() != tc.code {
			t.Errorf("%s: roundtrip code %d (diff %d), want %d", tc.name, back.Code, back.Diff.Code(), tc.code)
		}
	}
}
