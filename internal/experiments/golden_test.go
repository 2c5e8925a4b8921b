package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/report"
)

// update rewrites the golden fixtures from the current code instead of
// comparing against them:
//
//	go test ./internal/experiments -run TestGolden -update
var update = flag.Bool("update", false, "rewrite testdata/golden fixtures from the current code")

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".json")
}

// TestGolden is the regression lock on the reproduced numbers: every
// registered artifact, regenerated at QuickOptions scale, must match its
// committed fixture in testdata/golden metric for metric (default
// tolerances: 1e-12 absolute / 1e-9 relative) and byte for byte in the
// rendered text. Any change to simulator, predictor, or workload code that
// shifts a reproduced number fails here with a per-metric diff; refresh
// intentional shifts with -update.
//
// Because the simulation is deterministic and the fixtures were generated
// by a separate process, a passing run also proves that repeated RunAll
// passes at QuickOptions serialize byte-identically.
func TestGolden(t *testing.T) {
	e := testEnv(t)
	if *update {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			rep, err := Run(e, id)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Data == nil {
				t.Fatalf("%s: report carries no structured data", id)
			}
			art, err := rep.Artifact()
			if err != nil {
				t.Fatal(err)
			}
			if *update {
				if err := report.WriteArtifact(goldenPath(id), art); err != nil {
					t.Fatal(err)
				}
				return
			}
			golden, err := report.ReadArtifact(goldenPath(id))
			if err != nil {
				t.Fatalf("golden fixture unreadable (regenerate with `go test ./internal/experiments -run TestGolden -update`): %v", err)
			}
			d := report.DiffArtifacts([]report.Artifact{golden}, []report.Artifact{art}, report.Tolerance{Abs: 1e-12, Rel: 1e-9})
			if d.OutOfTolerance() {
				t.Errorf("%s drifted from golden fixture:\n%s", id, d.Render())
			}
			if golden.Title != art.Title {
				t.Errorf("%s title drifted: %q -> %q", id, golden.Title, art.Title)
			}
			if golden.Text != art.Text {
				t.Errorf("%s rendered text drifted from golden fixture\ngolden:\n%s\ncurrent:\n%s", id, golden.Text, art.Text)
			}
		})
	}
}

// TestGoldenFixturesComplete fails fast (even in -short mode) when the
// registry and the fixture directory disagree in either direction: a
// registered artifact with no committed fixture (experiment added without
// extending the suite) or a fixture with no registered artifact (the
// -update/git-diff CI check cannot see orphans, since -update only
// rewrites registered IDs).
func TestGoldenFixturesComplete(t *testing.T) {
	if *update {
		t.Skip("fixtures are being rewritten")
	}
	registered := make(map[string]bool)
	for _, id := range IDs() {
		registered[id] = true
		if _, err := os.Stat(goldenPath(id)); err != nil {
			t.Errorf("artifact %s has no golden fixture (run `go test ./internal/experiments -run TestGolden -update`): %v", id, err)
		}
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		id := strings.TrimSuffix(e.Name(), ".json")
		if !registered[id] {
			t.Errorf("fixture %s has no registered artifact; delete the orphan", e.Name())
		}
	}
}
