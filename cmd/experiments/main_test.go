package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/expsvc"
	"repro/internal/report"
)

// TestDiffExitCodes runs `experiments diff` over pairs of sides — local
// run directories, runs on an experiment service, or one of each — and
// checks the exit-code contract: 0 identical, 1 drift, 2 load error, 3
// artifact/job sets differ. Every run lives in one root that is both a
// local directory tree and the service's database, so a local side and a
// service side can name the same run.
func TestDiffExitCodes(t *testing.T) {
	root := t.TempDir()
	store := report.Store{Root: root}
	save := func(id string, uipc float64, withSets bool) string {
		t.Helper()
		var (
			arts []report.Artifact
			jobs []report.JobResult
		)
		if withSets {
			art, err := report.NewArtifact("sweep", "t", "", map[string]float64{"uipc": uipc})
			if err != nil {
				t.Fatal(err)
			}
			job, err := report.NewJobResult("sweep.cell", "cell", nil, map[string]float64{"uipc": uipc})
			if err != nil {
				t.Fatal(err)
			}
			arts, jobs = []report.Artifact{art}, []report.JobResult{job}
		}
		if err := report.Save(store.Dir(id), report.Run{ID: id, CreatedAt: time.Now().UTC()}, arts, jobs); err != nil {
			t.Fatal(err)
		}
		return store.Dir(id)
	}
	base := save("base", 1, true)
	same := save("same", 1, true)
	drifted := save("drifted", 2, true)
	empty := save("empty", 0, false)
	corrupt := save("corrupt", 1, true)
	if err := os.WriteFile(filepath.Join(report.JobsDir(corrupt), "sweep.bad.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	absent := filepath.Join(root, "absent")

	svc, err := expsvc.New(expsvc.Config{DBDir: root})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(expsvc.NewServer(svc))
	defer ts.Close()
	withSvc := func(args ...string) []string { return append([]string{"-svc", ts.URL}, args...) }

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"identical dirs", []string{base, same}, 0},
		{"identical service runs", withSvc("base", "same"), 0},
		{"service run vs identical dir", withSvc("base", same), 0},
		{"json service run vs identical dir", append([]string{"-json"}, withSvc("base", same)...), 0},
		{"drifted dir", []string{base, drifted}, 1},
		{"service run vs drifted dir", withSvc("base", drifted), 1},
		{"drifted service run", withSvc("drifted", "base"), 1},
		{"dir sets differ", []string{base, empty}, 3},
		{"service sets differ", withSvc("base", "empty"), 3},
		{"absent dir", []string{base, absent}, 2},
		{"absent service run", withSvc("base", "absent"), 2},
		{"corrupt jobs dir", []string{base, corrupt}, 2},
		{"corrupt jobs dir with -svc", withSvc("base", corrupt), 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := diffMain(c.args); got != c.want {
				t.Errorf("experiments diff %q exited %d, want %d", c.args, got, c.want)
			}
		})
	}
}
