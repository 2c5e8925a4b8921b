package report

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// crashAfter installs the crashBeforeRename seam so that the n-th atomic
// write (0-based) dies between writing its temp file and renaming it into
// place — the same observable state as a writer SIGKILLed at that point,
// except the abandoned temp file is left behind for the test to find.
func crashAfter(t *testing.T, n int) {
	t.Helper()
	calls := 0
	crashBeforeRename = func(string) bool {
		calls++
		return calls-1 == n
	}
	t.Cleanup(func() { crashBeforeRename = nil })
}

// tempFiles returns the names of abandoned atomic-write temp files in dir
// (a missing dir has none).
func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var tmps []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".") && strings.Contains(e.Name(), ".tmp-") {
			tmps = append(tmps, e.Name())
		}
	}
	return tmps
}

// runTempFiles returns the abandoned temps of a run directory and its
// jobs/ subdirectory.
func runTempFiles(t *testing.T, dir string) []string {
	return append(tempFiles(t, dir), tempFiles(t, JobsDir(dir))...)
}

func crashTestRun(t *testing.T) (Run, []Artifact, []JobResult, int) {
	run := Run{ID: "crash", CreatedAt: time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC)}
	arts := []Artifact{{SchemaVersion: SchemaVersion, ID: "fig2"}, {SchemaVersion: SchemaVersion, ID: "table1"}}
	job, err := NewJobResult("sweep.cell-a", "cell a", nil, map[string]float64{"uipc": 1.5})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []JobResult{job}
	return run, arts, jobs, len(arts) + len(jobs) + 1 // artifacts + jobs + run.json
}

// TestSaveCrashAtEveryWrite kills Save at each of its writes in turn and
// checks the crash-safety contract: Load never accepts the directory as a
// complete run, and the abandoned temp file is visible for cleanup tooling
// but never shadows a real artifact or job.
func TestSaveCrashAtEveryWrite(t *testing.T) {
	run, arts, jobs, writes := crashTestRun(t)
	for k := 0; k < writes; k++ {
		dir := t.TempDir()
		crashAfter(t, k)
		err := Save(dir, run, arts, jobs)
		if !errors.Is(err, errSimulatedCrash) {
			t.Fatalf("crash at write %d: Save error = %v", k, err)
		}
		if _, _, err := Load(dir); err == nil {
			t.Errorf("crash at write %d: Load accepted a partial run directory", k)
		}
		if tmps := runTempFiles(t, dir); len(tmps) != 1 {
			t.Errorf("crash at write %d: temp files = %v, want exactly one abandoned temp", k, tmps)
		}
		if _, err := os.Stat(filepath.Join(dir, runFile)); !os.IsNotExist(err) {
			// run.json may only exist once everything else does; a crash at
			// any write (including run.json's own) must leave it absent.
			t.Errorf("crash at write %d: run.json exists (stat err = %v)", k, err)
		}
	}
}

// TestSaveCrashDuringOverwrite crashes Save while it overwrites an existing
// complete run directory: the stale run.json must already be gone, so Load
// cannot serve a chimera of old manifest + new artifacts.
func TestSaveCrashDuringOverwrite(t *testing.T) {
	run, arts, jobs, writes := crashTestRun(t)
	for k := 0; k < writes; k++ {
		dir := t.TempDir()
		if err := Save(dir, run, arts, jobs); err != nil {
			t.Fatal(err)
		}
		crashAfter(t, k)
		if err := Save(dir, run, arts, jobs); !errors.Is(err, errSimulatedCrash) {
			t.Fatalf("crash at write %d: Save error = %v", k, err)
		}
		if _, _, err := Load(dir); err == nil {
			t.Errorf("crash at write %d of overwrite: Load accepted the directory", k)
		}
	}
}

// TestSaveLeavesNoTempFiles scans a successfully saved run directory for
// leftover atomic-write temps.
func TestSaveLeavesNoTempFiles(t *testing.T) {
	run, arts, jobs, _ := crashTestRun(t)
	dir := t.TempDir()
	if err := Save(dir, run, arts, jobs); err != nil {
		t.Fatal(err)
	}
	if tmps := runTempFiles(t, dir); len(tmps) != 0 {
		t.Errorf("temp files left after successful Save: %v", tmps)
	}
	if _, _, err := Load(dir); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadJobResults(dir); err != nil || len(got) != len(jobs) {
		t.Fatalf("LoadJobResults = %d jobs, err = %v; want %d", len(got), err, len(jobs))
	}
}

// TestWriteJobResultCrash checks the streamed per-job write path: a killed
// writer leaves only a temp file that LoadJobResults ignores, and a
// successful retry lands the job atomically.
func TestWriteJobResultCrash(t *testing.T) {
	runDir := t.TempDir()
	dir := JobsDir(runDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	j, err := NewJobResult("sweep.cell-a", "cell a", map[string]string{"engine": "pif"}, map[string]float64{"uipc": 1.5})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, j.Key+".json")
	crashAfter(t, 0)
	if err := WriteJobResult(path, j); !errors.Is(err, errSimulatedCrash) {
		t.Fatalf("WriteJobResult error = %v", err)
	}
	if jobs, err := LoadJobResults(runDir); err != nil || len(jobs) != 0 {
		t.Fatalf("after crash: jobs = %v, err = %v; want none", jobs, err)
	}
	if tmps := tempFiles(t, dir); len(tmps) != 1 {
		t.Fatalf("temp files after crash = %v, want one", tmps)
	}
	// Retry (the seam only fires once) must succeed and round-trip.
	if err := WriteJobResult(path, j); err != nil {
		t.Fatal(err)
	}
	jobs, err := LoadJobResults(runDir)
	if err != nil || len(jobs) != 1 || jobs[0].Key != j.Key {
		t.Fatalf("after retry: jobs = %v, err = %v", jobs, err)
	}
}

// TestWriteFileAtomicCleansUpOnError checks that a failed rename does not
// leave the temp file behind.
func TestWriteFileAtomicCleansUpOnError(t *testing.T) {
	dir := t.TempDir()
	// Renaming onto a path whose parent was removed mid-flight is hard to
	// arrange portably; instead make the destination un-renamable by making
	// it a non-empty directory.
	dst := filepath.Join(dir, "occupied")
	if err := os.MkdirAll(filepath.Join(dst, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeFileAtomic(dst, []byte("{}")); err == nil {
		t.Fatal("writeFileAtomic over a non-empty directory succeeded")
	}
	if tmps := tempFiles(t, dir); len(tmps) != 0 {
		t.Errorf("temp files left after failed rename: %v", tmps)
	}
}
