package bench

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// smallRunnerConfig keeps the suite-under-test fast, mirroring
// smallConfig: structure and comparison rules are pinned here, the
// committed artifact's invariants are enforced by CI on the default
// fixture.
func smallRunnerConfig() RunnerConfig {
	return RunnerConfig{
		Workloads:     []string{"DSS Qry2", "Web Zeus"},
		Engines:       []string{"pif", "none"},
		WarmupInstrs:  20_000,
		MeasureInstrs: 10_000,
		Parallel:      2,
	}
}

// TestRunGridReleasesWorkers runs a tiny grid several times on a
// four-worker backend and requires the goroutine count to return to its
// starting value: every operation closes its backend.
func TestRunGridReleasesWorkers(t *testing.T) {
	cfg := smallRunnerConfig()
	cfg.WarmupInstrs, cfg.MeasureInstrs = 2_000, 1_000
	jobs, err := runnerJobs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if err := runGrid(jobs, 4); err != nil {
			t.Fatal(err)
		}
	}
	// A closed backend's workers exit asynchronously.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after five grid runs, %d before: the runs leak backend workers", n, before)
	}
}

// TestLoopbackFleetReleases runs the remote row twice on a loopback
// fleet and requires the goroutine count to return to its starting
// value once the fleet is closed: no worker, server or poller outlives
// the suite.
func TestLoopbackFleetReleases(t *testing.T) {
	cfg := smallRunnerConfig()
	cfg.WarmupInstrs, cfg.MeasureInstrs = 2_000, 1_000
	jobs, err := runnerJobs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	f, err := startFleet()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := f.runGrid(rowJobs(jobs[0])); err != nil {
			t.Fatal(err)
		}
	}
	f.close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the fleet closed, %d before", n, before)
	}
}

func TestRunRunnerArtifactStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real benchmark suite")
	}
	a, err := RunRunner(smallRunnerConfig(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if a.Schema != SchemaVersion {
		t.Errorf("schema = %d, want %d", a.Schema, SchemaVersion)
	}
	want := []string{"remote/row", "runner/jobs_parallel_2", "runner/jobs_serial", "runner/row_local", "runner/spec_resolve", "workload/build"}
	got := a.Names()
	if len(got) != len(want) {
		t.Fatalf("benchmarks = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("benchmarks = %v, want %v", got, want)
		}
	}
	for _, m := range a.Benchmarks {
		if m.NsPerOp <= 0 {
			t.Errorf("%s: ns/op = %f", m.Name, m.NsPerOp)
		}
		if (strings.HasPrefix(m.Name, "runner/") || strings.HasPrefix(m.Name, "remote/")) && m.JobsPerSec <= 0 {
			t.Errorf("%s: jobs/s = %f, want > 0", m.Name, m.JobsPerSec)
		}
	}
	if a.Derived.ParallelSpeedup <= 0 || a.Derived.ResolveOverhead <= 0 || a.Derived.RemoteOverhead <= 0 {
		t.Errorf("derived ratios = %+v, want > 0", a.Derived)
	}
	if build, _ := a.find("workload/build"); build.AllocsPerOp > MaxBuildAllocs {
		t.Errorf("workload/build makes %.0f allocations per build, above the %d ceiling", build.AllocsPerOp, MaxBuildAllocs)
	}

	// Freshness: identical structure passes; any structural drift fails.
	if err := CheckRunnerFresh(a, a); err != nil {
		t.Errorf("self-comparison: %v", err)
	}
	mutated := a
	mutated.Config.Parallel++
	if err := CheckRunnerFresh(mutated, a); err == nil {
		t.Error("config drift not detected")
	}
	mutated = a
	mutated.Schema++
	if err := CheckRunnerFresh(mutated, a); err == nil {
		t.Error("schema drift not detected")
	}
	mutated = a
	mutated.Benchmarks = append([]Measurement{}, a.Benchmarks[1:]...)
	if err := CheckRunnerFresh(mutated, a); err == nil {
		t.Error("benchmark-set drift not detected")
	}
}

func TestCheckRunnerInvariants(t *testing.T) {
	good := RunnerArtifact{
		Schema:     SchemaVersion,
		Benchmarks: []Measurement{{Name: "workload/build", NsPerOp: 4e6, AllocsPerOp: 25}},
		Derived:    RunnerDerived{ParallelSpeedup: 1.5, ResolveOverhead: 0.005, RemoteOverhead: 1.3},
	}
	if err := CheckRunnerInvariants(good); err != nil {
		t.Errorf("good artifact rejected: %v", err)
	}
	heavy := good
	heavy.Derived.ResolveOverhead = 0.2
	if err := CheckRunnerInvariants(heavy); err == nil {
		t.Error("heavyweight spec resolution accepted")
	}
	broken := good
	broken.Derived.ParallelSpeedup = 0
	if err := CheckRunnerInvariants(broken); err == nil {
		t.Error("non-positive parallel speedup accepted")
	}
	for _, overhead := range []float64{0, MaxRemoteOverhead * 1.01} {
		slow := good
		slow.Derived.RemoteOverhead = overhead
		if err := CheckRunnerInvariants(slow); err == nil {
			t.Errorf("a remote row at %.2fx the local row accepted", overhead)
		}
	}
	allocating := good
	allocating.Benchmarks = []Measurement{{Name: "workload/build", NsPerOp: 4e6, AllocsPerOp: 27753}}
	if err := CheckRunnerInvariants(allocating); err == nil {
		t.Error("a program build of 27753 allocations accepted")
	}
	unmeasured := good
	unmeasured.Benchmarks = nil
	if err := CheckRunnerInvariants(unmeasured); err == nil {
		t.Error("an artifact without workload/build accepted")
	}
}
