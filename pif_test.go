package pif

import (
	"context"
	"testing"

	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/workload"
)

// These tests exercise the library surface end to end the way a
// downstream user would.

// TestWorkloadsSuite checks the exported workloads are the registry
// profiles of their names, so a store recorded by cmd/tracegen replays
// under them.
func TestWorkloadsSuite(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range []Workload{OLTPDB2(), OLTPOracle(), WebApache(), WebZeus()} {
		got, err := workload.ByName(w.Name)
		if err != nil || got != w {
			t.Errorf("workload %q is not its registry profile: %v", w.Name, err)
		}
		if seen[w.Name] {
			t.Errorf("workload %q exported twice", w.Name)
		}
		seen[w.Name] = true
	}
}

func TestSimulatePublicAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test skipped in -short mode")
	}
	cfg := DefaultSimConfig()
	cfg.WarmupInstrs = 1_000_000
	cfg.MeasureInstrs = 300_000
	wl := WebZeus()

	base, err := Simulate(cfg, wl, NoPrefetch())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(cfg, wl, NewPIF(DefaultPIFConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Prefetcher != "PIF" {
		t.Errorf("Prefetcher = %s", res.Prefetcher)
	}
	if res.UIPC <= base.UIPC {
		t.Errorf("PIF UIPC %.3f <= baseline %.3f", res.UIPC, base.UIPC)
	}
	if res.Coverage() <= 0.5 {
		t.Errorf("coverage = %.3f", res.Coverage())
	}
}

// TestJobsAPIParallelDeterminism runs the public simulation entry point
// as one job list through pools of width 1 and 8: three workloads
// crossed with the baselines and PIF, a fresh engine per job, must give
// identical results slices. State shared between concurrent Simulate
// calls would show as a serial/parallel difference.
func TestJobsAPIParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism test skipped in -short mode")
	}
	cfg := DefaultSimConfig()
	cfg.WarmupInstrs = 200_000
	cfg.MeasureInstrs = 200_000
	engines := []func() Prefetcher{
		NoPrefetch,
		func() Prefetcher { return NewNextLine(4) },
		NewTIFS,
		func() Prefetcher { return NewPIF(DefaultPIFConfig()) },
	}
	type job struct {
		wl     Workload
		engine func() Prefetcher
	}
	var jobs []job
	for _, wl := range []Workload{OLTPDB2(), OLTPOracle(), WebApache()} {
		for _, e := range engines {
			jobs = append(jobs, job{wl, e})
		}
	}
	run := func(workers int) []SimResult {
		out := make([]SimResult, len(jobs))
		err := runner.ForEach(context.Background(), workers, len(jobs), func(i int) error {
			var err error
			out[i], err = Simulate(cfg, jobs[i].wl, jobs[i].engine())
			return err
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}
	serial, parallel := run(1), run(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("job %d (%s/%s): parallel result differs from serial",
				i, serial[i].Workload, serial[i].Prefetcher)
		}
	}
}

func TestBaselineConstructors(t *testing.T) {
	if NewNextLine(4).Name() != "Next-Line" {
		t.Error("NewNextLine name")
	}
	if NewTIFS().Name() != "TIFS" {
		t.Error("NewTIFS name")
	}
	if NoPrefetch().Name() != "None" {
		t.Error("NoPrefetch name")
	}
	if NewPIF(DefaultPIFConfig()).Name() != "PIF" {
		t.Error("NewPIF name")
	}
}

func TestDefaultConfigsSane(t *testing.T) {
	if err := DefaultSimConfig().System.Validate(); err != nil {
		t.Errorf("DefaultSimConfig system invalid: %v", err)
	}
	if err := DefaultPIFConfig().Validate(); err != nil {
		t.Errorf("DefaultPIFConfig invalid: %v", err)
	}
	pcfg := DefaultPIFConfig()
	if pcfg.Geometry.Size() != 8 {
		t.Errorf("default region size = %d, want 8", pcfg.Geometry.Size())
	}
	if pcfg.HistoryRegions != 32<<10 {
		t.Errorf("default history = %d, want 32K", pcfg.HistoryRegions)
	}
	if pcfg.NumSABs != 4 || pcfg.SABWindow != 7 {
		t.Errorf("default SABs = %d/%d, want 4/7", pcfg.NumSABs, pcfg.SABWindow)
	}
}

// TestSourceBackendPublicAPI exercises the source pipeline end to end
// the way a downstream user would: record a store, derive a window, and
// run the same simulation live and from the store and the window — all
// paths byte-identical.
func TestSourceBackendPublicAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test skipped in -short mode")
	}
	wl := OLTPDB2()
	cfg := DefaultSimConfig()
	cfg.WarmupInstrs = 120_000
	cfg.MeasureInstrs = 80_000
	total := cfg.WarmupInstrs + cfg.MeasureInstrs

	dir := t.TempDir() + "/store"
	prog, err := workload.BuildProgram(wl)
	if err != nil {
		t.Fatal(err)
	}
	it := workload.NewIterator(prog, cfg.WarmupInstrs, cfg.MeasureInstrs)
	n, err := trace.BuildStore(dir, wl.Name, 1<<14, it, cfg.WarmupInstrs, cfg.MeasureInstrs)
	it.Close()
	if err != nil || n != total {
		t.Fatalf("BuildStore = %d, %v", n, err)
	}

	live, err := Simulate(cfg, wl, NewTIFS())
	if err != nil {
		t.Fatal(err)
	}
	w, err := ParseTraceWindow("0:200000")
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]Source{
		"store": StoreSource(dir),
		"slice": SliceSource(dir, w),
	} {
		got, err := SimulateSource(cfg, wl, src, NewTIFS())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != live {
			t.Errorf("%s source result differs from live", name)
		}
	}

	// A window past the recorded range is a hard error.
	if _, err := SimulateSource(cfg, wl, SliceSource(dir, TraceWindow{Off: total, Len: 1}), NewTIFS()); err == nil {
		t.Error("out-of-range slice accepted")
	}
}
