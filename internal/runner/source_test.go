package runner

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"repro/internal/config"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// openerSource is an opaque sim.Source over an iterator factory: it
// reports no SourceInfo and has no wire spec.
type openerSource func() (trace.BatchIterator, error)

// Open implements sim.Source.
func (f openerSource) Open(context.Context) (trace.BatchIterator, sim.SourceInfo, error) {
	it, err := f()
	return it, sim.SourceInfo{}, err
}

// TestPoolReplayFromStore runs the same job live and from a sharded trace
// store through the pool's Source path and asserts identical results —
// the end-to-end wiring of the streaming replay through the execution
// engine, with per-job private sources opened and closed by the pool.
func TestPoolReplayFromStore(t *testing.T) {
	wl := workload.OLTPDB2()
	cfg := sim.Config{
		System:        config.Default(),
		WarmupInstrs:  120_000,
		MeasureInstrs: 80_000,
	}
	prog, err := workload.BuildProgram(wl)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	it := workload.NewIterator(prog, cfg.WarmupInstrs, cfg.MeasureInstrs)
	if _, err := trace.BuildStore(dir, wl.Name, 1<<14, it, cfg.WarmupInstrs, cfg.MeasureInstrs); err != nil {
		t.Fatalf("BuildStore: %v", err)
	}
	it.Close()

	jobs := []Job{
		{Label: "live", Workload: wl, Config: cfg, Engine: prefetch.Spec{Name: "tifs"}},
		{Label: "replay", Workload: wl, Config: cfg, Engine: prefetch.Spec{Name: "tifs"},
			From: sim.StoreSource(dir)},
		{Label: "replay2", Workload: wl, Config: cfg, Engine: prefetch.Spec{Name: "tifs"},
			From: sim.StoreSource(dir)},
	}
	results, err := runLocal(context.Background(), jobs, 3, nil)
	if err != nil {
		t.Fatalf("RunOn: %v", err)
	}
	live, err := json.Marshal(results[0].Sim)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 2} {
		replayed, err := json.Marshal(results[i].Sim)
		if err != nil {
			t.Fatal(err)
		}
		if string(live) != string(replayed) {
			t.Errorf("%s differs from live:\nlive:   %s\nreplay: %s", results[i].Label, live, replayed)
		}
	}
}

// TestPoolSourceOpenFailure asserts a failing source factory surfaces as
// the job's error instead of crashing the pool.
func TestPoolSourceOpenFailure(t *testing.T) {
	wl := workload.OLTPDB2()
	cfg := sim.Config{System: config.Default(), MeasureInstrs: 1000}
	jobs := []Job{{
		Label: "bad-source", Workload: wl, Config: cfg, Engine: prefetch.Spec{Name: "none"},
		From: openerSource(func() (trace.BatchIterator, error) { return trace.OpenStore("/nonexistent/store") }),
	}}
	results, err := runLocal(context.Background(), jobs, 0, nil)
	if err == nil {
		t.Fatal("expected pool error from failing source factory")
	}
	if results[0].Err == nil {
		t.Error("job result should carry the source-open error")
	}
}
