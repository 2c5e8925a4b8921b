package sweep

import (
	"context"
	"encoding/json"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/prefetch"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestSourceAxis locks the source axis kind: a (workload × source) grid
// whose source axis mixes live execution and trace-store replay must
// wire each cell's source into its job, bind it against the cell's final
// settings regardless of axis order, and produce identical results on
// the live and replay cells.
func TestSourceAxis(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test skipped in -short mode")
	}
	wl := tinyProfile("Tiny Src", 7)
	cfg := tinySim()
	prog, err := workload.BuildProgram(wl)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	it := workload.NewIterator(prog, cfg.WarmupInstrs, cfg.MeasureInstrs)
	if _, err := trace.BuildStore(dir, wl.Name, 1<<12, it, cfg.WarmupInstrs, cfg.MeasureInstrs); err != nil {
		t.Fatal(err)
	}
	it.Close()

	// The source axis precedes the workload axis on purpose: Expand binds
	// the store choice once every axis has applied, so axis order must
	// not matter.
	spec := Spec{
		Name:       "src",
		Base:       cfg,
		BaseEngine: prefetch.Spec{Name: "nextline"},
		Axes: []Axis{
			SourceAxis("source", []SourceChoice{
				{Key: "live"},
				{Key: "store", New: func(s *Settings) sim.Source {
					if s.Workload.Name != wl.Name {
						t.Errorf("source bound before the workload applied: %q", s.Workload.Name)
					}
					return sim.StoreSource(dir)
				}},
			}),
			WorkloadAxis("workload", []workload.Profile{wl}),
		},
	}
	g, err := Run(PoolEngine{Workers: 2}, spec)
	if err != nil {
		t.Fatal(err)
	}
	liveCell, err := g.At("source", "live", "workload", KeyOf(wl.Name))
	if err != nil {
		t.Fatal(err)
	}
	if liveCell.Settings.From != nil {
		t.Error("live cell carries a source")
	}
	storeCell, err := g.At("source", "store", "workload", KeyOf(wl.Name))
	if err != nil {
		t.Fatal(err)
	}
	if storeCell.Settings.From == nil {
		t.Fatal("store cell has no source")
	}
	live, err := json.Marshal(g.Results[liveCell.Index].Sim)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := json.Marshal(g.Results[storeCell.Index].Sim)
	if err != nil {
		t.Fatal(err)
	}
	if string(live) != string(replay) {
		t.Errorf("store-source cell differs from live cell:\nlive:  %s\nstore: %s", live, replay)
	}
}

// countingBackend wraps runner's local backend, counting submitted
// jobs — the stand-in for a custom Backend implementation.
type countingBackend struct {
	*runner.LocalBackend
	submits atomic.Int32
}

func (b *countingBackend) Submit(ctx context.Context, idx []int, jobs []runner.Job) error {
	b.submits.Add(int32(len(jobs)))
	return b.LocalBackend.Submit(ctx, idx, jobs)
}

// TestEngineBackendOption proves sweep.Run executes through whatever
// backend the engine selects: a PoolEngine with an explicit Backend
// routes every cell through it, and the grid's results match a default
// in-process run byte for byte.
func TestEngineBackendOption(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test skipped in -short mode")
	}
	b := &countingBackend{LocalBackend: runner.NewLocalBackend(2)}
	defer b.Close()
	spec := testSpec()
	g, err := Run(PoolEngine{Backend: b}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if int(b.submits.Load()) != g.Size() {
		t.Errorf("backend saw %d submits, want %d", b.submits.Load(), g.Size())
	}
	ref, err := Run(PoolEngine{Workers: 2}, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Results {
		if g.Results[i].Sim != ref.Results[i].Sim {
			t.Errorf("cell %d: custom-backend result differs from default run", i)
		}
	}
}
