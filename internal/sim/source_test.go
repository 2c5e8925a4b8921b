package sim

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/prefetch"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runJSON runs a job and returns its result as canonical JSON.
func runJSON(t *testing.T, j Job) string {
	t.Helper()
	res, err := RunJob(context.Background(), j)
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// openerSource is an opaque Source over an iterator factory: it reports
// no SourceInfo and has no wire spec.
type openerSource func() (trace.BatchIterator, error)

// Open implements Source.
func (f openerSource) Open(context.Context) (trace.BatchIterator, SourceInfo, error) {
	it, err := f()
	return it, SourceInfo{}, err
}

// TestSourcePathsIdentical is the source-API acceptance bar: the same
// simulation driven (1) live with no source, (2) by a StoreSource over a
// recorded store, (3) by a whole-store SliceSource, and (4) by an opaque
// source around a bare store iterator must produce identical sim.Result
// JSON.
func TestSourcePathsIdentical(t *testing.T) {
	wl := workload.OLTPDB2()
	cfg := replayConfig()
	dir := filepath.Join(t.TempDir(), "store")
	recordStore(t, dir, wl, cfg, 1<<14)
	engine := prefetch.Spec{Name: "nextline"}
	total := cfg.WarmupInstrs + cfg.MeasureInstrs

	live := runJSON(t, Job{Config: cfg, Workload: wl, Engine: engine})

	variants := map[string]Job{
		"store-source": {Config: cfg, Workload: wl, From: StoreSource(dir), Engine: engine},
		"slice-source": {Config: cfg, Workload: wl, From: SliceSource(dir, trace.Window{Off: 0, Len: total}), Engine: engine},
		"opener-source": {Config: cfg, Workload: wl, Engine: engine,
			From: openerSource(func() (trace.BatchIterator, error) { return trace.OpenStore(dir) })},
	}
	for name, j := range variants {
		if got := runJSON(t, j); got != live {
			t.Errorf("%s differs from live:\nlive: %s\ngot:  %s", name, live, got)
		}
	}
}

// TestSliceSourceSubRange locks the slice-replay determinism contract at
// the simulator level: measuring window [off, off+len) through a
// SliceSource equals feeding the identical sub-range of a full-store
// read, for a window spanning several chunk boundaries.
func TestSliceSourceSubRange(t *testing.T) {
	wl := workload.OLTPDB2()
	cfg := replayConfig()
	dir := filepath.Join(t.TempDir(), "store")
	recordStore(t, dir, wl, cfg, 1<<13) // ~30 chunks

	w := trace.Window{Off: 50_000, Len: 120_000} // spans many 8K chunks
	wcfg := cfg
	wcfg.WarmupInstrs = 40_000
	wcfg.MeasureInstrs = 80_000 // warmup+measure == window length
	engine := prefetch.Spec{Name: "nextline"}

	viaSlice := runJSON(t, Job{Config: wcfg, Workload: wl, From: SliceSource(dir, w), Engine: engine})

	r, err := trace.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	full, err := trace.Collect(r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	sub := full[w.Off:w.End()]
	viaMemory := runJSON(t, Job{Config: wcfg, Workload: wl, Engine: engine,
		From: openerSource(func() (trace.BatchIterator, error) { return sub.Iter(), nil })})
	if viaSlice != viaMemory {
		t.Errorf("slice replay differs from in-memory sub-range:\nslice:  %s\nmemory: %s", viaSlice, viaMemory)
	}
}

// TestSourceValidation covers RunJob's up-front source checks: short
// windows, workload mismatches and out-of-range slices are hard errors
// before (or instead of) a short simulation.
func TestSourceValidation(t *testing.T) {
	wl := workload.OLTPDB2()
	cfg := replayConfig()
	dir := filepath.Join(t.TempDir(), "store")
	recordStore(t, dir, wl, cfg, 1<<14)
	engine := prefetch.Spec{Name: "none"}
	total := cfg.WarmupInstrs + cfg.MeasureInstrs

	// A slice shorter than warmup+measure fails up front with the record
	// budget in the message.
	_, err := RunJob(context.Background(), Job{
		Config: cfg, Workload: wl,
		From:   SliceSource(dir, trace.Window{Off: 0, Len: total / 2}),
		Engine: engine,
	})
	if err == nil || !strings.Contains(err.Error(), "need") {
		t.Errorf("short slice error = %v, want record-budget error", err)
	}

	// An out-of-range window is a hard open error.
	_, err = RunJob(context.Background(), Job{
		Config: cfg, Workload: wl,
		From:   SliceSource(dir, trace.Window{Off: total, Len: 1}),
		Engine: engine,
	})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range slice error = %v, want out-of-range error", err)
	}

	// A store recorded from another workload cannot be replayed under
	// this job's profile.
	other := workload.WebApache()
	_, err = RunJob(context.Background(), Job{
		Config: cfg, Workload: other,
		From:   StoreSource(dir),
		Engine: engine,
	})
	if err == nil || !strings.Contains(err.Error(), "recorded from") {
		t.Errorf("workload-mismatch error = %v", err)
	}
}

// TestSourceEOFStillHardError keeps the short-source contract on the new
// path: an opaque source around a short iterator (no record metadata to
// pre-validate) still fails with io.ErrUnexpectedEOF mid-run.
func TestSourceEOFStillHardError(t *testing.T) {
	wl := workload.OLTPDB2()
	cfg := replayConfig()
	short := make(trace.Stream, 1000)
	_, err := RunJob(context.Background(), Job{
		Config:   cfg,
		Workload: wl,
		From:     openerSource(func() (trace.BatchIterator, error) { return short.Iter(), nil }),
		Engine:   prefetch.Spec{Name: "none"},
	})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("short opener source error = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestSourceWorkloadAdoption locks the profile-resolution rule: replay
// sources carry no profile, so a job with a source and no workload is a
// hard error, never a silent seed-0 run.
func TestSourceWorkloadAdoption(t *testing.T) {
	wl := workload.OLTPDB2()
	cfg := replayConfig()
	engine := prefetch.Spec{Name: "nextline"}

	dir := filepath.Join(t.TempDir(), "store")
	recordStore(t, dir, wl, cfg, 1<<14)
	_, err := RunJob(context.Background(), Job{Config: cfg, From: StoreSource(dir), Engine: engine})
	if err == nil || !strings.Contains(err.Error(), "workload") {
		t.Errorf("replay without a workload profile = %v, want a hard error", err)
	}
}
