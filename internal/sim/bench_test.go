package sim

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/trace"
	"repro/internal/workload"
)

// BenchmarkReplayJob measures end-to-end store replay through RunJob —
// the batch decode path feeding the full simulator (frontend, L1-I,
// prefetcher, polluter). With ReportAllocs, allocations are per run
// (simulator construction, chunk images), not per record; the bench
// pipeline divides by the record count and enforces ~0 allocs/record.
func BenchmarkReplayJob(b *testing.B) {
	wl := workload.OLTPDB2()
	cfg := replayConfig()
	dir := filepath.Join(b.TempDir(), "store")
	recordStore(b, dir, wl, cfg, 1<<14)
	records := cfg.WarmupInstrs + cfg.MeasureInstrs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := RunJob(context.Background(), Job{
			Config:   cfg,
			Workload: wl,
			From:     StoreSource(dir),
			Engine:   prefetch.Spec{Name: "nextline"},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// TestStepSteadyStateAllocs pins the alloc-free hot loop: once a row's
// working structures are warm, a feed batch through the front pass
// (row.pass), the hand-off and the back half (row.phase, stepRuns) must
// not allocate — no issuer boxing, no access-callback closure, no
// per-record buffers, no growth of a reused handoff. Both halves run on
// the test's goroutine, which the ring's buffered channels allow.
// Engines that intentionally grow unbounded metadata (TIFS's miss
// history) are excluded; the baselines here cover the frontend, cache,
// polluter, and prefetch per-access paths, and PIF covers its recording
// pipeline, index, and stream address buffers, whose tables grow only
// up to their configured bounds.
func TestStepSteadyStateAllocs(t *testing.T) {
	wl := workload.OLTPDB2()
	cfg := replayConfig()
	prog, err := workload.BuildProgram(wl)
	if err != nil {
		t.Fatal(err)
	}
	it := workload.NewIterator(prog, cfg.WarmupInstrs+cfg.MeasureInstrs)
	stream, err := trace.Collect(it)
	it.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, pf := range []prefetch.Prefetcher{
		prefetch.None{},
		prefetch.NewNextLine(4),
		core.New(core.DefaultConfig()),
	} {
		r := newRow(context.Background(), []Job{{Config: cfg, Workload: wl}}, []prefetch.Prefetcher{pf})
		// step front-passes one feed batch, hands it over as a phase of
		// its own and steps it.
		step := func(rs []trace.Record) {
			if err := r.pass(rs); err != nil {
				t.Fatal(err)
			}
			r.hand(true, nil)
			if err := r.phase(); err != nil {
				t.Fatal(err)
			}
		}
		// Warm caches, maps, predictor state and every handoff of the
		// ring.
		const chunk = stepBatch
		for i := 0; i+chunk <= len(stream); i += chunk {
			step(stream[i : i+chunk])
		}
		batch := stream[:chunk]
		perRun := testing.AllocsPerRun(20, func() { step(batch) })
		if perRecord := perRun / chunk; perRecord > 0.01 {
			t.Errorf("%s: %.4f allocs/record in steady state (%.1f per %d-record run), want ~0",
				pf.Name(), perRecord, perRun, chunk)
		}
	}
}

// TestLiveRunJobAllocsFlat pins the live drive loop's allocations: with a
// prebuilt Program, a live RunJob allocates its simulator, engine,
// executor and one batch buffer, and nothing per batch or per record, so
// a 16x longer measured interval adds at most the few allocations of
// growing block tables.
func TestLiveRunJobAllocsFlat(t *testing.T) {
	wl := workload.OLTPDB2()
	prog, err := workload.BuildProgram(wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []string{"none", "pif"} {
		allocs := func(measure uint64) float64 {
			cfg := replayConfig()
			cfg.MeasureInstrs = measure
			return testing.AllocsPerRun(2, func() {
				_, err := RunJob(context.Background(), Job{
					Config: cfg, Workload: wl, Program: prog, Engine: prefetch.Spec{Name: e},
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
		short, long := allocs(100_000), allocs(1_600_000)
		if long > short+16 {
			t.Errorf("%s: %.0f allocs measuring 1.6M instructions, %.0f measuring 100K: allocations grow with the interval",
				e, long, short)
		}
	}
}

// TestRowAllocsFlat pins a row's allocations the way
// TestLiveRunJobAllocsFlat pins a job's: a row reuses its front pass's
// run and access buffers across batches, so a 16x longer measured
// interval adds at most the few allocations of growing block tables.
func TestRowAllocsFlat(t *testing.T) {
	wl := workload.OLTPDB2()
	prog, err := workload.BuildProgram(wl)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(measure uint64) float64 {
		cfg := replayConfig()
		cfg.MeasureInstrs = measure
		var jobs []Job
		for _, e := range []string{"none", "nextline", "pif"} {
			jobs = append(jobs, Job{Config: cfg, Workload: wl, Program: prog, Engine: prefetch.Spec{Name: e}})
		}
		return testing.AllocsPerRun(2, func() {
			_, errs := RunRow(context.Background(), jobs)
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	short, long := allocs(100_000), allocs(1_600_000)
	if long > short+3*16 {
		t.Errorf("%.0f allocs measuring 1.6M instructions, %.0f measuring 100K: a row's allocations grow with the interval",
			long, short)
	}
}
