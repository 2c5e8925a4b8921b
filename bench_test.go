// Benchmarks regenerating each of the paper's evaluation artifacts
// (BenchmarkTable1, BenchmarkFig2 … BenchmarkFig10) at a reduced scale,
// plus micro-benchmarks of the PIF pipeline stages. Run with:
//
//	go test -bench=. -benchmem
package pif

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/prefetch"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchOptions is a small-but-meaningful scale so each figure bench
// completes in seconds while exercising the full pipeline.
func benchOptions() experiments.Options {
	opts := experiments.QuickOptions()
	opts.Workloads = []workload.Profile{workload.OLTPDB2(), workload.WebApache()}
	opts.WarmupInstrs = 1_500_000
	opts.MeasureInstrs = 500_000
	return opts
}

func benchArtifact(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(benchOptions())
		if _, err := experiments.Run(env, id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchArtifact(b, "table1") }
func BenchmarkFig2(b *testing.B)   { benchArtifact(b, "fig2") }
func BenchmarkFig3(b *testing.B)   { benchArtifact(b, "fig3") }
func BenchmarkFig7(b *testing.B)   { benchArtifact(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchArtifact(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchArtifact(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchArtifact(b, "fig10") }

// BenchmarkSimulatePIF measures end-to-end simulation throughput
// (instructions per second through front-end + L1 + PIF).
func BenchmarkSimulatePIF(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.WarmupInstrs = 200_000
	cfg.MeasureInstrs = 300_000
	wl := workload.OLTPDB2()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg, wl, core.New(core.DefaultConfig())); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(cfg.WarmupInstrs + cfg.MeasureInstrs))
}

// BenchmarkSimulateBaselines compares engine overheads.
func BenchmarkSimulateBaselines(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.WarmupInstrs = 200_000
	cfg.MeasureInstrs = 300_000
	wl := workload.OLTPDB2()
	for _, mk := range []struct {
		name string
		pf   func() prefetch.Prefetcher
	}{
		{"None", func() prefetch.Prefetcher { return prefetch.None{} }},
		{"NextLine", func() prefetch.Prefetcher { return prefetch.NewNextLine(4) }},
		{"TIFS", func() prefetch.Prefetcher { return prefetch.NewTIFS(prefetch.DefaultTIFSConfig()) }},
		{"PIF", func() prefetch.Prefetcher { return core.New(core.DefaultConfig()) }},
	} {
		b.Run(mk.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(cfg, wl, mk.pf()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// runnerBenchJobs enumerates a representative job mix (3 workloads × 4
// engines) at a small scale for the execution-engine benchmarks.
func runnerBenchJobs() []runner.Job {
	cfg := sim.DefaultConfig()
	cfg.WarmupInstrs = 100_000
	cfg.MeasureInstrs = 150_000
	var jobs []runner.Job
	for _, wl := range workload.StandardSuite()[:3] {
		for _, name := range []string{"none", "nextline", "tifs", "pif"} {
			jobs = append(jobs, runner.Job{
				Label:    wl.Name + "/" + name,
				Workload: wl,
				Config:   cfg,
				Engine:   prefetch.Spec{Name: name},
			})
		}
	}
	return jobs
}

func benchRunner(b *testing.B, workers int) {
	b.Helper()
	jobs := runnerBenchJobs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Run(context.Background(), jobs, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunnerSerial and BenchmarkRunnerParallel run the same job list
// through a 1-worker and a GOMAXPROCS-worker pool; their ratio is the
// execution engine's speedup on this machine.
func BenchmarkRunnerSerial(b *testing.B)   { benchRunner(b, 1) }
func BenchmarkRunnerParallel(b *testing.B) { benchRunner(b, runtime.GOMAXPROCS(0)) }

// BenchmarkWorkloadGeneration measures trace-generation throughput.
func BenchmarkWorkloadGeneration(b *testing.B) {
	prog, err := workload.BuildProgram(workload.OLTPDB2())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := workload.NewExecutor(prog)
		n := ex.Run(500_000, func(trace.Record) {})
		b.SetBytes(int64(n))
	}
}

// BenchmarkCompactor measures the recording pipeline in isolation:
// spatial + temporal compaction of a synthetic retire stream.
func BenchmarkCompactor(b *testing.B) {
	stream, err := workload.GenerateStream(workload.DSSQry2(), 200_000)
	if err != nil {
		b.Fatal(err)
	}
	blocks := stream.Blocks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := core.NewSpatialCompactor(core.DefaultGeometry())
		tc := core.NewTemporalCompactor(4)
		admitted := 0
		for _, blk := range blocks {
			if r, ok := sc.Observe(blk, isa.TL0, true); ok && tc.Filter(r) {
				admitted++
			}
		}
		if admitted == 0 {
			b.Fatal("no regions admitted")
		}
	}
}

// nullIssuer lets the PIF bench run without a cache model: every block
// counts as resident and nothing ever leaves.
type nullIssuer struct{}

func (nullIssuer) Prefetch(isa.Block) {}
func (nullIssuer) Evictions() uint64  { return 0 }

// BenchmarkPIFOnRetire measures the per-retired-instruction recording cost.
func BenchmarkPIFOnRetire(b *testing.B) {
	stream, err := workload.GenerateStream(workload.OLTPDB2(), 200_000)
	if err != nil {
		b.Fatal(err)
	}
	p := core.New(core.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := stream[i%len(stream)]
		p.OnRetire(r, true, nullIssuer{})
	}
}

// BenchmarkPIFOnAccess measures the per-fetch replay/trigger cost.
func BenchmarkPIFOnAccess(b *testing.B) {
	stream, err := workload.GenerateStream(workload.OLTPDB2(), 200_000)
	if err != nil {
		b.Fatal(err)
	}
	p := core.New(core.DefaultConfig())
	for _, r := range stream {
		p.OnRetire(r, true, nullIssuer{})
	}
	blocks := stream.Blocks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := blocks[i%len(blocks)]
		p.OnAccess(prefetch.AccessEvent{Block: blk}, nullIssuer{})
	}
}

// BenchmarkTraceEncode measures binary trace writer throughput.
func BenchmarkTraceEncode(b *testing.B) {
	stream, err := workload.GenerateStream(workload.WebZeus(), 100_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := trace.NewWriter(discard{}, "bench")
		if err != nil {
			b.Fatal(err)
		}
		if err := w.WriteStream(stream); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(stream)))
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
