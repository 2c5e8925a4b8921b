package bench

// The runner-level benchmark suite (BENCH_runner.json): where
// BENCH_replay.json measures the decode and replay hot paths,
// this artifact measures the job-execution layer on top of them —
// grid jobs/sec through runner.RunOn serially and in parallel, the
// spec-resolution overhead the declarative engine layer adds per job,
// and the program build a worker pays when a job's image is not cached.
// Freshness is checked structurally like the replay artifact; the
// enforced invariants are that engine-spec resolution stays negligible
// against job runtime (the claim that let closure factories be deleted)
// and that a program build stays a handful of allocations.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/prefetch"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// RunnerConfig pins the runner-benchmark fixture: the sweep grid whose
// jobs are timed and the parallel worker count.
type RunnerConfig struct {
	// Workload names the profile every grid cell simulates.
	Workload string `json:"workload"`
	// WarmupInstrs/MeasureInstrs size each cell's simulation.
	WarmupInstrs  uint64 `json:"warmup_instrs"`
	MeasureInstrs uint64 `json:"measure_instrs"`
	// Engines and BudgetsKB span the grid: len(Engines)*len(BudgetsKB)
	// jobs per benchmark operation.
	Engines   []string `json:"engines"`
	BudgetsKB []int    `json:"budgets_kb"`
	// Parallel is the parallel backend's worker count.
	Parallel int `json:"parallel"`
}

// jobCount is the grid size.
func (c RunnerConfig) jobCount() int { return len(c.Engines) * len(c.BudgetsKB) }

// DefaultRunnerConfig is the committed artifact's fixture: an
// engine × budget grid small enough for a bounded CI step but wide
// enough that the parallel backend has work to overlap.
func DefaultRunnerConfig() RunnerConfig {
	return RunnerConfig{
		Workload:      "OLTP DB2",
		WarmupInstrs:  100_000,
		MeasureInstrs: 50_000,
		Engines:       []string{"pif", "tifs", "nextline", "none"},
		BudgetsKB:     []int{8, 128},
		Parallel:      4,
	}
}

// RunnerDerived holds the cross-benchmark ratios of the runner suite.
type RunnerDerived struct {
	// ParallelSpeedup is serial grid time over parallel grid time
	// (informational: bounded by the measuring machine's cores).
	ParallelSpeedup float64 `json:"parallel_speedup"`
	// ResolveOverhead is spec-resolution time over serial grid time —
	// the per-job cost of the declarative engine layer (enforced
	// ceiling: MaxResolveOverhead).
	ResolveOverhead float64 `json:"resolve_overhead"`
}

// RunnerArtifact is the serialized runner-benchmark run
// (BENCH_runner.json).
type RunnerArtifact struct {
	Schema int          `json:"schema"`
	Config RunnerConfig `json:"config"`
	// GOMAXPROCS is machine state (the context a parallel ratio must be
	// read in), not fixture state; CheckRunnerFresh ignores it.
	GOMAXPROCS int           `json:"gomaxprocs"`
	Benchmarks []Measurement `json:"benchmarks"`
	Derived    RunnerDerived `json:"derived"`
}

// Names returns the artifact's benchmark names, sorted.
func (a RunnerArtifact) Names() []string {
	return Artifact{Benchmarks: a.Benchmarks}.Names()
}

func (a RunnerArtifact) find(name string) (Measurement, bool) {
	return Artifact{Benchmarks: a.Benchmarks}.find(name)
}

// MaxResolveOverhead bounds spec resolution (validate, derive,
// construct) against mean job runtime: the declarative layer must stay
// a few percent of the work it dispatches at most (measured ~0.8% on
// the committed fixture; the slack absorbs machine variance).
const MaxResolveOverhead = 0.05

// MaxBuildAllocs bounds the allocations of one workload/build operation:
// a program-cache miss that builds the fixture's image (about 20
// allocations) and adds its cache entry.
const MaxBuildAllocs = 128

// CheckRunnerInvariants validates the runner suite's claims against a
// freshly measured artifact.
func CheckRunnerInvariants(a RunnerArtifact) error {
	if a.Derived.ResolveOverhead > MaxResolveOverhead {
		return fmt.Errorf("bench: engine-spec resolution is %.4f of mean job time, above the %.2f ceiling",
			a.Derived.ResolveOverhead, MaxResolveOverhead)
	}
	if a.Derived.ParallelSpeedup <= 0 {
		return fmt.Errorf("bench: parallel speedup %.2f is not positive", a.Derived.ParallelSpeedup)
	}
	build, ok := a.find("workload/build")
	if !ok {
		return fmt.Errorf("bench: missing benchmark %q", "workload/build")
	}
	if build.AllocsPerOp > MaxBuildAllocs {
		return fmt.Errorf("bench: a program build makes %.0f allocations, above the %d ceiling",
			build.AllocsPerOp, MaxBuildAllocs)
	}
	return nil
}

// CheckRunnerFresh reports whether a committed runner artifact
// structurally matches a regeneration. Raw timings are machine-dependent
// and intentionally not compared.
func CheckRunnerFresh(committed, fresh RunnerArtifact) error {
	if committed.Schema != fresh.Schema {
		return fmt.Errorf("bench: runner artifact schema %d, regeneration produces %d — regenerate with `make bench`",
			committed.Schema, fresh.Schema)
	}
	if fmt.Sprintf("%+v", committed.Config) != fmt.Sprintf("%+v", fresh.Config) {
		return fmt.Errorf("bench: runner artifact fixture %+v, regeneration uses %+v — regenerate with `make bench`",
			committed.Config, fresh.Config)
	}
	cn, fn := committed.Names(), fresh.Names()
	if len(cn) != len(fn) {
		return fmt.Errorf("bench: runner artifact has %d benchmarks %v, regeneration has %d %v — regenerate with `make bench`",
			len(cn), cn, len(fn), fn)
	}
	for i := range cn {
		if cn[i] != fn[i] {
			return fmt.Errorf("bench: runner artifact benchmark set %v differs from regeneration %v — regenerate with `make bench`", cn, fn)
		}
	}
	return nil
}

// runnerJobs expands the fixture grid over wl into runner jobs, sharing
// one pre-built program image so the benchmark times execution, not
// program construction.
func runnerJobs(cfg RunnerConfig, wl workload.Profile) ([]runner.Job, error) {
	prog, err := workload.ProgramFor(wl)
	if err != nil {
		return nil, err
	}
	simCfg := baseSimConfig(cfg)
	spec := sweep.Spec{
		Name: "bench-runner",
		Base: simCfg,
		Axes: []sweep.Axis{
			sweep.WorkloadAxis("workload", []workload.Profile{wl}),
			sweep.EngineAxis("engine", cfg.Engines...),
			sweep.EngineParamAxis("budget", "budget_kb",
				func(v int) string { return fmt.Sprintf("%dkb", v) }, nil, cfg.BudgetsKB),
		},
	}
	grid, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	jobs, err := grid.Jobs()
	if err != nil {
		return nil, err
	}
	for i := range jobs {
		jobs[i].Program = prog
	}
	return jobs, nil
}

func baseSimConfig(cfg RunnerConfig) sim.Config {
	out := sim.DefaultConfig()
	out.WarmupInstrs = cfg.WarmupInstrs
	out.MeasureInstrs = cfg.MeasureInstrs
	return out
}

// RunRunner executes the runner benchmark suite. Progress lines go to
// logf (nil discards them).
func RunRunner(cfg RunnerConfig, logf func(format string, args ...any)) (RunnerArtifact, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	wl, err := workload.ByName(cfg.Workload)
	if err != nil {
		return RunnerArtifact{}, err
	}
	jobs, err := runnerJobs(cfg, wl)
	if err != nil {
		return RunnerArtifact{}, err
	}
	n := uint64(len(jobs))

	a := RunnerArtifact{Schema: SchemaVersion, Config: cfg, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	run := func(name string, perOpJobs uint64, body func(b *testing.B)) Measurement {
		logf("benchmark %s...", name)
		r := testing.Benchmark(body)
		m := Measurement{
			Name:        name,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: float64(r.MemAllocs) / float64(max(r.N, 1)),
		}
		if perOpJobs > 0 {
			m.JobsPerSec = float64(perOpJobs) * float64(r.N) / r.T.Seconds()
		}
		a.Benchmarks = append(a.Benchmarks, m)
		return m
	}

	runGrid := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				results, err := runner.RunOn(context.Background(), runner.NewLocalBackend(workers), jobs, nil)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					if r.Err != nil {
						b.Fatalf("job %s: %v", r.Label, r.Err)
					}
				}
			}
		}
	}
	serial := run("runner/jobs_serial", n, runGrid(1))
	parallel := run(fmt.Sprintf("runner/jobs_parallel_%d", cfg.Parallel), n, runGrid(cfg.Parallel))

	// Spec resolution in isolation: validate + derive + construct one
	// engine instance per grid job, exactly what each backend pays before
	// a job runs.
	resolve := run("runner/spec_resolve", n, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, j := range jobs {
				if _, err := prefetch.Resolve(j.Engine); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	// One program-cache miss per operation: every call asks ProgramFor
	// for the fixture profile under a seed no earlier iteration used, so
	// it builds the image, as a worker does for a job whose image no
	// holder keeps alive. Seeds count down from -1, below every seed a
	// built-in or perturbed profile uses.
	var seed int64
	run("workload/build", 0, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seed--
			p := wl
			p.Seed = seed
			if _, err := workload.ProgramFor(p); err != nil {
				b.Fatal(err)
			}
		}
	})

	a.Derived = RunnerDerived{
		ParallelSpeedup: serial.NsPerOp / parallel.NsPerOp,
		ResolveOverhead: resolve.NsPerOp / serial.NsPerOp,
	}
	return a, nil
}
