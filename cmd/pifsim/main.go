// Command pifsim runs workload/prefetcher simulations and prints the
// measured coverage, miss ratio, and UIPC — the unit of work every figure
// of the evaluation is built from.
//
// -workload accepts a comma-separated list (or "all"), and -engine
// repeats; every run is one sweep (internal/sweep) over the cross
// product, whose jobs fan out over a worker pool (-parallel) or the
// -backend with per-job wall-clock timing. A single job prints the full
// result detail.
//
// Engines are declarative specs: the repeatable -engine flag takes
// "name" or "name:param=value,..." (integer params accept K/M suffixes),
// validated against each engine's registered schema — run
// `pifsim -list-engines` to print every schema. With no -engine, pif
// runs.
//
// Usage:
//
//	pifsim [-workload "OLTP DB2,Web Apache"|all] [-engine pif:budget_kb=32]
//	       [-engine tifs] [-parallel N] [-perfect] [-warmup N] [-measure N] [-v]
//	pifsim -trace apache.store [-engine pif] [-engine tifs] ...
//	pifsim -trace apache.store -source slice@8M:2M [-engine ...] ...
//	pifsim -list-engines
//
// The -source flag selects where the instruction stream comes from:
// "live" (default — execute the workload program), "store" (replay the
// sharded on-disk trace store named by -trace from record 0; implied by
// -trace alone), or "slice@off:len" (replay only the record window
// [off, off+len) of the store, located through the store index without
// decoding the prefix — off and len accept K/M suffixes). Replay jobs
// stream the trace chunk by chunk (peak memory one chunk, not the trace
// length); the replayed range must hold at least warmup+measure records.
//
// -shards K splits a full-store replay into K record windows per engine
// and stitches them back into one result: each engine's cell of the
// sweep runs sharded (internal/sweep plans and folds the shard jobs).
// The default windows warm up on a fixed prefix (approximate results);
// -exact makes every counter match the unsharded replay bit for bit.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/prefetch"
	"repro/internal/prof"
	"repro/internal/remote"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	wlNames := flag.String("workload", "OLTP DB2", "comma-separated workload names, or \"all\" (see -list)")
	traceDir := flag.String("trace", "", "replay a sharded trace store directory instead of executing a workload")
	sourceSpec := flag.String("source", "", "record source: live, store, or slice@off:len (store and slice replay the -trace store; default live, or store when -trace is set)")
	list := flag.Bool("list", false, "list workloads and prefetchers and exit")
	listEngines := flag.Bool("list-engines", false, "print every engine's parameter schema and exit")
	var engineSpecs engineFlags
	flag.Var(&engineSpecs, "engine", "engine spec name[:param=value,...] (repeatable; default pif)")
	parallel := flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS)")
	perfect := flag.Bool("perfect", false, "simulate the perfect-latency L1 bound")
	warmup := flag.Uint64("warmup", 8_000_000, "warmup instructions")
	measure := flag.Uint64("measure", 2_000_000, "measured instructions")
	backendSpec := flag.String("backend", "local", "execution backend: local, or remote@ADDR (a pifcoord coordinator; jobs run on its worker fleet)")
	authToken := flag.String("auth-token", "", "bearer token for a token-protected remote coordinator (empty for an open one)")
	shards := flag.Int("shards", 1, "split a store replay into N parallel windows and stitch the results (needs -trace)")
	exact := flag.Bool("exact", false, "sharded replay: measure each shard as a clock delta on the full trace prefix, so every counter — timing included — matches sequential replay bit for bit (parity mode; the last shard replays the whole trace, so expect no speedup)")
	verbose := flag.Bool("v", false, "print full result struct (single job) or per-job progress")
	var profile prof.Flags
	profile.Register(flag.CommandLine)
	flag.Parse()

	if err := profile.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "pifsim:", err)
		return 1
	}
	defer profile.Stop()

	if *list {
		fmt.Println("workloads:")
		for _, w := range workload.StandardSuite() {
			fmt.Println("  " + w.Name)
		}
		fmt.Println("prefetchers:")
		for _, n := range prefetch.Names() {
			fmt.Println("  " + n)
		}
		return 0
	}
	if *listEngines {
		for i, sch := range prefetch.Schemas() {
			if i > 0 {
				fmt.Println()
			}
			fmt.Print(sch.Describe())
		}
		return 0
	}

	engines, err := resolveEngines(engineSpecs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pifsim:", err)
		return 1
	}

	cfg := sim.DefaultConfig()
	cfg.WarmupInstrs = *warmup
	cfg.MeasureInstrs = *measure
	cfg.PerfectL1 = *perfect

	// Resolve the record source: -trace alone implies a full-store
	// replay; -source store/slice requires the store. Every check here
	// binds the flat and the sharded path alike.
	src := *sourceSpec
	if src == "" {
		src = "live"
		if *traceDir != "" {
			src = "store"
		}
	}
	var win *trace.Window
	switch {
	case src == "live":
		if *traceDir != "" {
			fmt.Fprintln(os.Stderr, "pifsim: -source live contradicts -trace (drop one)")
			return 1
		}
	case src == "store":
	case strings.HasPrefix(src, "slice@"):
		w, werr := trace.ParseWindow(strings.TrimPrefix(src, "slice@"))
		if werr != nil {
			fmt.Fprintln(os.Stderr, "pifsim:", werr)
			return 1
		}
		win = &w
	default:
		fmt.Fprintf(os.Stderr, "pifsim: unknown -source %q (have live, store, slice@off:len)\n", src)
		return 1
	}
	if src != "live" {
		if *traceDir == "" {
			fmt.Fprintf(os.Stderr, "pifsim: -source %s needs -trace DIR\n", src)
			return 1
		}
		// The store names the workload; an explicit -workload alongside
		// -trace would be silently ignored, so reject the combination.
		workloadSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "workload" {
				workloadSet = true
			}
		})
		if workloadSet {
			fmt.Fprintln(os.Stderr, "pifsim: -workload and -trace are mutually exclusive (the store names its workload)")
			return 1
		}
	}
	if *shards > 1 && src != "store" {
		fmt.Fprintln(os.Stderr, "pifsim: -shards needs a full-store replay (-trace DIR without -source slice)")
		return 1
	}
	if *shards <= 1 && *exact {
		fmt.Fprintln(os.Stderr, "pifsim: -exact only applies to sharded replay (-shards N)")
		return 1
	}

	// Every mode is one sweep over workloads × engines; a -trace replay
	// adds a one-value source axis.
	var wls []workload.Profile
	var source sim.Source
	if src == "live" {
		wls, err = resolveWorkloads(*wlNames)
	} else {
		var wl workload.Profile
		wl, source, err = traceSource(*traceDir, win, cfg)
		wls = []workload.Profile{wl}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pifsim:", err)
		return 1
	}
	spec := sweep.Spec{
		Name:            "pifsim",
		Base:            cfg,
		BaseShards:      *shards,
		BaseShardApprox: !*exact,
		Axes: []sweep.Axis{
			sweep.WorkloadAxis("workload", wls),
			sweep.EngineSpecAxis("engine", engines, nil),
		},
	}
	if source != nil {
		spec.Axes = append(spec.Axes, sweep.SourceAxis("source", []sweep.SourceChoice{{
			Key:  sweep.KeyOf(src),
			Name: src,
			New:  func(*sweep.Settings) sim.Source { return source },
		}}))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	backend, err := remote.DialSpec(*backendSpec, *authToken)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pifsim:", err)
		return 1
	}
	if backend != nil {
		defer backend.Close()
	}
	eng := sweep.PoolEngine{Ctx: ctx, Workers: *parallel, Backend: backend}
	// Progress lines name cells; a sharded run's jobs are shards, and
	// -v prints their plan instead.
	if *verbose && len(wls)*len(engines) > 1 && *shards <= 1 {
		eng.OnProgress = func(p runner.Progress) {
			fmt.Fprintf(os.Stderr, "  [%3d/%3d] %-32s %8s\n",
				p.Done, p.Total, p.Label, p.Elapsed.Round(time.Millisecond))
		}
	}

	start := time.Now()
	g, err := sweep.Run(eng, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pifsim:", err)
		return 1
	}

	if *shards > 1 {
		if err := printSharded(g.Results, cfg, *shards, *exact, *perfect, *verbose); err != nil {
			fmt.Fprintln(os.Stderr, "pifsim:", err)
			return 1
		}
		return 0
	}
	if len(g.Results) == 1 {
		printDetail(g.Results[0], *perfect, *verbose)
		return 0
	}
	fmt.Printf("%-14s %-14s %8s %8s %8s %10s\n",
		"workload", "prefetcher", "UIPC", "missrat", "coverage", "time")
	for _, r := range g.Results {
		fmt.Printf("%-14s %-14s %8.4f %8.4f %7.1f%% %10s\n",
			r.Sim.Workload, r.Sim.Prefetcher, r.Sim.UIPC, r.Sim.MissRatio(),
			r.Sim.Coverage()*100, r.Elapsed.Round(time.Millisecond))
	}
	fmt.Printf("(%d job(s) in %s wall-clock)\n", len(g.Results), time.Since(start).Round(time.Millisecond))
	return 0
}

// engineFlags collects repeatable -engine spec strings.
type engineFlags []string

func (e *engineFlags) String() string     { return strings.Join(*e, ",") }
func (e *engineFlags) Set(v string) error { *e = append(*e, v); return nil }

// printSharded prints one whole-run result per engine of a sharded
// replay: the sweep planned each cell into shard windows
// (sim.SplitReplay) and folded them back (sim.MergeShardResults).
func printSharded(results []runner.Result, cfg sim.Config, shards int, exact, perfect, verbose bool) error {
	var plans []sim.ShardPlan
	if verbose {
		// The windows the sweep planned every cell with.
		var err error
		if plans, err = sim.SplitReplay(cfg, shards, exact); err != nil {
			return err
		}
	}
	mode := "approx"
	if exact {
		mode = "exact"
	}
	for i, r := range results {
		if r.Err != nil {
			return r.Err
		}
		if i > 0 {
			fmt.Println()
		}
		// A cell's elapsed time is its slowest shard: its shards run
		// concurrently.
		fmt.Printf("sharded replay: %d windows (%s warmup), %s wall-clock\n",
			shards, mode, r.Elapsed.Round(time.Millisecond))
		printDetail(r, perfect, verbose)
		for k, p := range plans {
			fmt.Printf("  shard %d: window %s warmup %d offset %d measure %d\n",
				k, p.Window, p.WarmupInstrs, p.MeasureOffsetInstrs, p.MeasureInstrs)
		}
	}
	return nil
}

// traceSource checks the sharded store at dir against the run (full-store
// replay, or one record window when window is non-nil) and returns the
// workload it names (its profile supplies the front-end seed) and the
// source replaying it. The source is a factory, so every job opens a
// private reader and jobs fan out concurrently over the same trace.
func traceSource(dir string, window *trace.Window, cfg sim.Config) (workload.Profile, sim.Source, error) {
	ix, err := trace.ReadIndex(dir)
	if err != nil {
		return workload.Profile{}, nil, err
	}
	wl, err := workload.ByName(ix.Workload)
	if err != nil {
		return workload.Profile{}, nil, fmt.Errorf("trace store %s: %w", dir, err)
	}
	need := cfg.WarmupInstrs + cfg.MeasureInstrs
	if window != nil {
		// A slice is its own experiment — the window, not the recorded
		// phase split, defines what is replayed — so only the window's
		// record budget is validated here.
		if err := ix.CheckWindow(*window); err != nil {
			return workload.Profile{}, nil, err
		}
		if window.Len < need {
			return workload.Profile{}, nil, fmt.Errorf("window %s holds %d records, need %d (warmup+measure)",
				window, window.Len, need)
		}
		return wl, sim.SliceSource(dir, *window), nil
	}
	if ix.Records() < need {
		return workload.Profile{}, nil, fmt.Errorf("trace store %s holds %d records, need %d (warmup+measure)",
			dir, ix.Records(), need)
	}
	if !ix.PhaseCompatible(cfg.WarmupInstrs, cfg.MeasureInstrs) {
		return workload.Profile{}, nil, fmt.Errorf(
			"trace store %s was recorded with phase split %v; replaying -warmup %d -measure %d would silently diverge from a live run (re-record with tracegen -warmup %d, or match the recorded split)",
			dir, ix.Phases, cfg.WarmupInstrs, cfg.MeasureInstrs, cfg.WarmupInstrs)
	}
	return wl, sim.StoreSource(dir), nil
}

// resolveWorkloads expands the -workload flag.
func resolveWorkloads(names string) ([]workload.Profile, error) {
	if names == "all" {
		return workload.StandardSuite(), nil
	}
	var out []workload.Profile
	for _, name := range strings.Split(names, ",") {
		wl, err := workload.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, wl)
	}
	return out, nil
}

// resolveEngines parses the -engine specs (pif when there are none).
// Every engine, tuned or not, is a validated declarative spec, so a typo
// fails before any job runs and every engine ships to every backend.
func resolveEngines(specs []string) ([]prefetch.Spec, error) {
	if len(specs) == 0 {
		specs = []string{"pif"}
	}
	out := make([]prefetch.Spec, len(specs))
	for i, s := range specs {
		var err error
		if out[i], err = prefetch.ParseSpec(s); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// printDetail prints the single-job report (the historical pifsim output).
func printDetail(r runner.Result, perfect, verbose bool) {
	res := r.Sim
	fmt.Printf("workload    %s\n", res.Workload)
	fmt.Printf("prefetcher  %s (perfect L1: %v)\n", res.Prefetcher, perfect)
	fmt.Printf("instructions %d  cycles %d  UIPC %.4f\n", res.Instructions, res.Cycles, res.UIPC)
	fmt.Printf("fetch: %d correct-path accesses, %d misses (ratio %.4f)\n",
		res.CorrectAccesses, res.CorrectMisses, res.MissRatio())
	fmt.Printf("prefetch: %d issued, %d useful (coverage %.1f%%)\n",
		res.PrefetchesIssued, res.CoveredMisses, res.Coverage()*100)
	fmt.Printf("stall cycles %d\n", res.StallCycles)
	fmt.Printf("wall-clock  %s\n", r.Elapsed.Round(time.Millisecond))
	if verbose {
		fmt.Printf("\nL1: %+v\nfront-end: %+v\n", res.L1, res.FE)
	}
}
