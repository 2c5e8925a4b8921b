// Command experiments regenerates the paper's evaluation artifacts: every
// figure of Section 5, the Table I configuration, and the design-space
// sweep artifacts (sweep-history, sweep-l1), printed as text tables in the
// same rows/series the paper reports.
//
// Simulation jobs fan out across cores (bounded by -parallel); rendered
// tables are byte-identical for every parallelism level. Ctrl-C cancels
// in-flight jobs.
//
// With -out DIR, the run is also stored as structured JSON (run.json plus
// one <artifact>.json per artifact, schema-versioned) together with every
// raw per-job sim.Result collected from sweep grids (jobs/<key>.json, one
// per grid cell); "experiments diff" compares two stored runs metric by
// metric — per-job results included — and exits with a distinct code per
// failure class, so sweeps can be gated across commits.
//
// The sweep mode runs an ad-hoc design-space sweep declared on the
// command line: repeatable -axis flags name the axes (workload, engine,
// history, budget, l1, source, shards) and their values, the
// cross-product fans out through the execution backend, and -out
// persists one raw result per grid cell. A source axis (or the -source
// shorthand) selects where each cell's instruction stream comes from —
// live execution, the workload's spilled trace store (-tracedir), or a
// record window of a store ("slice@off:len", optionally "@DIR" for a
// store recorded by tracegen) — so sweeps fan out over trace slices
// without re-executing workloads. -shards K splits every replay cell
// into K window-shard jobs that fan out alongside the grid's other
// cells (local pool or remote backend alike) and are stitched back into
// the cell's result; cell keys and results are unchanged, so a sharded
// run diffs exit-0 against an unsharded one.
//
// Usage:
//
//	experiments [-run all|table1|fig2|...|sweep-history|sweep-window]
//	            [-quick] [-warmup N] [-measure N] [-parallel N]
//	            [-tracedir DIR] [-out DIR] [-v]
//	experiments sweep -axis name=v1,v2,... [-axis ...] [-source SPEC]
//	            [-shards K] [-quick] [-warmup N] [-measure N] [-parallel N]
//	            [-tracedir DIR] [-out DIR] [-v]
//	experiments diff [-abs X] [-rel Y] [-json] [-svc ADDR] A B
//	experiments submit -svc ADDR -axis name=v1,v2,... [sweep flags] [-wait]
//	experiments status -svc ADDR [-json] [RUN_ID ...]
//
// diff exit codes: 0 = within tolerance, 1 = metric drift beyond
// tolerance, 2 = usage or load error, 3 = artifact/job sets differ (a
// comparison-setup problem, not metric drift). -json emits the same
// verdict as a machine-readable report on stdout.
//
// The submit, status, and diff -svc modes are thin clients of a pifexpd
// experiment service: submit queues a sweep (the spec flags fill the same
// experiments.SweepRequest as under `experiments sweep`) and prints the
// run ID alone on stdout, status lists or follows runs, and diff -svc
// also accepts service run IDs as sides — it fetches their artifacts and
// per-job results from the service and diffs them here, against each
// other or against a local -out directory. -auth-token authenticates
// against a token-protected service or coordinator.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/expsvc"
	"repro/internal/prof"
	"repro/internal/remote"
	"repro/internal/report"
	"repro/internal/runner"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "diff":
			os.Exit(diffMain(os.Args[2:]))
		case "sweep":
			os.Exit(sweepMain(os.Args[2:]))
		case "submit":
			os.Exit(submitMain(os.Args[2:]))
		case "status":
			os.Exit(statusMain(os.Args[2:]))
		}
	}
	os.Exit(runMain())
}

// scaleFlags registers the options shared by the run and sweep modes.
// -tracedir is among them since the unified pipeline API: the run mode
// spills trace-based figure analyses through it, and the sweep mode
// resolves store/slice record sources against it. The profiling flags
// ride along too (-cpuprofile/-memprofile; callers Start after parsing
// and defer Stop).
func scaleFlags(fs *flag.FlagSet) (quick *bool, warmup, measure *uint64, parallel *int, traceDir, out, backend, authToken *string, verbose *bool, profile *prof.Flags) {
	quick = fs.Bool("quick", false, "reduced-scale run (shorter warmup and measurement)")
	warmup = fs.Uint64("warmup", 0, "override warmup instructions (0 = default)")
	measure = fs.Uint64("measure", 0, "override measured instructions (0 = default)")
	parallel = fs.Int("parallel", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	backend = fs.String("backend", "local", "execution backend: local, or remote@ADDR (a pifcoord coordinator; jobs must be registry-resolvable — plain engine names, live or @DIR sources)")
	authToken = fs.String("auth-token", "", "bearer token for a token-protected remote coordinator (empty for an open one)")
	traceDir = fs.String("tracedir", "", "trace-store pool: spill generated retire streams to sharded stores under this directory and replay them (bounded memory; stores are reused across runs; env-backed store/slice sources slice these stores instead of the in-memory stream)")
	out = fs.String("out", "", "write structured JSON results into this directory (run.json + <artifact>.json + jobs/<key>.json)")
	verbose = fs.Bool("v", false, "print per-job timing as jobs complete")
	profile = new(prof.Flags)
	profile.Register(fs)
	return
}

// buildOptions resolves the shared flags into experiment options.
func buildOptions(quick bool, warmup, measure uint64, parallel int, storeDir string, verbose bool) experiments.Options {
	opts := experiments.PresetOptions(quick, warmup, measure)
	opts.Parallel = parallel
	opts.StoreDir = storeDir
	if verbose {
		opts.OnProgress = func(p runner.Progress) {
			fmt.Fprintf(os.Stderr, "  [%3d/%3d] %-40s %8s\n",
				p.Done, p.Total, p.Label, p.Elapsed.Round(time.Millisecond))
		}
	}
	return opts
}

func runMain() int {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	runID := fs.String("run", "all", "artifact to regenerate: all, or one of "+strings.Join(experiments.IDs(), ", "))
	quick, warmup, measure, parallel, traceDir, out, backend, authToken, verbose, profile := scaleFlags(fs)
	fs.Parse(os.Args[1:])

	if err := profile.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}
	defer profile.Stop()

	opts := buildOptions(*quick, *warmup, *measure, *parallel, *traceDir, *verbose)
	// A local (nil) backend lets the environment size private pools per
	// grid.
	be, err := remote.DialSpec(*backend, *authToken)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}
	if be != nil {
		opts.Backend = be
		defer be.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ids := []string{*runID}
	if *runID == "all" {
		ids = experiments.IDs()
	}

	env := experiments.NewEnvContext(ctx, opts)
	workers := env.Parallel()
	start := time.Now()
	var (
		reports []experiments.Report
		timings []report.Timing
	)
	for _, id := range ids {
		artStart := time.Now()
		rep, err := experiments.Run(env, id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		reports = append(reports, rep)
		timings = append(timings, report.Timing{ID: id, Nanos: int64(time.Since(artStart))})
	}
	total := time.Since(start)

	for _, rep := range reports {
		fmt.Printf("== %s: %s ==\n%s\n", rep.ID, rep.Title, rep.Text)
	}
	fmt.Println("artifact wall-clock:")
	for _, tm := range timings {
		fmt.Printf("  %-14s %8s\n", tm.ID, tm.Elapsed().Round(time.Millisecond))
	}
	fmt.Printf("(%d artifact(s) in %s; warmup=%d measure=%d instructions per workload; %d workers)\n",
		len(reports), total.Round(time.Millisecond),
		opts.WarmupInstrs, opts.MeasureInstrs, workers)

	if *out != "" {
		artifacts, err := experiments.Artifacts(reports)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		run := report.Run{
			ID:         runName(*out),
			CreatedAt:  time.Now().UTC(),
			Options:    opts.RunOptions(),
			Timings:    timings,
			TotalNanos: int64(total),
		}
		jobs := env.JobResults()
		if err := report.Save(*out, run, artifacts, jobs); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		fmt.Printf("(results stored in %s; %d raw per-job result(s) under %s)\n",
			*out, len(jobs), filepath.Join(*out, "jobs"))
	}
	return 0
}

// axisFlags collects repeatable -axis and -engine specifications.
type axisFlags []string

func (a *axisFlags) String() string     { return strings.Join(*a, "; ") }
func (a *axisFlags) Set(v string) error { *a = append(*a, v); return nil }

// sweepFlags registers the sweep-spec flags of the sweep and submit
// modes into req.
func sweepFlags(fs *flag.FlagSet, req *experiments.SweepRequest) {
	fs.Var((*axisFlags)(&req.Axes), "axis", "sweep axis as name=v1,v2,... (workload, engine, history, budget, l1, source, shards); repeatable, crossed in flag order")
	fs.Var((*axisFlags)(&req.Engines), "engine", "engine spec name[:param=value,...] for the engine axis (repeatable; tuned specs sweep like names — mutually exclusive with -axis engine=...)")
	fs.StringVar(&req.Name, "name", "sweep", "sweep name (prefixes cell keys and job labels)")
	fs.StringVar(&req.Source, "source", "", "record source for every cell: live, store, slice@off:len, store@DIR, or slice@off:len@DIR (shorthand for a one-value source axis; store/slice without @DIR replay the workload's spilled store under -tracedir, or its in-memory stream when -tracedir is unset)")
	fs.IntVar(&req.Shards, "shards", 0, "split every cell's replay into K window-shard jobs (cells need a replayable source, e.g. -source store; keys and results are unchanged, so sharded runs diff exit-0 against unsharded ones)")
	fs.BoolVar(&req.ShardApprox, "shard-approx", false, "shard with fixed per-shard warmup instead of the exact offset scheme: linear total work, so shards speed the cell up, at the cost of approximate (not bit-exact) results")
}

// sweepMain runs an ad-hoc design-space sweep declared with -axis flags.
func sweepMain(args []string) int {
	fs := flag.NewFlagSet("experiments sweep", flag.ExitOnError)
	var req experiments.SweepRequest
	sweepFlags(fs, &req)
	quick, warmup, measure, parallel, traceDir, out, backend, authToken, verbose, profile := scaleFlags(fs)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: experiments sweep -axis name=v1,v2,... [-axis ...] [-engine SPEC ...] [-source SPEC] [-shards K] [flags]")
		fs.PrintDefaults()
	}
	fs.Parse(args)

	if err := profile.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}
	defer profile.Stop()

	opts := buildOptions(*quick, *warmup, *measure, *parallel, *traceDir, *verbose)
	be, err := remote.DialSpec(*backend, *authToken)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments sweep:", err)
		return 1
	}
	if be != nil {
		opts.Backend = be
		defer be.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	env := experiments.NewEnvContext(ctx, opts)
	spec, err := req.Spec(env)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments sweep:", err)
		fs.Usage()
		return 2
	}
	res, err := experiments.RunSweep(env, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments sweep:", err)
		return 1
	}
	cells := res.Summary.Cells
	fmt.Printf("== sweep %s: %d cells ==\n", spec.Name, len(cells))
	fmt.Printf("%-52s %10s %10s %12s\n", "cell", "uipc", "coverage", "misses")
	for _, c := range cells {
		fmt.Printf("%-52s %10.4f %9.1f%% %12d\n", c.Label, c.UIPC, 100*c.Coverage, c.Misses)
	}
	fmt.Printf("(%d cell(s) in %s; warmup=%d measure=%d instructions per cell; %d workers)\n",
		len(cells), res.Elapsed.Round(time.Millisecond),
		opts.WarmupInstrs, opts.MeasureInstrs, env.Parallel())

	if *out != "" {
		if err := res.Save(*out, runName(*out)); err != nil {
			fmt.Fprintln(os.Stderr, "experiments sweep:", err)
			return 1
		}
		fmt.Printf("(results stored in %s; %d raw per-job result(s) under %s)\n",
			*out, len(res.Jobs), filepath.Join(*out, "jobs"))
	}
	return 0
}

// runName derives a run ID from the output directory.
func runName(dir string) string {
	base := filepath.Base(filepath.Clean(dir))
	if base == "." || base == string(filepath.Separator) {
		return "run"
	}
	return base
}

// diffMain compares two stored runs — artifacts and raw per-job results —
// and reports per-metric drift. Exit codes separate the failure classes:
// 0 when the runs agree within tolerance, 1 on metric drift beyond
// tolerance (the regression-gate code), 2 on usage or load errors, and 3
// when the two runs hold different artifact or job sets (nothing to
// compare for the missing entries — a setup problem, not drift).
//
// Each side is a local run directory (anything report.Load accepts) or,
// with -svc, a run on the experiment service, fetched over its read
// endpoints; either way the diff is computed here, so a service run gates
// against a local -out baseline, or another service run, with one command.
func diffMain(args []string) int {
	fs := flag.NewFlagSet("experiments diff", flag.ExitOnError)
	abs := fs.Float64("abs", 1e-12, "absolute tolerance per metric")
	rel := fs.Float64("rel", 1e-9, "relative tolerance per metric")
	jsonOut := fs.Bool("json", false, "emit the machine-readable diff report (code, sides, diff, rendered text) as JSON on stdout")
	svc := fs.String("svc", "", "read sides that are not local run directories as run IDs on the pifexpd experiment service at ADDR")
	authToken := fs.String("auth-token", "", "bearer token for a token-protected service")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: experiments diff [-abs X] [-rel Y] [-json] [-svc ADDR [-auth-token T]] A B")
		fmt.Fprintln(os.Stderr, "exit codes: 0 within tolerance, 1 metric drift, 2 usage/load error, 3 artifact/job sets differ")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	nameA, nameB := fs.Arg(0), fs.Arg(1)
	tol := report.Tolerance{Abs: *abs, Rel: *rel}

	var client *expsvc.Client
	if *svc != "" {
		var err error
		if client, err = expsvc.DialService(*svc, *authToken); err != nil {
			fmt.Fprintln(os.Stderr, "experiments diff:", err)
			return 2
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	aArts, aJobs, err := loadSide(ctx, client, nameA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments diff:", err)
		return 2
	}
	bArts, bJobs, err := loadSide(ctx, client, nameB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments diff:", err)
		return 2
	}
	d := report.DiffArtifacts(aArts, bArts, tol)
	d.Merge(report.DiffJobResults(aJobs, bJobs, tol))
	rep := report.NewDiffReport(nameA, nameB, d)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "experiments diff:", err)
			return 2
		}
		return rep.Code
	}
	fmt.Print(rep.Text)
	switch {
	case d.HasMissing():
		fmt.Printf("MISSING: %s and %s hold different artifact/job sets (%d only in A, %d only in B); rerun both sides with the same artifacts before gating on drift\n",
			nameA, nameB, len(d.OnlyInA), len(d.OnlyInB))
		if d.HasDrift() {
			fmt.Println("(the common artifacts also drift beyond tolerance; fix the set mismatch first)")
		}
	case d.HasDrift():
		fmt.Printf("DRIFT: %s and %s differ beyond tolerance (abs %g, rel %g)\n",
			nameA, nameB, *abs, *rel)
	}
	return rep.Code
}

// loadSide loads one diff side's artifacts and per-job results: from a
// local run directory when report.Load accepts arg, otherwise, given a
// service client, from the service run arg.
func loadSide(ctx context.Context, client *expsvc.Client, arg string) ([]report.Artifact, []report.JobResult, error) {
	_, arts, err := report.Load(arg)
	if err == nil {
		jobs, err := report.LoadJobResults(arg)
		return arts, jobs, err
	}
	if client == nil {
		return nil, nil, err
	}
	if _, arts, err = client.Artifacts(ctx, arg); err != nil {
		return nil, nil, err
	}
	jobs, err := client.Jobs(ctx, arg)
	return arts, jobs, err
}

// submitMain queues one sweep on an experiment service. The sweep-spec
// flags fill the same request as `experiments sweep`, and the service
// builds and runs it through the same code. The new run's ID is printed
// alone on stdout (script-friendly); -wait follows the run to completion.
func submitMain(args []string) int {
	fs := flag.NewFlagSet("experiments submit", flag.ExitOnError)
	svc := fs.String("svc", "", "experiment service address (required)")
	authToken := fs.String("auth-token", "", "bearer token for a token-protected service")
	var req experiments.SweepRequest
	sweepFlags(fs, &req)
	fs.BoolVar(&req.Quick, "quick", false, "reduced-scale run (shorter warmup and measurement)")
	fs.Uint64Var(&req.WarmupInstrs, "warmup", 0, "override warmup instructions (0 = service default)")
	fs.Uint64Var(&req.MeasureInstrs, "measure", 0, "override measured instructions (0 = service default)")
	wait := fs.Bool("wait", false, "follow the run to completion (progress on stderr; exit 0 done, 1 failed)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: experiments submit -svc ADDR -axis name=v1,v2,... [-axis ...] [-engine SPEC ...] [flags] [-wait]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if *svc == "" {
		fmt.Fprintln(os.Stderr, "experiments submit: -svc is required")
		fs.Usage()
		return 2
	}

	client, err := expsvc.DialService(*svc, *authToken)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments submit:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	st, err := client.Submit(ctx, req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments submit:", err)
		return 2
	}
	fmt.Println(st.ID)
	if !*wait {
		return 0
	}
	return followRun(ctx, client, st.ID)
}

// followRun long-polls one run to a terminal state, streaming moves to
// stderr; the exit code mirrors the run's outcome.
func followRun(ctx context.Context, client *expsvc.Client, id string) int {
	last := ""
	st, err := client.WaitRun(ctx, id, func(st expsvc.Status) {
		line := fmt.Sprintf("%s %s", st.ID, st.State)
		if st.Total > 0 {
			line = fmt.Sprintf("%s [%d/%d]", line, st.Done, st.Total)
		}
		if line != last {
			fmt.Fprintln(os.Stderr, line)
			last = line
		}
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 2
	}
	if st.Error != "" {
		fmt.Fprintf(os.Stderr, "experiments: run %s failed: %s\n", st.ID, st.Error)
		return 1
	}
	return 0
}

// statusMain lists a service's runs, or reports (and with -wait follows)
// the named runs.
func statusMain(args []string) int {
	fs := flag.NewFlagSet("experiments status", flag.ExitOnError)
	svc := fs.String("svc", "", "experiment service address (required)")
	authToken := fs.String("auth-token", "", "bearer token for a token-protected service")
	jsonOut := fs.Bool("json", false, "emit statuses as JSON on stdout")
	wait := fs.Bool("wait", false, "follow the named runs to completion (exit 0 all done, 1 any failed)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: experiments status -svc ADDR [-json] [-wait RUN_ID ...]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if *svc == "" {
		fmt.Fprintln(os.Stderr, "experiments status: -svc is required")
		fs.Usage()
		return 2
	}
	client, err := expsvc.DialService(*svc, *authToken)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments status:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var sts []expsvc.Status
	if fs.NArg() == 0 {
		if *wait {
			fmt.Fprintln(os.Stderr, "experiments status: -wait needs explicit run IDs")
			return 2
		}
		sts, err = client.Runs(ctx)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments status:", err)
			return 2
		}
	} else if *wait {
		code := 0
		for _, id := range fs.Args() {
			if c := followRun(ctx, client, id); c > code {
				code = c
			}
		}
		return code
	} else {
		for _, id := range fs.Args() {
			st, err := client.Run(ctx, id)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments status:", err)
				return 2
			}
			sts = append(sts, st)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sts); err != nil {
			fmt.Fprintln(os.Stderr, "experiments status:", err)
			return 2
		}
		return 0
	}
	fmt.Printf("%-28s %-8s %-20s %9s %10s  %s\n", "run", "state", "created", "jobs", "elapsed", "detail")
	for _, st := range sts {
		jobs := "-"
		if st.TotalJobs > 0 {
			jobs = fmt.Sprintf("%d", st.TotalJobs)
		} else if st.Total > 0 {
			jobs = fmt.Sprintf("%d/%d", st.Done, st.Total)
		}
		elapsed := "-"
		if st.ElapsedNanos > 0 {
			elapsed = time.Duration(st.ElapsedNanos).Round(time.Millisecond).String()
		}
		detail := st.Request.Name
		if st.Error != "" {
			detail = st.Error
		}
		fmt.Printf("%-28s %-8s %-20s %9s %10s  %s\n",
			st.ID, st.State, st.CreatedAt.UTC().Format("2006-01-02T15:04:05Z"), jobs, elapsed, detail)
	}
	return 0
}
