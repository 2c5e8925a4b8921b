// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver regenerates the corresponding artifact —
// the same rows and series the paper reports — against the synthetic
// workload suite, and returns both structured data (for tests and
// downstream tooling) and rendered text (for the cmd/experiments CLI).
//
// Drivers do not loop serially: figures declare their variant tables as
// design-space sweep specs (internal/sweep) whose grids fan out across
// the worker pool — simulation grids through Env.RunGrid, trace-based
// analyses through Env.EachGrid — so a full regeneration scales across
// cores while the rendered tables stay byte-identical to a serial run
// (grid results come back in row-major submission order). Every
// simulated grid cell's raw sim.Result is collected for the results
// store (Env.JobResults), so sweeps finer than one artifact can be
// diffed across runs.
//
// See DESIGN.md §3 for the experiment index, §4 for the substitutions
// made relative to the paper's testbed, and §8 for the sweep engine.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/config"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Options control the scale, system configuration, and execution of every
// experiment.
type Options struct {
	// Workloads is the evaluated suite (defaults to the six standard
	// workloads in the paper's order).
	Workloads []workload.Profile
	// SweepWorkloads is the suite the MANA-style design-space sweep
	// artifacts (sweep-history, sweep-l1) run over; nil means the XL
	// suite (workload.XLSuite), whose footprints keep storage budgets and
	// cache geometries differentiating where the standard six saturate.
	SweepWorkloads []workload.Profile
	// System is the simulated machine (Table I).
	System config.System
	// WarmupInstrs executes before measurement in simulation-based
	// experiments (and before trace analysis windows in trace-based ones)
	// so results reflect steady state, per the paper's methodology.
	WarmupInstrs uint64
	// MeasureInstrs is the measured interval length.
	MeasureInstrs uint64
	// Parallel bounds the worker pool used to fan out simulation jobs and
	// per-workload analyses; <= 0 means GOMAXPROCS. Results are identical
	// for every value.
	Parallel int
	// Backend, when non-nil, executes every simulation grid of this
	// environment through the given runner.Backend instead of a private
	// in-process pool (runs are serialized; results are identical for
	// every backend). Nil selects a fresh LocalBackend per grid, sized
	// by Parallel.
	Backend runner.Backend
	// StoreDir, when non-empty, is the environment's trace-store pool:
	// each workload's generated retire-order stream is spilled to a
	// sharded on-disk trace store under this directory and replayed for
	// every trace-based analysis and every store/slice record source, so
	// peak memory is bounded by one store chunk instead of the full
	// stream length. Stores are keyed by workload and instruction count
	// and are reused across artifacts and across processes (the paper's
	// collect-once, replay-many methodology). Results are byte-identical
	// with and without spilling.
	StoreDir string
	// TraceChunkRecords is the records-per-chunk of spilled stores
	// (0 = trace.DefaultChunkRecords).
	TraceChunkRecords uint64
	// OnProgress, when non-nil, receives one (serialized) callback per
	// completed simulation job.
	OnProgress func(runner.Progress)
}

// DefaultOptions is the full-scale configuration used by cmd/experiments.
func DefaultOptions() Options {
	return Options{
		Workloads:     workload.StandardSuite(),
		System:        config.Default(),
		WarmupInstrs:  8_000_000,
		MeasureInstrs: 2_000_000,
	}
}

// QuickOptions is a reduced-scale configuration for tests and benchmarks.
// Coverage numbers are slightly depressed (less warmup) but every shape
// assertion in the test suite holds at this scale.
func QuickOptions() Options {
	return Options{
		Workloads:     workload.StandardSuite(),
		System:        config.Default(),
		WarmupInstrs:  4_000_000,
		MeasureInstrs: 1_000_000,
	}
}

// PresetOptions is QuickOptions when quick is set, DefaultOptions
// otherwise, with nonzero warmup and measure counts overriding the
// preset's.
func PresetOptions(quick bool, warmup, measure uint64) Options {
	opts := DefaultOptions()
	if quick {
		opts = QuickOptions()
	}
	if warmup > 0 {
		opts.WarmupInstrs = warmup
	}
	if measure > 0 {
		opts.MeasureInstrs = measure
	}
	return opts
}

// SweepSuite resolves the suite the design-space sweep artifacts run
// over: Options.SweepWorkloads when set, the XL suite otherwise. Every
// consumer of the sweep suite (the artifact drivers, the CLI's default
// workload axis) resolves through here, so the default lives in exactly
// one place.
func (o Options) SweepSuite() []workload.Profile {
	if len(o.SweepWorkloads) > 0 {
		return o.SweepWorkloads
	}
	return workload.XLSuite()
}

// Validate rejects unusable options.
func (o Options) Validate() error {
	if len(o.Workloads) == 0 {
		return fmt.Errorf("experiments: no workloads")
	}
	if o.MeasureInstrs == 0 {
		return fmt.Errorf("experiments: zero measurement interval")
	}
	return o.System.Validate()
}

// memo is a single-flight cache slot: the first caller builds, every
// concurrent caller waits on the same build, and the built value is
// immutable afterwards so readers need no further synchronization.
type memo[T any] struct {
	once sync.Once
	val  T
	err  error
}

// Env caches per-workload artifacts (programs, retire-order streams) so
// that the trace-based experiments do not regenerate them repeatedly. The
// caches are safe for concurrent readers: each artifact is built exactly
// once and shared read-only across jobs. Programs, streams and spilled
// stores are keyed by the whole profile, so two profiles sharing a name
// never share one.
type Env struct {
	opts Options
	ctx  context.Context

	mu sync.Mutex
	// programs pins, for the Env's lifetime, every image Program handed
	// out; workload.ProgramFor holds images only weakly.
	programs map[workload.Profile]*workload.Program
	streams  map[workload.Profile]*memo[trace.Stream]
	spills   map[workload.Profile]*memo[string] // store directory

	// backendMu serializes grid runs through a shared Options.Backend
	// (backends serve one run at a time).
	backendMu sync.Mutex

	// Per-job results collected from every sweep grid run in this
	// environment, keyed for the results store (jobs/<key>.json). jobIdx
	// dedupes reruns of the same artifact (deterministic simulations make
	// a rerun's result identical, so replacing in place is safe).
	jobMu  sync.Mutex
	jobIdx map[string]int
	jobRes []report.JobResult
}

// NewEnv builds an environment; it panics on invalid options (experiment
// configuration is programmer input).
func NewEnv(opts Options) *Env {
	return NewEnvContext(context.Background(), opts)
}

// NewEnvContext is NewEnv with a context governing every run in the
// environment: cancellation aborts in-flight simulation jobs.
func NewEnvContext(ctx context.Context, opts Options) *Env {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return &Env{
		opts:     opts,
		ctx:      ctx,
		programs: make(map[workload.Profile]*workload.Program),
		streams:  make(map[workload.Profile]*memo[trace.Stream]),
		spills:   make(map[workload.Profile]*memo[string]),
		jobIdx:   make(map[string]int),
	}
}

// Options returns the environment's options.
func (e *Env) Options() Options { return e.opts }

// Parallel returns the environment's resolved worker-pool width.
func (e *Env) Parallel() int { return runner.Workers(e.opts.Parallel) }

// Program returns the program image for a workload from
// workload.ProgramFor and pins it for the Env's lifetime, so every later
// call, and every live job run while the Env lives, shares that image.
// Images are immutable after construction and may be shared by
// concurrent jobs.
func (e *Env) Program(p workload.Profile) (*workload.Program, error) {
	prog, err := workload.ProgramFor(p)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.programs[p] = prog
	e.mu.Unlock()
	return prog, nil
}

// Stream returns the (cached) retire-order stream covering warmup plus
// measurement for a workload. Streams are immutable after construction
// and safe for concurrent readers. When the environment spills traces to
// disk (Options.StoreDir), every call rereads the store rather than
// pinning the whole stream in memory — streaming consumers should use
// EachRecord instead.
func (e *Env) Stream(p workload.Profile) (trace.Stream, error) {
	if e.opts.StoreDir != "" {
		r, err := e.openSpilled(p)
		if err != nil {
			return nil, err
		}
		defer r.Close()
		return r.ReadAll()
	}
	e.mu.Lock()
	m, ok := e.streams[p]
	if !ok {
		m = &memo[trace.Stream]{}
		e.streams[p] = m
	}
	e.mu.Unlock()
	m.once.Do(func() {
		prog, err := e.Program(p)
		if err != nil {
			m.err = err
			return
		}
		m.val = workload.Collect(prog, e.opts.WarmupInstrs+e.opts.MeasureInstrs)
	})
	return m.val, m.err
}

// storeDirFor names a workload's spilled store: the sanitized workload
// name, a hash of the whole profile (sanitization is lossy, and two
// profiles sharing a name, such as two seeds of one workload, must never
// replay one store), and the instruction count, so stores written at
// other scales are never mistaken for the current one.
func (e *Env) storeDirFor(p workload.Profile) string {
	total := e.opts.WarmupInstrs + e.opts.MeasureInstrs
	sanitized := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '-'
		}
	}, p.Name)
	h := fnv.New32a()
	fmt.Fprintf(h, "%#v", p)
	return filepath.Join(e.opts.StoreDir, fmt.Sprintf("%s-%08x-%d", sanitized, h.Sum32(), total))
}

// Spill generates the workload's warmup+measure retire stream into a
// sharded on-disk trace store (once per environment, single-flight) and
// returns the store directory. An existing store in the profile's
// directory with the same workload name and record count is reused
// as-is — the trace is collected once and replayed by every artifact,
// and by later processes pointed at the same StoreDir. Spill requires
// Options.StoreDir.
func (e *Env) Spill(p workload.Profile) (string, error) {
	if e.opts.StoreDir == "" {
		return "", fmt.Errorf("experiments: Spill(%q) without Options.StoreDir", p.Name)
	}
	e.mu.Lock()
	m, ok := e.spills[p]
	if !ok {
		m = &memo[string]{}
		e.spills[p] = m
	}
	e.mu.Unlock()
	m.once.Do(func() { m.val, m.err = e.buildSpill(p) })
	return m.val, m.err
}

// buildSpill writes (or validates and reuses) the workload's store.
func (e *Env) buildSpill(p workload.Profile) (string, error) {
	dir := e.storeDirFor(p)
	total := e.opts.WarmupInstrs + e.opts.MeasureInstrs
	if ix, err := trace.ReadIndex(dir); err == nil {
		if ix.Workload == p.Name && ix.Records() == total {
			return dir, nil // collected by an earlier run; replay it
		}
	}
	prog, err := e.Program(p)
	if err != nil {
		return "", err
	}
	// Build into a unique sibling temp directory and rename into place,
	// so a crashed or raced build never leaves a half-written store
	// behind the final name (ReadIndex above is the validity gate either
	// way, even across processes sharing one StoreDir).
	if err := os.MkdirAll(e.opts.StoreDir, 0o755); err != nil {
		return "", err
	}
	tmp, err := os.MkdirTemp(e.opts.StoreDir, filepath.Base(dir)+".tmp-")
	if err != nil {
		return "", err
	}
	it := workload.NewIterator(prog, total)
	defer it.Close()
	if _, err := trace.BuildStore(tmp, p.Name, e.opts.TraceChunkRecords, it, total); err != nil {
		os.RemoveAll(tmp)
		return "", err
	}
	// A concurrent process racing on the same StoreDir may have completed
	// an identical build while ours ran; prefer the store already in
	// place — it may be mid-replay by that process, and deleting it out
	// from under an open StoreReader would fail its next chunk open.
	// (The recheck narrows the race window; the ReadIndex validity gate
	// protects correctness regardless.)
	if ix, rerr := trace.ReadIndex(dir); rerr == nil && ix.Workload == p.Name && ix.Records() == total {
		os.RemoveAll(tmp)
		return dir, nil
	}
	if err := os.RemoveAll(dir); err != nil {
		os.RemoveAll(tmp)
		return "", err
	}
	if err := os.Rename(tmp, dir); err != nil {
		// Same race, lost on the rename instead: use the winner's store.
		if ix, rerr := trace.ReadIndex(dir); rerr == nil && ix.Workload == p.Name && ix.Records() == total {
			os.RemoveAll(tmp)
			return dir, nil
		}
		os.RemoveAll(tmp)
		return "", err
	}
	return dir, nil
}

// EachRecord replays the workload's warmup+measure retire stream one
// record at a time: from the spilled on-disk store when the environment
// spills traces (peak memory one chunk), from the cached in-memory stream
// otherwise. It is the streaming access path every trace-based driver
// uses; results are identical either way.
func (e *Env) EachRecord(p workload.Profile, fn func(trace.Record)) error {
	if e.opts.StoreDir == "" {
		s, err := e.Stream(p)
		if err != nil {
			return err
		}
		for _, r := range s {
			fn(r)
		}
		return nil
	}
	r, err := e.openSpilled(p)
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		fn(rec)
	}
}

// openSpilled opens the workload's spilled store and double-checks the
// stored workload name — the last line of defense against a store
// clobbered by a raced build for a different workload.
func (e *Env) openSpilled(p workload.Profile) (*trace.StoreReader, error) {
	dir, err := e.Spill(p)
	if err != nil {
		return nil, err
	}
	r, err := trace.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	if r.Workload() != p.Name {
		r.Close()
		return nil, fmt.Errorf("experiments: store %s holds workload %q, want %q", dir, r.Workload(), p.Name)
	}
	return r, nil
}

// RunJobs executes simulation jobs through the environment's execution
// backend (Options.Backend, or a private in-process LocalBackend) and
// returns results in submission order. On its own pool it first pins
// each live job's program image (Env.Program), which the job then finds
// through workload.ProgramFor. A set backend is remote in production
// (remote.DialSpec returns nil for local): its workers take images from
// their own cache, so this side builds none.
func (e *Env) RunJobs(jobs []runner.Job) ([]runner.Result, error) {
	if e.opts.Backend != nil {
		// A shared backend serves one run at a time (the Backend
		// contract); concurrent grids in one environment serialize here.
		e.backendMu.Lock()
		defer e.backendMu.Unlock()
		return runner.RunOn(e.ctx, e.opts.Backend, jobs, e.opts.OnProgress)
	}
	for _, j := range jobs {
		// Replay jobs never touch the program, and a job carrying its own
		// image needs no other.
		if j.Program == nil && j.Source == nil {
			if _, err := e.Program(j.Workload); err != nil {
				return nil, err
			}
		}
	}
	b := runner.NewLocalBackend(e.opts.Parallel)
	defer b.Close()
	return runner.RunOn(e.ctx, b, jobs, e.opts.OnProgress)
}

// SourceFor returns the environment's record source for a workload's
// warmup+measure stream: a store source over the spilled sharded store
// when the environment persists traces (Options.StoreDir), a source over
// the cached in-memory stream otherwise. Results are byte-identical
// either way; the source is resolved lazily at Open, so building the
// grid costs nothing.
func (e *Env) SourceFor(p workload.Profile) sim.Source {
	total := e.opts.WarmupInstrs + e.opts.MeasureInstrs
	return e.windowSource(p, trace.Window{Off: 0, Len: total}, "store")
}

// WindowSource returns the record source replaying only window w of the
// workload's warmup+measure stream: a slice of the spilled store
// (sim.SliceSource on StoreReader.Seek) when the environment persists
// traces, a sub-range of the cached in-memory stream otherwise. A window
// outside the recorded range is a hard error at open time. Sweeping many
// windows of one workload replays one recorded trace — the workload is
// never re-executed per cell.
func (e *Env) WindowSource(p workload.Profile, w trace.Window) sim.Source {
	return e.windowSource(p, w, "slice")
}

// windowSource builds the lazy dual-path source behind SourceFor and
// WindowSource.
func (e *Env) windowSource(p workload.Profile, w trace.Window, kind string) sim.Source {
	return envSource{e: e, p: p, w: w, kind: kind}
}

// envSource replays window w of a workload's warmup+measure stream from
// the environment: the spilled on-disk store when the environment
// persists traces, the cached in-memory stream otherwise. It implements
// sim.Slicer, so sharded sweep execution can split env-backed cells the
// same way it splits explicit store sources.
type envSource struct {
	e    *Env
	p    workload.Profile
	w    trace.Window
	kind string
}

// Open implements sim.Source; the spill (or stream build) happens here,
// so constructing the source costs nothing.
func (s envSource) Open(ctx context.Context) (trace.BatchIterator, sim.SourceInfo, error) {
	if s.p.Name == "" {
		return nil, sim.SourceInfo{}, fmt.Errorf("experiments: %s source has no workload (apply a workload axis before resolving sources)", s.kind)
	}
	if s.e.opts.StoreDir != "" {
		dir, err := s.e.Spill(s.p)
		if err != nil {
			return nil, sim.SourceInfo{}, err
		}
		if s.kind == "store" {
			return sim.StoreSource(dir).Open(ctx)
		}
		return sim.SliceSource(dir, s.w).Open(ctx)
	}
	str, err := s.e.Stream(s.p)
	if err != nil {
		return nil, sim.SourceInfo{}, err
	}
	if s.w.Len == 0 || s.w.End() > uint64(len(str)) || s.w.End() < s.w.Off {
		return nil, sim.SourceInfo{}, fmt.Errorf("experiments: window %s of %q out of range (stream holds %d records)", s.w, s.p.Name, len(str))
	}
	return str[s.w.Off:s.w.End()].Iter(), sim.SourceInfo{
		Kind:     s.kind,
		Workload: s.p.Name,
		Records:  s.w.Len,
		Window:   s.w,
	}, nil
}

// Slice implements sim.Slicer: windows compose relative to this source's
// own window, identically over the spilled-store and in-memory paths.
// The sub-source opens as a slice regardless of this source's kind.
func (s envSource) Slice(w trace.Window) (sim.Source, error) {
	if w.End() > s.w.Len {
		return nil, fmt.Errorf("experiments: slice window %s exceeds source window %s of %q", w, s.w, s.p.Name)
	}
	return envSource{
		e:    s.e,
		p:    s.p,
		w:    trace.Window{Off: s.w.Off + w.Off, Len: w.Len},
		kind: "slice",
	}, nil
}

// ForEach runs fn(i) for every i in [0, n) across the environment's
// worker pool. fn must confine its writes to its own index.
func (e *Env) ForEach(n int, fn func(i int) error) error {
	return runner.ForEach(e.ctx, e.opts.Parallel, n, fn)
}

// ForEachWorkload runs fn for every workload of the suite across the
// environment's worker pool. fn must confine its writes to its own index.
func (e *Env) ForEachWorkload(fn func(i int, wl workload.Profile) error) error {
	return e.ForEach(len(e.opts.Workloads), func(i int) error {
		return fn(i, e.opts.Workloads[i])
	})
}

// SweepWorkloads returns the suite the design-space sweep artifacts run
// over (Options.SweepSuite).
func (e *Env) SweepWorkloads() []workload.Profile {
	return e.opts.SweepSuite()
}

// RunGrid expands a sweep spec and executes every cell as a simulation
// job through the environment (pinned program images, bounded pool,
// context cancellation). On success the grid's raw per-job results are
// recorded for the results store — `experiments -out` persists them as
// jobs/<key>.json so any grid cell of any artifact can be diffed across
// runs.
func (e *Env) RunGrid(s sweep.Spec) (*sweep.Grid, error) {
	g, err := sweep.Run(e, s)
	if err != nil {
		return g, err
	}
	jrs, err := g.ReportJobs()
	if err != nil {
		return g, err
	}
	e.recordJobs(jrs)
	return g, nil
}

// EachGrid expands a sweep spec and fans a per-cell analysis out across
// the environment's worker pool (the non-simulation counterpart of
// RunGrid, for trace-based grid measurements).
func (e *Env) EachGrid(s sweep.Spec, fn func(c *sweep.Cell) error) (*sweep.Grid, error) {
	return sweep.Each(e, s, fn)
}

// recordJobs merges per-job results into the environment's collection,
// replacing earlier results with the same key (artifact reruns).
func (e *Env) recordJobs(jrs []report.JobResult) {
	e.jobMu.Lock()
	defer e.jobMu.Unlock()
	for _, jr := range jrs {
		if i, ok := e.jobIdx[jr.Key]; ok {
			e.jobRes[i] = jr
			continue
		}
		e.jobIdx[jr.Key] = len(e.jobRes)
		e.jobRes = append(e.jobRes, jr)
	}
}

// JobResults returns every raw per-job result collected from sweep grids
// run in this environment, in first-run order.
func (e *Env) JobResults() []report.JobResult {
	e.jobMu.Lock()
	defer e.jobMu.Unlock()
	out := make([]report.JobResult, len(e.jobRes))
	copy(out, e.jobRes)
	return out
}

// SimConfig returns the simulation configuration implied by the options.
func (o Options) SimConfig() sim.Config {
	return sim.Config{
		System:        o.System,
		WarmupInstrs:  o.WarmupInstrs,
		MeasureInstrs: o.MeasureInstrs,
	}
}

// Report is one regenerated experiment artifact: the rendered text plus
// the driver's typed result, so downstream tooling (the results store,
// the golden regression suite) never re-parses tables.
type Report struct {
	// ID is the artifact identifier ("fig2", "table1", ...).
	ID string `json:"id"`
	// Title describes the artifact.
	Title string `json:"title"`
	// Text is the rendered result.
	Text string `json:"text"`
	// Data is the driver's typed result (Fig2Result, Fig10Result, ...),
	// JSON-marshalable with stable field names.
	Data any `json:"data,omitempty"`
}

// Artifact converts the report into its serializable schema form.
func (r Report) Artifact() (report.Artifact, error) {
	return report.NewArtifact(r.ID, r.Title, r.Text, r.Data)
}

// Artifacts converts a report slice (e.g. a RunAll result) into schema
// artifacts, preserving order.
func Artifacts(reps []Report) ([]report.Artifact, error) {
	arts := make([]report.Artifact, 0, len(reps))
	for _, rep := range reps {
		a, err := rep.Artifact()
		if err != nil {
			return nil, err
		}
		arts = append(arts, a)
	}
	return arts, nil
}

// RunOptions returns the serializable form of the options for run
// metadata (results-store run.json).
func (o Options) RunOptions() report.RunOptions {
	names := make([]string, len(o.Workloads))
	for i, wl := range o.Workloads {
		names[i] = wl.Name
	}
	// Record the sweep suite only when explicitly overridden: an absent
	// field means "the default" (the XL suite — or, for runs that never
	// executed a sweep artifact, nothing at all). Unconditionally stamping
	// the default here would claim XL workloads ran in runs where they
	// did not.
	var sweepNames []string
	for _, wl := range o.SweepWorkloads {
		sweepNames = append(sweepNames, wl.Name)
	}
	return report.RunOptions{
		Workloads:      names,
		SweepWorkloads: sweepNames,
		WarmupInstrs:   o.WarmupInstrs,
		MeasureInstrs:  o.MeasureInstrs,
		Parallel:       o.Parallel,
		System:         o.System,
	}
}

// Runner regenerates one artifact.
type Runner func(e *Env) (Report, error)

// registry maps artifact IDs to runners, populated by init functions in
// the per-figure files.
var registry = map[string]Runner{}

func register(id string, r Runner) { registry[id] = r }

// IDs returns the registered artifact identifiers in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run regenerates one artifact by ID.
func Run(e *Env, id string) (Report, error) {
	r, ok := registry[id]
	if !ok {
		return Report{}, fmt.Errorf("experiments: unknown artifact %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return r(e)
}

// RunAll regenerates every registered artifact in ID order. Artifacts run
// one after another; each fans its own jobs out across the environment's
// worker pool.
func RunAll(e *Env) ([]Report, error) {
	var out []Report
	for _, id := range IDs() {
		rep, err := Run(e, id)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", id, err)
		}
		out = append(out, rep)
	}
	return out, nil
}
