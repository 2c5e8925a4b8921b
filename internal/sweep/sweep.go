// Package sweep is the declarative design-space exploration engine of the
// evaluation harness. A Spec names parameter axes — workloads, prefetch
// engine specs and their parameters, config.System mutations, sim
// options — and Expand crosses them into a Grid of keyed cells, one per
// point of the design space. Every cell holds the sim.Job it runs, and
// Run fans those jobs out through a runner backend (a sharded cell as
// several); Each runs an arbitrary per-cell analysis the same way (for
// trace-based measurements that are not simulations). Results come back
// addressable by axis values, in row-major submission order, so tables
// projected from a grid are byte-identical to the hand-rolled serial
// loops they replace.
//
// The experiment drivers in internal/experiments define their variant
// tables as Specs (fig9, fig10, table1, fig8 right, and the MANA-style
// sweep-history / sweep-l1 artifacts); the `experiments sweep` CLI mode
// builds Specs from -axis flags. Every simulated cell's raw sim.Result can
// be persisted per job through internal/report (Grid.ReportJobs), so
// sweeps finer than one artifact are diffable across commits. See
// DESIGN.md §8.
package sweep

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/prefetch"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Source axes make *what to simulate* a swept dimension alongside the
// engine and system axes: a cell may execute its workload live, replay a
// recorded trace store, or replay one window of it (sim.SliceSource on
// StoreReader.Seek), so a design-space sweep can fan out over trace
// slices without re-executing the workload per cell. A source binds once
// its cell is final. See DESIGN.md §9.

// Settings is the accumulated configuration of one cell: every axis value
// along the cell's point applies its mutation in axis order, building up
// the job the cell runs plus the sweep's own execution settings.
type Settings struct {
	// Job is the cell's simulation, seeded from Spec.Base and
	// Spec.BaseEngine; axis values mutate its fields freely. Workload is
	// required for Run. Config includes the config.System machine
	// description (PerfectL1, L1-I geometry, latencies, ...). An engine
	// axis sets Engine's name, engine-parameter axes (budget, history)
	// merge into its params, and Expand validates the assembled spec
	// against the engine's schema; a non-empty name is required by the
	// time a cell becomes a job. From is bound by a source axis once the
	// cell is final (SourceChoice.New). The cell's label becomes the
	// job's Label.
	sim.Job
	// Params carries named scalar axis values (window positions, region
	// sizes, ...) for non-engine consumers — a source axis or an Each
	// analysis. Engine parameters go through Engine instead.
	Params map[string]float64
	// Shards, when > 1, makes the cell execute as that many window-shard
	// jobs planned by sim.SplitReplay — each replaying a slice of the
	// cell's source — and stitched back into one result with
	// sim.MergeShardResults. The cell's key, label, and persisted result
	// are unchanged; only its execution fans out, so one XL cell can use
	// many workers (local or remote). Requires a sliceable source
	// (sim.Slicer): store and slice sources shard, live execution does
	// not. Seeded from Spec.BaseShards or set by a shards axis.
	Shards int
	// ShardApprox selects approximate (fixed-warmup) shard planning:
	// shards parallelize fully — the throughput mode — but the stitched
	// result matches the unsharded cell only within window tolerances.
	// The default (false) is exact planning: the merged result is
	// bit-identical to the unsharded cell (diffs stay clean), at the
	// cost of each shard re-replaying its prefix.
	ShardApprox bool

	// source is the source axis's choice; Expand binds it into From once
	// every axis of the cell has applied.
	source func(*Settings) sim.Source
}

// MergeEngine overlays an engine spec onto the cell: the engine name is
// replaced and the value's params overlay any already-applied ones.
// Param maps are cloned on write, so cells sharing a BaseEngine cannot
// contaminate each other.
func (s *Settings) MergeEngine(v prefetch.Spec) {
	s.Engine.Name = v.Name
	for k, pv := range v.Params {
		s.Engine = s.Engine.With(k, pv)
	}
}

// Value is one keyed setting of an axis. Key is the cell-key coordinate
// (file-name safe; see KeyOf); Name is the human label used in job labels
// and rendered tables (defaults to Key); Apply writes the setting into the
// cell under construction.
type Value struct {
	Key   string
	Name  string
	Apply func(*Settings)
}

// label returns the value's display name.
func (v Value) label() string {
	if v.Name != "" {
		return v.Name
	}
	return v.Key
}

// Axis is one named dimension of the design space: an ordered list of
// keyed values.
type Axis struct {
	Name   string
	Values []Value
}

// WorkloadAxis builds the canonical workload axis: one value per profile,
// keyed by the sanitized workload name, applying the profile to the cell.
func WorkloadAxis(name string, wls []workload.Profile) Axis {
	ax := Axis{Name: name}
	for _, wl := range wls {
		wl := wl
		ax.Values = append(ax.Values, Value{
			Key:   KeyOf(wl.Name),
			Name:  wl.Name,
			Apply: func(s *Settings) { s.Workload = wl },
		})
	}
	return ax
}

// EngineAxis builds a prefetch-engine axis from registry names; each
// value sets the cell's engine name while keeping any params already
// merged by parameter axes (axis order does not matter). Parameterized
// values need EngineSpecAxis.
func EngineAxis(name string, engines ...string) Axis {
	ax := Axis{Name: name}
	for _, eng := range engines {
		eng := eng
		ax.Values = append(ax.Values, Value{
			Key:   KeyOf(eng),
			Name:  eng,
			Apply: func(s *Settings) { s.Engine.Name = eng },
		})
	}
	return ax
}

// EngineSpecAxis builds a prefetch-engine axis from full specs: each
// value merges its spec into the cell (name replaced, params overlaid),
// keyed by the sanitized display name.
func EngineSpecAxis(name string, specs []prefetch.Spec, names []string) Axis {
	ax := Axis{Name: name}
	for i, spec := range specs {
		spec := spec
		display := spec.String()
		if i < len(names) && names[i] != "" {
			display = names[i]
		}
		ax.Values = append(ax.Values, Value{
			Key:   KeyOf(display),
			Name:  display,
			Apply: func(s *Settings) { s.MergeEngine(spec) },
		})
	}
	return ax
}

// EngineParamAxis builds a scalar engine-parameter axis: each value
// overlays ints[i] as param on the cell's engine spec, keyed and labeled
// by key(ints[i]) (label falls back to the key when nil). Whether the
// value is meaningful — or ignored, for engines that declare it so — is
// decided by the engine's schema when Expand validates the cell.
func EngineParamAxis(name, param string, key, label func(v int) string, ints []int) Axis {
	ax := Axis{Name: name}
	for _, v := range ints {
		v := v
		val := Value{
			Key:   key(v),
			Apply: func(s *Settings) { s.Engine = s.Engine.With(param, float64(v)) },
		}
		if label != nil {
			val.Name = label(v)
		}
		ax.Values = append(ax.Values, val)
	}
	return ax
}

// SourceChoice is one keyed value of a source axis: New builds the
// cell's record source from its settings (nil means live execution).
type SourceChoice struct {
	// Key is the cell-key coordinate; Name the display label (defaults
	// to Key).
	Key, Name string
	// New, when non-nil, constructs the cell's source. Expand calls it
	// once every axis of the cell has applied, so it reads the cell's
	// final settings (workload, params) whatever the axis order. New may
	// also adjust the settings it is handed (e.g. fit the measured
	// interval to a trace window).
	New func(s *Settings) sim.Source
}

// SourceAxis builds a record-source axis: each value records its source
// factory on the cell (the *what to simulate* dimension), so one grid
// can compare live execution against trace-store or trace-slice replay,
// or sweep a trace window across positions.
func SourceAxis(name string, choices []SourceChoice) Axis {
	ax := Axis{Name: name}
	for _, c := range choices {
		c := c
		ax.Values = append(ax.Values, Value{
			Key:   c.Key,
			Name:  c.Name,
			Apply: func(s *Settings) { s.From, s.source = nil, c.New },
		})
	}
	return ax
}

// ParamAxis builds a scalar axis: each value stores ints[i] under param in
// Settings.Params, keyed and labeled by key(ints[i]) (label falls back to
// the key when label is nil).
func ParamAxis(name, param string, key, label func(v int) string, ints []int) Axis {
	ax := Axis{Name: name}
	for _, v := range ints {
		v := v
		val := Value{
			Key:   key(v),
			Apply: func(s *Settings) { s.Params[param] = float64(v) },
		}
		if label != nil {
			val.Name = label(v)
		}
		ax.Values = append(ax.Values, val)
	}
	return ax
}

// ShardsAxis builds a shard-count axis: each value sets how many
// window-shard jobs the cell's execution fans out into (1 = unsharded;
// see Settings.Shards). Unlike Spec.BaseShards — which leaves cell keys
// untouched for clean sharded-vs-unsharded diffs — an axis makes the
// shard count a swept coordinate, for studying sharding itself.
func ShardsAxis(name string, counts []int) Axis {
	ax := Axis{Name: name}
	for _, v := range counts {
		v := v
		ax.Values = append(ax.Values, Value{
			Key:   strconv.Itoa(v),
			Apply: func(s *Settings) { s.Shards = v },
		})
	}
	return ax
}

// Spec declares a design-space sweep.
type Spec struct {
	// Name identifies the sweep; it prefixes cell keys and default job
	// labels and must be a valid job-key component (see report.ValidJobKey).
	Name string
	// Base is the starting simulation configuration of every cell (system,
	// warmup, measured interval); axis values mutate private copies.
	Base sim.Config
	// BaseEngine optionally seeds the engine spec cells start with
	// (typically a bare registry name); engine and engine-parameter axes
	// merge into it.
	BaseEngine prefetch.Spec
	// BaseShards seeds every cell's shard count (see Settings.Shards);
	// the `-shards K` CLI path. Cell keys and labels are unaffected, so
	// a sharded run diffs directly against an unsharded one. A shards
	// axis overrides it per cell (and does extend the key).
	BaseShards int
	// BaseShardApprox seeds Settings.ShardApprox.
	BaseShardApprox bool
	// Axes are the swept dimensions, crossed in order: the last axis
	// varies fastest (row-major expansion).
	Axes []Axis
}

// Point locates one cell: axis name -> value key.
type Point map[string]string

// Cell is one point of the expanded design space.
type Cell struct {
	// Index is the cell's row-major position (and job submission slot).
	Index int
	// Point maps each axis name to the cell's value key on that axis.
	Point Point
	// Key is the cell's unique, file-name-safe identity:
	// "<spec>.<axis>-<key>_<axis>-<key>...". It names the persisted
	// per-job result (results/<run-id>/jobs/<key>.json).
	Key string
	// Label is the human-readable job label
	// ("<spec>/<value name>/<value name>...").
	Label string
	// Settings is the cell's resolved configuration.
	Settings Settings
}

// KeyOf sanitizes a name into a key: lowercased, with every character
// outside [a-z0-9] mapped to '-' ("OLTP DB2" -> "oltp-db2"). Keys built
// this way satisfy report.ValidJobKey when joined by Expand.
func KeyOf(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '-'
		}
	}, name)
}

// Grid is an expanded (and, after Run, executed) design space: cells in
// row-major axis order, addressable by axis values.
type Grid struct {
	// Spec echoes the expanded specification.
	Spec Spec
	// Cells holds one cell per design point, row-major (the last axis
	// varies fastest).
	Cells []Cell
	// Results holds the simulation outcomes parallel to Cells; populated
	// by Run, nil after a plain Expand or an Each.
	Results []runner.Result

	sizes   []int            // per-axis value counts
	axisIdx map[string]int   // axis name -> position
	valIdx  []map[string]int // per-axis: value key -> position
}

// Expand validates the spec and crosses its axes into a grid of cells.
// Every axis value's Apply runs in axis order on a private Settings copy
// seeded from Base and BaseEngine; each cell's assembled engine spec is
// then validated against the engine's schema, so a bad parameter fails
// the whole sweep before any simulation starts.
func (s Spec) Expand() (*Grid, error) {
	if s.Name == "" || !report.ValidJobKey(s.Name) {
		return nil, fmt.Errorf("sweep: invalid spec name %q", s.Name)
	}
	if len(s.Axes) == 0 {
		return nil, fmt.Errorf("sweep %s: no axes", s.Name)
	}
	g := &Grid{
		Spec:    s,
		sizes:   make([]int, len(s.Axes)),
		axisIdx: make(map[string]int, len(s.Axes)),
		valIdx:  make([]map[string]int, len(s.Axes)),
	}
	total := 1
	for i, ax := range s.Axes {
		if ax.Name == "" || !report.ValidJobKey(ax.Name) {
			return nil, fmt.Errorf("sweep %s: invalid axis name %q", s.Name, ax.Name)
		}
		if _, dup := g.axisIdx[ax.Name]; dup {
			return nil, fmt.Errorf("sweep %s: duplicate axis %q", s.Name, ax.Name)
		}
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("sweep %s: axis %q has no values", s.Name, ax.Name)
		}
		g.axisIdx[ax.Name] = i
		g.sizes[i] = len(ax.Values)
		g.valIdx[i] = make(map[string]int, len(ax.Values))
		for j, v := range ax.Values {
			if v.Key == "" || !report.ValidJobKey(v.Key) {
				return nil, fmt.Errorf("sweep %s: axis %q value %d has invalid key %q", s.Name, ax.Name, j, v.Key)
			}
			if _, dup := g.valIdx[i][v.Key]; dup {
				return nil, fmt.Errorf("sweep %s: axis %q has duplicate value key %q", s.Name, ax.Name, v.Key)
			}
			g.valIdx[i][v.Key] = j
		}
		total *= len(ax.Values)
	}

	g.Cells = make([]Cell, total)
	coords := make([]int, len(s.Axes))
	for idx := 0; idx < total; idx++ {
		c := &g.Cells[idx]
		c.Index = idx
		c.Point = make(Point, len(s.Axes))
		c.Settings = Settings{
			Job:         sim.Job{Config: s.Base, Engine: s.BaseEngine},
			Params:      map[string]float64{},
			Shards:      s.BaseShards,
			ShardApprox: s.BaseShardApprox,
		}
		var key, label strings.Builder
		key.WriteString(s.Name)
		label.WriteString(s.Name)
		for i, ax := range s.Axes {
			v := ax.Values[coords[i]]
			c.Point[ax.Name] = v.Key
			sep := "_"
			if i == 0 {
				sep = "."
			}
			fmt.Fprintf(&key, "%s%s-%s", sep, ax.Name, v.Key)
			label.WriteString("/")
			label.WriteString(v.label())
			if v.Apply != nil {
				v.Apply(&c.Settings)
			}
		}
		if bind := c.Settings.source; bind != nil {
			c.Settings.From, c.Settings.source = bind(&c.Settings), nil
		}
		if c.Settings.Engine.Name != "" {
			if err := prefetch.Validate(c.Settings.Engine); err != nil {
				return nil, fmt.Errorf("sweep %s: cell %s: %w", s.Name, key.String(), err)
			}
		}
		c.Key = key.String()
		c.Label = label.String()
		if !report.ValidJobKey(c.Key) {
			return nil, fmt.Errorf("sweep %s: cell key %q is not a valid job key", s.Name, c.Key)
		}
		// Row-major odometer: the last axis varies fastest.
		for i := len(coords) - 1; i >= 0; i-- {
			coords[i]++
			if coords[i] < g.sizes[i] {
				break
			}
			coords[i] = 0
		}
	}
	return g, nil
}

// cellJob validates a cell and returns its single (unsharded) job: the
// cell's settings' job under the cell's label.
func (g *Grid) cellJob(c *Cell) (runner.Job, error) {
	if c.Settings.Workload.Name == "" {
		return runner.Job{}, fmt.Errorf("sweep %s: cell %s names no workload (add a WorkloadAxis)", g.Spec.Name, c.Key)
	}
	if c.Settings.Engine.Name == "" {
		return runner.Job{}, fmt.Errorf("sweep %s: cell %s names no engine (add an engine axis or BaseEngine)", g.Spec.Name, c.Key)
	}
	j := c.Settings.Job
	j.Label = c.Label
	return j, nil
}

// Jobs converts every cell into a runner.Job in row-major order, one job
// per cell. It fails if any cell lacks an engine spec, names no
// workload, or requests sharded execution — sharded cells expand to
// several jobs and must run through Run, which plans and stitches them.
func (g *Grid) Jobs() ([]runner.Job, error) {
	jobs := make([]runner.Job, len(g.Cells))
	for i := range g.Cells {
		c := &g.Cells[i]
		if c.Settings.Shards > 1 {
			return nil, fmt.Errorf("sweep %s: cell %s requests %d shards; sharded cells run through sweep.Run, not Jobs",
				g.Spec.Name, c.Key, c.Settings.Shards)
		}
		j, err := g.cellJob(c)
		if err != nil {
			return nil, err
		}
		jobs[i] = j
	}
	return jobs, nil
}

// Engine abstracts the execution environment a sweep runs through. It is
// implemented by *experiments.Env (which pins its workloads' program
// images) and by PoolEngine (a bare worker pool).
type Engine interface {
	// RunJobs executes simulation jobs and returns results in submission
	// order.
	RunJobs(jobs []runner.Job) ([]runner.Result, error)
	// ForEach runs fn(i) for every i in [0, n) across a worker pool; fn
	// must confine its writes to its own index.
	ForEach(n int, fn func(i int) error) error
}

// Run expands the spec and executes every cell through the engine's
// pool. Unsharded cells run as one simulation job each; cells with
// Settings.Shards > 1 fan out into per-window shard jobs (all cells'
// jobs travel in one flat batch, so shards of one cell and other cells
// parallelize together) and are stitched back into one per-cell result
// by sim.MergeShardResults. The grid's Results are attached even when
// the run fails partway (canceled contexts, job errors), so callers can
// salvage completed cells; the error reports the first failure.
func Run(eng Engine, s Spec) (*Grid, error) {
	g, err := s.Expand()
	if err != nil {
		return nil, err
	}
	p, err := g.plan()
	if err != nil {
		return nil, err
	}
	results, err := eng.RunJobs(p.jobs)
	g.Results = p.fold(g, results)
	return g, err
}

// Each expands the spec and runs fn once per cell across the engine's
// worker pool — the analysis counterpart to Run for grid measurements that
// are not simulations (trace-based coverage studies, program builds). fn
// must confine its writes to state owned by its cell.
func Each(eng Engine, s Spec, fn func(c *Cell) error) (*Grid, error) {
	g, err := s.Expand()
	if err != nil {
		return nil, err
	}
	return g, eng.ForEach(len(g.Cells), func(i int) error { return fn(&g.Cells[i]) })
}

// PoolEngine is a minimal Engine over a bare execution backend, for
// sweeps run outside an experiments environment (no program-image cache:
// each job builds its own).
type PoolEngine struct {
	// Ctx governs cancellation (nil = background).
	Ctx context.Context
	// Workers bounds the in-process backend (<= 0 = GOMAXPROCS); ignored
	// when Backend is set.
	Workers int
	// Backend, when non-nil, executes the grid's jobs (any
	// runner.Backend implementation; runs through one engine are
	// serialized by the caller). Nil selects a private in-process
	// LocalBackend per run, sized by Workers.
	Backend runner.Backend
	// OnProgress, when non-nil, receives one serialized callback per
	// completed job.
	OnProgress func(runner.Progress)
}

// RunJobs implements Engine.
func (p PoolEngine) RunJobs(jobs []runner.Job) ([]runner.Result, error) {
	if p.Backend != nil {
		return runner.RunOn(p.Ctx, p.Backend, jobs, p.OnProgress)
	}
	b := runner.NewLocalBackend(p.Workers)
	defer b.Close()
	return runner.RunOn(p.Ctx, b, jobs, p.OnProgress)
}

// ForEach implements Engine.
func (p PoolEngine) ForEach(n int, fn func(i int) error) error {
	return runner.ForEach(p.Ctx, p.Workers, n, fn)
}
