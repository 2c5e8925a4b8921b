package experiments

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/report"
	"repro/internal/sweep"
)

// SweepRequest is one ad-hoc design-space sweep: what the `experiments
// sweep` and `experiments submit` flags declare, and what the experiment
// service (internal/expsvc) accepts and records. Both paths build, run
// and store a sweep through this type, Spec, RunSweep and SweepRun.Save,
// so a service run and a CLI run of one request store byte-identical
// artifacts and per-job results.
type SweepRequest struct {
	// Name names the sweep (and the stored grid-summary artifact).
	Name string `json:"name"`
	// Axes are -axis specs ("workload=xl", "engine=pif,tifs", ...).
	Axes []string `json:"axes,omitempty"`
	// Engines are repeated -engine specs ("pif:history=64K", ...).
	Engines []string `json:"engines,omitempty"`
	// Source is the -source shorthand (a one-value source axis).
	Source string `json:"source,omitempty"`
	// Shards is -shards: split every cell's replay into K window-shard
	// jobs (0 = unsharded).
	Shards int `json:"shards,omitempty"`
	// ShardApprox is -shard-approx (fixed per-shard warmup).
	ShardApprox bool `json:"shard_approx,omitempty"`
	// Quick selects the reduced-scale option preset (-quick).
	Quick bool `json:"quick,omitempty"`
	// WarmupInstrs / MeasureInstrs override the preset (0 = preset).
	WarmupInstrs  uint64 `json:"warmup_instrs,omitempty"`
	MeasureInstrs uint64 `json:"measure_instrs,omitempty"`
}

// Spec builds the request's sweep spec in env: BuildSweep over the axes
// (plus a one-value source axis for Source) and engine specs, with every
// cell split into Shards window-shard jobs. A malformed request is a
// usage error, reported before any simulation starts.
func (r SweepRequest) Spec(env *Env) (sweep.Spec, error) {
	axes := r.Axes
	if r.Source != "" {
		axes = append(slices.Clip(axes), "source="+r.Source)
	}
	spec, err := BuildSweep(env, r.Name, axes, r.Engines)
	if err != nil {
		return sweep.Spec{}, err
	}
	if r.Shards < 0 {
		return sweep.Spec{}, fmt.Errorf("experiments: -shards must be >= 0")
	}
	spec.BaseShards = r.Shards
	spec.BaseShardApprox = r.ShardApprox
	return spec, nil
}

// SweepRun is one executed ad-hoc sweep.
type SweepRun struct {
	// Summary is the grid's headline, one cell per grid cell; it is the
	// stored artifact's data.
	Summary sweep.Summary
	// Elapsed is the grid's wall clock.
	Elapsed time.Duration
	// Jobs are the raw per-job results of every cell.
	Jobs []report.JobResult

	opts report.RunOptions
}

// RunSweep executes spec in env and collects what a sweep prints and
// stores.
func RunSweep(env *Env, spec sweep.Spec) (SweepRun, error) {
	start := time.Now()
	grid, err := env.RunGrid(spec)
	if err != nil {
		return SweepRun{}, err
	}
	elapsed := time.Since(start)
	summary, err := grid.Summary()
	if err != nil {
		return SweepRun{}, err
	}
	return SweepRun{Summary: summary, Elapsed: elapsed, Jobs: env.JobResults(), opts: env.Options().RunOptions()}, nil
}

// Save stores the sweep in dir as run id: the grid-summary artifact and
// run.json (report.Save), then jobs/<key>.json (report.SaveJobResults).
func (r SweepRun) Save(dir, id string) error {
	art, err := report.NewArtifact(r.Summary.Name, "ad-hoc design-space sweep", "", r.Summary)
	if err != nil {
		return err
	}
	run := report.Run{
		ID:         id,
		CreatedAt:  time.Now().UTC(),
		Options:    r.opts,
		TotalNanos: int64(r.Elapsed),
	}
	if err := report.Save(dir, run, []report.Artifact{art}); err != nil {
		return err
	}
	return report.SaveJobResults(dir, r.Jobs)
}
