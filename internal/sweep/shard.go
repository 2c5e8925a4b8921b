// Sharded sweep-cell execution: cells whose Settings request Shards > 1
// are planned into per-window shard jobs (sim.SplitReplay over the
// cell's sliceable source) and their results stitched back into one
// per-cell Result (sim.MergeShardResults). Planning and stitching live
// here; the flat job batch still executes through whatever Engine the
// caller supplies, so sharded cells distribute across local workers and
// remote backends alike. See DESIGN.md §13.

package sweep

import (
	"fmt"

	"repro/internal/runner"
	"repro/internal/sim"
)

// runPlan is a grid's execution layout: the flat job batch plus, per
// cell, the job slots that belong to it.
type runPlan struct {
	jobs  []runner.Job
	cells []cellSlots
}

// cellSlots maps one cell to its job indices: a single slot for an
// unsharded cell, one per shard otherwise.
type cellSlots struct {
	slots   []int
	sharded bool
}

// plan lays out the grid's jobs, expanding sharded cells. Shard jobs
// inherit everything from the cell job except the warmup/offset/measure
// split and the source, which are per-plan slices of the cell's source;
// their labels carry a "[shard k/K]" suffix for progress output.
func (g *Grid) plan() (*runPlan, error) {
	p := &runPlan{cells: make([]cellSlots, len(g.Cells))}
	for i := range g.Cells {
		c := &g.Cells[i]
		base, err := g.cellJob(c)
		if err != nil {
			return nil, err
		}
		if c.Settings.Shards <= 1 {
			p.cells[i] = cellSlots{slots: []int{len(p.jobs)}}
			p.jobs = append(p.jobs, base)
			continue
		}
		slicer, ok := c.Settings.From.(sim.Slicer)
		if !ok {
			return nil, fmt.Errorf("sweep %s: cell %s requests %d shards but its source (%T) is not sliceable; sharded cells need a store or slice source",
				g.Spec.Name, c.Key, c.Settings.Shards, c.Settings.From)
		}
		plans, err := sim.SplitReplay(c.Settings.Config, c.Settings.Shards, !c.Settings.ShardApprox)
		if err != nil {
			return nil, fmt.Errorf("sweep %s: cell %s: %w", g.Spec.Name, c.Key, err)
		}
		slots := make([]int, len(plans))
		for k, sp := range plans {
			src, err := slicer.Slice(sp.Window)
			if err != nil {
				return nil, fmt.Errorf("sweep %s: cell %s shard %d: %w", g.Spec.Name, c.Key, k, err)
			}
			j := base
			j.Label = fmt.Sprintf("%s [shard %d/%d]", base.Label, k+1, len(plans))
			j.Config = sp.Config(c.Settings.Config)
			j.From = src
			slots[k] = len(p.jobs)
			p.jobs = append(p.jobs, j)
		}
		p.cells[i] = cellSlots{slots: slots, sharded: true}
	}
	return p, nil
}

// fold collapses the flat job results back to one Result per cell,
// merging shard results in shard order. A cell whose shards were not all
// executed (the engine bailed early) or whose merge fails carries the
// failure in its Err; per-cell results are always indexed and labeled as
// the cell, so downstream consumers (ReportJobs, Summary, projections)
// see sharded and unsharded grids identically.
func (p *runPlan) fold(g *Grid, results []runner.Result) []runner.Result {
	out := make([]runner.Result, len(g.Cells))
	for i := range g.Cells {
		c := &g.Cells[i]
		cp := p.cells[i]
		out[i] = runner.Result{Index: c.Index, Label: c.Label}
		missing := false
		for _, s := range cp.slots {
			if s >= len(results) {
				missing = true
			}
		}
		if missing {
			out[i].Err = fmt.Errorf("sweep %s: cell %s: run ended before all of its jobs completed", g.Spec.Name, c.Key)
			continue
		}
		if !cp.sharded {
			r := results[cp.slots[0]]
			out[i].Sim, out[i].Err, out[i].Elapsed = r.Sim, r.Err, r.Elapsed
			continue
		}
		sims := make([]sim.Result, len(cp.slots))
		for k, s := range cp.slots {
			r := results[s]
			if r.Err != nil {
				out[i].Err = fmt.Errorf("sweep %s: cell %s shard %d/%d: %w", g.Spec.Name, c.Key, k+1, len(cp.slots), r.Err)
				break
			}
			sims[k] = r.Sim
			// The cell's elapsed time is its critical path: the slowest
			// shard, since shards run concurrently.
			if r.Elapsed > out[i].Elapsed {
				out[i].Elapsed = r.Elapsed
			}
		}
		if out[i].Err != nil {
			continue
		}
		merged, err := sim.MergeShardResults(sims)
		if err != nil {
			out[i].Err = fmt.Errorf("sweep %s: cell %s: %w", g.Spec.Name, c.Key, err)
			continue
		}
		out[i].Sim = merged
	}
	return out
}
