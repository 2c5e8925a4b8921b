package sweep

import (
	"fmt"

	"repro/internal/prefetch"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Size returns the number of cells.
func (g *Grid) Size() int { return len(g.Cells) }

// IndexAt returns the row-major cell index of the given per-axis value
// positions (one coordinate per axis, in declaration order).
func (g *Grid) IndexAt(coords ...int) (int, error) {
	if len(coords) != len(g.sizes) {
		return 0, fmt.Errorf("sweep %s: %d coordinates for %d axes", g.Spec.Name, len(coords), len(g.sizes))
	}
	idx := 0
	for i, c := range coords {
		if c < 0 || c >= g.sizes[i] {
			return 0, fmt.Errorf("sweep %s: coordinate %d = %d out of range [0,%d)", g.Spec.Name, i, c, g.sizes[i])
		}
		idx = idx*g.sizes[i] + c
	}
	return idx, nil
}

// Coords inverts IndexAt: the per-axis value positions of cell i.
func (g *Grid) Coords(i int) []int {
	coords := make([]int, len(g.sizes))
	for ax := len(g.sizes) - 1; ax >= 0; ax-- {
		coords[ax] = i % g.sizes[ax]
		i /= g.sizes[ax]
	}
	return coords
}

// ResultAt returns the executed result of the cell at the given per-axis
// value positions. It panics on bad coordinates or an unexecuted grid —
// grid projection is programmer input, and the figure drivers address only
// coordinates they just enumerated.
func (g *Grid) ResultAt(coords ...int) runner.Result {
	idx, err := g.IndexAt(coords...)
	if err != nil {
		panic(err)
	}
	if g.Results == nil {
		panic(fmt.Sprintf("sweep %s: grid has no results (Expand without Run?)", g.Spec.Name))
	}
	return g.Results[idx]
}

// SimAt returns the simulation outcome at the given per-axis positions.
func (g *Grid) SimAt(coords ...int) sim.Result { return g.ResultAt(coords...).Sim }

// Index resolves a point (axis name -> value key) to a row-major cell
// index. Every axis must be named exactly once.
func (g *Grid) Index(p Point) (int, error) {
	if len(p) != len(g.sizes) {
		return 0, fmt.Errorf("sweep %s: point names %d of %d axes", g.Spec.Name, len(p), len(g.sizes))
	}
	coords := make([]int, len(g.sizes))
	for name, key := range p {
		ai, ok := g.axisIdx[name]
		if !ok {
			return 0, fmt.Errorf("sweep %s: unknown axis %q", g.Spec.Name, name)
		}
		vi, ok := g.valIdx[ai][key]
		if !ok {
			return 0, fmt.Errorf("sweep %s: axis %q has no value %q", g.Spec.Name, name, key)
		}
		coords[ai] = vi
	}
	return g.IndexAt(coords...)
}

// At resolves alternating axis-name/value-key pairs to the matching cell.
func (g *Grid) At(pairs ...string) (*Cell, error) {
	if len(pairs)%2 != 0 {
		return nil, fmt.Errorf("sweep %s: At wants axis/value pairs, got %d strings", g.Spec.Name, len(pairs))
	}
	p := make(Point, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		p[pairs[i]] = pairs[i+1]
	}
	idx, err := g.Index(p)
	if err != nil {
		return nil, err
	}
	return &g.Cells[idx], nil
}

// Result resolves alternating axis/value pairs to the cell's executed
// result.
func (g *Grid) Result(pairs ...string) (runner.Result, error) {
	c, err := g.At(pairs...)
	if err != nil {
		return runner.Result{}, err
	}
	if g.Results == nil {
		return runner.Result{}, fmt.Errorf("sweep %s: grid has no results", g.Spec.Name)
	}
	return g.Results[c.Index], nil
}

// ReportJobs converts every executed cell into a persistable per-job
// result (key, point, resolved engine spec, raw sim.Result as canonical
// JSON) for the results store (results/<run-id>/jobs/<key>.json). The
// recorded engine carries every effective parameter — defaults applied,
// budget derivations resolved — so stored runs compare like-for-like. It
// fails on an unexecuted grid or any failed cell.
func (g *Grid) ReportJobs() ([]report.JobResult, error) {
	if g.Results == nil {
		return nil, fmt.Errorf("sweep %s: grid has no results", g.Spec.Name)
	}
	out := make([]report.JobResult, 0, len(g.Cells))
	for i := range g.Cells {
		c := &g.Cells[i]
		r := g.Results[i]
		if r.Err != nil {
			return nil, fmt.Errorf("sweep %s: cell %s failed: %w", g.Spec.Name, c.Key, r.Err)
		}
		jr, err := report.NewJobResult(c.Key, c.Label, c.Point, r.Sim)
		if err != nil {
			return nil, err
		}
		if c.Settings.Engine.Name != "" {
			resolved, rerr := prefetch.Resolved(c.Settings.Engine)
			if rerr != nil {
				return nil, fmt.Errorf("sweep %s: cell %s: %w", g.Spec.Name, c.Key, rerr)
			}
			jr.Engine = &report.EngineRef{Name: resolved.Name, Params: resolved.Params}
		}
		out = append(out, jr)
	}
	return out, nil
}

// AxisSummary is the serializable form of one axis: its name and ordered
// value keys.
type AxisSummary struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// CellSummary is the serializable headline of one executed cell.
type CellSummary struct {
	Key      string            `json:"key"`
	Label    string            `json:"label"`
	Point    map[string]string `json:"point"`
	UIPC     float64           `json:"uipc"`
	Coverage float64           `json:"coverage"`
	Misses   uint64            `json:"correct_misses"`
}

// Summary is the serializable headline of an executed grid, used as the
// structured data of ad-hoc `experiments sweep` artifacts. The raw per-job
// sim.Results are persisted separately (ReportJobs); the summary keeps a
// stored run readable without opening every job file.
type Summary struct {
	Name  string        `json:"name"`
	Axes  []AxisSummary `json:"axes"`
	Cells []CellSummary `json:"cells"`
}

// Summary builds the grid's serializable headline. The grid must have been
// executed by Run.
func (g *Grid) Summary() (Summary, error) {
	if g.Results == nil {
		return Summary{}, fmt.Errorf("sweep %s: grid has no results", g.Spec.Name)
	}
	s := Summary{Name: g.Spec.Name}
	for _, ax := range g.Spec.Axes {
		as := AxisSummary{Name: ax.Name}
		for _, v := range ax.Values {
			as.Values = append(as.Values, v.Key)
		}
		s.Axes = append(s.Axes, as)
	}
	for i := range g.Cells {
		c := &g.Cells[i]
		r := g.Results[i]
		if r.Err != nil {
			return Summary{}, fmt.Errorf("sweep %s: cell %s failed: %w", g.Spec.Name, c.Key, r.Err)
		}
		s.Cells = append(s.Cells, CellSummary{
			Key:      c.Key,
			Label:    c.Label,
			Point:    c.Point,
			UIPC:     r.Sim.UIPC,
			Coverage: r.Sim.Coverage(),
			Misses:   r.Sim.CorrectMisses,
		})
	}
	return s, nil
}
