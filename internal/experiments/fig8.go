package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/prefetch"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fig8Geometry is the wide observation window for the offset study:
// Figure 8 (left) plots offsets from -4 to +12 around the trigger.
var fig8Geometry = core.Geometry{Prec: 4, Succ: 12}

// Fig8LeftResult holds the access-offset distribution per suite.
type Fig8LeftResult struct {
	Suites []string `json:"suites"`
	// Offsets runs -4..-1, 1..12 (the trigger itself is omitted, as in
	// the paper's figure).
	Offsets []int `json:"offsets"`
	// Frac[suite][offset index]: fraction of non-trigger references in
	// spatial regions at that offset.
	Frac [][]float64 `json:"frac"`
}

// Fig8Left reproduces Figure 8 (left), the distribution of accesses around
// the trigger block, aggregated per suite (OLTP/DSS/Web) as in the paper.
// Workloads are analyzed in parallel into private histograms, then merged
// per suite in workload order, so the aggregation is deterministic.
func Fig8Left(e *Env) (Fig8LeftResult, error) {
	opts := e.Options()
	perWL := make([]*stats.Histogram, len(opts.Workloads))
	err := e.ForEachWorkload(func(i int, wl workload.Profile) error {
		h := stats.NewHistogram()
		perWL[i] = h
		sc := core.NewSpatialCompactor(fig8Geometry)
		var (
			lastBlk isa.Block
			have    bool
			instrs  uint64
		)
		observe := func(r core.Region, ok bool) {
			if !ok {
				return
			}
			for _, b := range r.Blocks(fig8Geometry, nil) {
				if d := r.Trigger.Distance(b); d != 0 {
					h.Observe(d)
				}
			}
		}
		if err := e.EachRecord(wl, func(rec trace.Record) {
			instrs++
			if instrs < opts.WarmupInstrs {
				return
			}
			b := rec.Block()
			if have && b == lastBlk {
				return
			}
			lastBlk, have = b, true
			r, emitted := sc.Observe(b, rec.TL, false)
			observe(r, emitted)
		}); err != nil {
			return err
		}
		observe(sc.Flush())
		return nil
	})
	if err != nil {
		return Fig8LeftResult{}, err
	}

	perSuite := map[string]*stats.Histogram{}
	var suites []string
	for i, wl := range opts.Workloads {
		h, ok := perSuite[wl.Suite]
		if !ok {
			h = stats.NewHistogram()
			perSuite[wl.Suite] = h
			suites = append(suites, wl.Suite)
		}
		for d := -fig8Geometry.Prec; d <= fig8Geometry.Succ; d++ {
			if n := perWL[i].Count(d); n > 0 {
				h.ObserveN(d, n)
			}
		}
	}

	res := Fig8LeftResult{Suites: suites}
	for d := -fig8Geometry.Prec; d <= fig8Geometry.Succ; d++ {
		if d != 0 {
			res.Offsets = append(res.Offsets, d)
		}
	}
	for _, s := range suites {
		h := perSuite[s]
		row := make([]float64, len(res.Offsets))
		for i, d := range res.Offsets {
			row[i] = h.Fraction(d)
		}
		res.Frac = append(res.Frac, row)
	}
	return res, nil
}

// Render formats the offset distribution.
func (r Fig8LeftResult) Render() string {
	cols := make([]string, len(r.Offsets))
	for i, d := range r.Offsets {
		cols[i] = fmt.Sprintf("%+d", d)
	}
	tab := &stats.Table{
		Title:   "Figure 8 (left): references within spatial regions by distance from trigger",
		ColName: cols,
	}
	for i, s := range r.Suites {
		tab.AddRow(s, r.Frac[i]...)
	}
	return tab.Render(true)
}

// Fig8RegionSizes are the swept region sizes (total blocks per record).
var Fig8RegionSizes = []int{1, 2, 4, 6, 8}

// fig8GeometryFor maps a region size to a geometry skewed after the
// trigger, keeping at most two preceding blocks (the paper's conclusion).
func fig8GeometryFor(size int) core.Geometry {
	prec := 0
	switch {
	case size >= 8:
		prec = 2
	case size >= 4:
		prec = 1
	}
	return core.Geometry{Prec: prec, Succ: size - 1 - prec}
}

// Fig8RightResult holds the region-size sensitivity split by trap level.
type Fig8RightResult struct {
	Workloads []string `json:"workloads"`
	Sizes     []int    `json:"sizes"`
	// TL0[workload][size index] and TL1[...]: PIF coverage of correct-path
	// misses at that trap level.
	TL0 [][]float64 `json:"tl0"`
	TL1 [][]float64 `json:"tl1"`
}

// Fig8Result bundles both panels of Figure 8 for the structured report.
type Fig8Result struct {
	Left  Fig8LeftResult  `json:"left"`
	Right Fig8RightResult `json:"right"`
}

// Fig8Right reproduces Figure 8 (right): *predictor* coverage as the
// spatial region size varies, reported separately for application (TL0)
// and trap handler (TL1) fetches. Following the paper's sensitivity
// methodology (see Section 5.4's note), this is a trace-based measurement
// over the retire-order stream: the cache is not perturbed, so the effect
// of the region geometry is isolated from pollution artifacts.
func Fig8Right(e *Env) (Fig8RightResult, error) {
	opts := e.Options()
	nw, ns := len(opts.Workloads), len(Fig8RegionSizes)
	res := Fig8RightResult{
		Sizes:     Fig8RegionSizes,
		Workloads: make([]string, nw),
		TL0:       make([][]float64, nw),
		TL1:       make([][]float64, nw),
	}
	for i, wl := range opts.Workloads {
		res.Workloads[i] = wl.Name
		res.TL0[i] = make([]float64, ns)
		res.TL1[i] = make([]float64, ns)
	}
	// The (workload × region size) design space as a sweep spec; the cells
	// are trace-based analyses rather than simulations, so the grid fans
	// out through EachGrid and each cell writes its own result slot.
	_, err := e.EachGrid(sweep.Spec{
		Name: "fig8R",
		Base: opts.SimConfig(),
		Axes: []sweep.Axis{
			sweep.WorkloadAxis("workload", opts.Workloads),
			sweep.ParamAxis("size", "size", func(v int) string { return fmt.Sprintf("%d", v) }, nil, Fig8RegionSizes),
		},
	}, func(c *sweep.Cell) error {
		wi, si := c.Index/ns, c.Index%ns
		cfg := core.DefaultConfig()
		cfg.Geometry = fig8GeometryFor(int(c.Settings.Params["size"]))
		var err error
		res.TL0[wi][si], res.TL1[wi][si], err = predictorCoverageByTL(e, c.Settings.Workload, cfg)
		return err
	})
	return res, err
}

// exposureIssuer records would-be prefetches with a TTL clock, standing in
// for the cache in trace-based predictor-coverage measurements.
type exposureIssuer struct {
	gen   map[isa.Block]uint64
	now   uint64
	reads uint64
}

func newExposureIssuer() *exposureIssuer {
	return &exposureIssuer{gen: make(map[isa.Block]uint64)}
}

// Prefetch implements prefetch.Issuer. Nothing is ever resident, so
// every prediction is recorded, refreshing its TTL.
func (x *exposureIssuer) Prefetch(b isa.Block) { x.gen[b] = x.now }

// Evictions implements prefetch.Issuer. It keeps nothing resident, so it
// returns a new value on every call: an engine never skips a re-issue,
// and every re-issue refreshes its blocks' TTLs.
func (x *exposureIssuer) Evictions() uint64 {
	x.reads++
	return x.reads
}

func (x *exposureIssuer) predicted(b isa.Block) bool {
	g, ok := x.gen[b]
	return ok && x.now-g <= exposureTTL
}

// predictorCoverageByTL feeds the block-grain retire stream through PIF's
// recording and replay machinery and measures, per trap level, the
// fraction of block events that had been predicted (exposed) beforehand.
func predictorCoverageByTL(e *Env, wl workload.Profile, cfg core.Config) (tl0, tl1 float64, err error) {
	opts := e.Options()
	pif := core.New(cfg)
	iss := newExposureIssuer()
	var (
		instrs  uint64
		covered [isa.NumTrapLevels]uint64
		total   [isa.NumTrapLevels]uint64
		lastBlk [isa.NumTrapLevels]isa.Block
		haveBlk [isa.NumTrapLevels]bool
	)
	err = e.EachRecord(wl, func(rec trace.Record) {
		instrs++
		tl := rec.TL
		b := rec.Block()
		if haveBlk[tl] && lastBlk[tl] == b {
			return
		}
		lastBlk[tl], haveBlk[tl] = b, true
		iss.now++
		if instrs >= opts.WarmupInstrs {
			total[tl]++
			if iss.predicted(b) || pif.InWindow(b, tl) {
				covered[tl]++
			}
		}
		pif.OnAccess(prefetch.AccessEvent{Block: b, TL: tl}, iss)
		pif.OnRetire(rec, true, iss)
	})
	if err != nil {
		return 0, 0, err
	}
	cov := func(tl isa.TrapLevel) float64 {
		if total[tl] == 0 {
			return 0
		}
		return float64(covered[tl]) / float64(total[tl])
	}
	return cov(isa.TL0), cov(isa.TL1), nil
}

// Render formats the region-size sensitivity like the paper's grouped bars.
func (r Fig8RightResult) Render() string {
	cols := make([]string, 0, 2*len(r.Sizes))
	for _, s := range r.Sizes {
		cols = append(cols, fmt.Sprintf("TL0/%d", s))
	}
	for _, s := range r.Sizes {
		cols = append(cols, fmt.Sprintf("TL1/%d", s))
	}
	tab := &stats.Table{
		Title:   "Figure 8 (right): coverage vs spatial region size, by trap level",
		ColName: cols,
	}
	for i, w := range r.Workloads {
		vals := append(append([]float64{}, r.TL0[i]...), r.TL1[i]...)
		tab.AddRow(w, vals...)
	}
	return tab.Render(true)
}

func init() {
	register("fig8", func(e *Env) (Report, error) {
		left, err := Fig8Left(e)
		if err != nil {
			return Report{}, err
		}
		right, err := Fig8Right(e)
		if err != nil {
			return Report{}, err
		}
		return Report{
			ID:    "fig8",
			Title: "Trigger-offset distribution and region size sensitivity",
			Text:  left.Render() + "\n" + right.Render(),
			Data:  Fig8Result{Left: left, Right: right},
		}, nil
	})
}
