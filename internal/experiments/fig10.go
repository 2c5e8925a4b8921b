package experiments

import (
	"repro/internal/prefetch"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// Fig10Result holds the competitive comparison: L1 miss coverage and
// speedup (UIPC normalized to the no-prefetch baseline) per workload for
// the next-line prefetcher, TIFS, PIF, and the perfect-latency L1.
type Fig10Result struct {
	Workloads []string `json:"workloads"`

	// Miss coverage relative to the no-prefetch baseline miss count.
	NextLineCov []float64 `json:"next_line_cov"`
	TIFSCov     []float64 `json:"tifs_cov"`
	PIFCov      []float64 `json:"pif_cov"`

	// Speedups over the no-prefetch baseline.
	NextLineSpeedup []float64 `json:"next_line_speedup"`
	TIFSSpeedup     []float64 `json:"tifs_speedup"`
	PIFSpeedup      []float64 `json:"pif_speedup"`
	PerfectSpeedup  []float64 `json:"perfect_speedup"`
}

// NextLineDegree is the aggressive next-line configuration compared
// against (degree-4 sequential prefetch).
const NextLineDegree = 4

// Fig10 reproduces Figure 10: the left panel's miss coverage (fraction of
// the baseline's correct-path misses eliminated) and the right panel's
// speedup, for Next-Line, TIFS, PIF, and the perfect-latency L1 bound.
// TIFS and PIF run with unlimited history, matching the paper's
// competitive comparison "without history storage limitations".
//
// The competitive comparison is a (workload × engine) sweep spec: the
// engine axis carries the five variants (the perfect-L1 value also
// mutates the sim options), and both panels are projections of the
// executed grid.
func Fig10(e *Env) (Fig10Result, error) {
	opts := e.Options()
	res := Fig10Result{}

	unlimited := float64(1 << 22) // effectively unlimited history/index

	mkValue := func(name string, spec prefetch.Spec, perfect bool) sweep.Value {
		return sweep.Value{
			Key:  sweep.KeyOf(name),
			Name: name,
			Apply: func(s *sweep.Settings) {
				s.Engine = spec
				s.Config.PerfectL1 = perfect
			},
		}
	}
	engines := sweep.Axis{Name: "engine", Values: []sweep.Value{
		mkValue("None", prefetch.Spec{Name: "none"}, false),
		mkValue("Next-Line", prefetch.Spec{Name: "nextline",
			Params: map[string]float64{"degree": NextLineDegree}}, false),
		// TIFS defaults to unlimited history (HistoryBlocks 0).
		mkValue("TIFS", prefetch.Spec{Name: "tifs"}, false),
		mkValue("PIF", prefetch.Spec{Name: "pif",
			Params: map[string]float64{"history": unlimited, "index": unlimited}}, false),
		mkValue("Perfect", prefetch.Spec{Name: "none"}, true),
	}}

	g, err := e.RunGrid(sweep.Spec{
		Name: "fig10",
		Base: opts.SimConfig(),
		Axes: []sweep.Axis{sweep.WorkloadAxis("workload", opts.Workloads), engines},
	})
	if err != nil {
		return res, err
	}

	for wi, wl := range opts.Workloads {
		base, nl, tifs, pif, perf := g.SimAt(wi, 0), g.SimAt(wi, 1), g.SimAt(wi, 2), g.SimAt(wi, 3), g.SimAt(wi, 4)

		res.Workloads = append(res.Workloads, wl.Name)
		res.NextLineCov = append(res.NextLineCov, coverageVs(base, nl))
		res.TIFSCov = append(res.TIFSCov, coverageVs(base, tifs))
		res.PIFCov = append(res.PIFCov, coverageVs(base, pif))
		res.NextLineSpeedup = append(res.NextLineSpeedup, speedupVs(base, nl))
		res.TIFSSpeedup = append(res.TIFSSpeedup, speedupVs(base, tifs))
		res.PIFSpeedup = append(res.PIFSpeedup, speedupVs(base, pif))
		res.PerfectSpeedup = append(res.PerfectSpeedup, speedupVs(base, perf))
	}
	return res, nil
}

// MeanPIFSpeedup returns the average PIF speedup (the paper's headline
// "27% on average").
func (r Fig10Result) MeanPIFSpeedup() float64 { return stats.Mean(r.PIFSpeedup) }

// MeanPerfectSpeedup returns the average perfect-L1 speedup (paper: 29%).
func (r Fig10Result) MeanPerfectSpeedup() float64 { return stats.Mean(r.PerfectSpeedup) }

// Render formats both panels.
func (r Fig10Result) Render() string {
	left := &stats.Table{
		Title:   "Figure 10 (left): L1 miss coverage",
		ColName: []string{"Next-Line", "TIFS", "PIF"},
	}
	right := &stats.Table{
		Title:   "Figure 10 (right): speedup over no-prefetch baseline",
		ColName: []string{"Next-Line", "TIFS", "PIF", "Perfect"},
	}
	for i, w := range r.Workloads {
		left.AddRow(w, r.NextLineCov[i], r.TIFSCov[i], r.PIFCov[i])
		right.AddRow(w, r.NextLineSpeedup[i], r.TIFSSpeedup[i], r.PIFSpeedup[i], r.PerfectSpeedup[i])
	}
	right.AddRow("average",
		stats.Mean(r.NextLineSpeedup), stats.Mean(r.TIFSSpeedup),
		stats.Mean(r.PIFSpeedup), stats.Mean(r.PerfectSpeedup))
	return left.Render(true) + "\n" + right.Render(false)
}

func init() {
	register("fig10", func(e *Env) (Report, error) {
		r, err := Fig10(e)
		if err != nil {
			return Report{}, err
		}
		return Report{ID: "fig10", Title: "Competitive coverage and performance comparison", Text: r.Render(), Data: r}, nil
	})
}
