package experiments

import (
	"fmt"

	"repro/internal/prefetch"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// The sweep-window artifact is the slice-source counterpart of the other
// design-space sweeps: instead of varying the engine or the machine, it
// varies *which part of the recorded trace* a cell simulates. Every cell
// replays a window [off, off+len) of its workload's warmup+measure
// stream through a cold PIF front-end (sim.SliceSource over
// StoreReader.Seek when the environment spills traces, the cached
// in-memory stream otherwise — byte-identical either way), so one
// recorded trace serves the whole grid and no workload is re-executed
// per cell. The readable signal: how sensitive UIPC and PIF coverage are
// to the measured interval's position and length — short early windows
// run cold, windows deep in the trace approach the warmed live numbers.

// SweepWindowOffsetPcts are the swept window positions, as percentages
// of the warmup interval (0 = the trace's first record, 100 = the live
// run's measurement boundary).
var SweepWindowOffsetPcts = []int{0, 50, 100}

// SweepWindowLenPcts are the swept window lengths, as percentages of the
// measured interval.
var SweepWindowLenPcts = []int{50, 100}

// SweepWindowResult holds the trace-window sweep: UIPC and PIF coverage
// per workload as the replayed window moves and grows.
type SweepWindowResult struct {
	Workloads []string `json:"workloads"`
	// OffsetPcts/LenPcts echo the swept fractions; Offsets/Lens are the
	// absolute record positions/counts they resolve to at this run's
	// warmup/measure scale.
	OffsetPcts []int    `json:"offset_pcts"`
	LenPcts    []int    `json:"len_pcts"`
	Offsets    []uint64 `json:"offsets"`
	Lens       []uint64 `json:"lens"`
	// UIPC and prefetch coverage per cell, [workload][offset][len].
	UIPC     [][][]float64 `json:"uipc"`
	Coverage [][][]float64 `json:"coverage"`
}

// windowFor resolves one swept (offset pct, length pct) pair into an
// absolute record window of the warmup+measure stream.
func windowFor(warmup, measure uint64, offPct, lenPct int) trace.Window {
	return trace.Window{
		Off: warmup * uint64(offPct) / 100,
		Len: measure * uint64(lenPct) / 100,
	}
}

// SweepWindow regenerates the trace-window design-space sweep: a
// (workload × window position × window length) grid of slice-replay
// cells, each measuring its whole window from a cold start (warmup 0, so
// the position axis isolates where in the trace the interval sits). The
// grid's raw per-job results are persisted by `experiments -out` like
// every other sweep.
func SweepWindow(e *Env) (SweepWindowResult, error) {
	wls := e.Options().Workloads
	scfg := e.Options().SimConfig()
	warmup, measure := scfg.WarmupInstrs, scfg.MeasureInstrs
	res := SweepWindowResult{OffsetPcts: SweepWindowOffsetPcts, LenPcts: SweepWindowLenPcts}
	for _, p := range SweepWindowOffsetPcts {
		res.Offsets = append(res.Offsets, warmup*uint64(p)/100)
	}
	for _, p := range SweepWindowLenPcts {
		res.Lens = append(res.Lens, measure*uint64(p)/100)
	}

	offAxis := sweep.Axis{Name: "off"}
	for _, pct := range SweepWindowOffsetPcts {
		pct := pct
		offAxis.Values = append(offAxis.Values, sweep.Value{
			Key:   fmt.Sprintf("p%d", pct),
			Name:  fmt.Sprintf("off %d%%", pct),
			Apply: func(s *sweep.Settings) { s.Params["win_off_pct"] = float64(pct) },
		})
	}
	lenAxis := sweep.Axis{Name: "len"}
	for _, pct := range SweepWindowLenPcts {
		pct := pct
		lenAxis.Values = append(lenAxis.Values, sweep.Value{
			Key:   fmt.Sprintf("l%d", pct),
			Name:  fmt.Sprintf("len %d%%", pct),
			Apply: func(s *sweep.Settings) { s.Params["win_len_pct"] = float64(pct) },
		})
	}

	// The length axis is the innermost (last) axis, so its Apply runs after
	// the workload and offset mutations: both window params are final here,
	// and it resolves them into the cell's slice source and measured
	// interval directly.
	for i := range lenAxis.Values {
		inner := lenAxis.Values[i].Apply
		lenAxis.Values[i].Apply = func(s *sweep.Settings) {
			inner(s)
			w := windowFor(warmup, measure, int(s.Params["win_off_pct"]), int(s.Params["win_len_pct"]))
			s.Config.WarmupInstrs = 0
			s.Config.MeasureInstrs = w.Len
			s.From = e.WindowSource(s.Workload, w)
		}
	}

	g, err := e.RunGrid(sweep.Spec{
		Name:       "sweep-window",
		Base:       scfg,
		BaseEngine: prefetch.Spec{Name: "pif"},
		Axes: []sweep.Axis{
			sweep.WorkloadAxis("workload", wls),
			offAxis,
			lenAxis,
		},
	})
	if err != nil {
		return res, err
	}

	for wi, wl := range wls {
		uipc := make([][]float64, len(SweepWindowOffsetPcts))
		cov := make([][]float64, len(SweepWindowOffsetPcts))
		for oi := range SweepWindowOffsetPcts {
			uipc[oi] = make([]float64, len(SweepWindowLenPcts))
			cov[oi] = make([]float64, len(SweepWindowLenPcts))
			for li := range SweepWindowLenPcts {
				r := g.SimAt(wi, oi, li)
				uipc[oi][li] = r.UIPC
				cov[oi][li] = r.Coverage()
			}
		}
		res.Workloads = append(res.Workloads, wl.Name)
		res.UIPC = append(res.UIPC, uipc)
		res.Coverage = append(res.Coverage, cov)
	}
	return res, nil
}

// Render formats the window sweep as UIPC and coverage tables with one
// (offset, length) column per swept window.
func (r SweepWindowResult) Render() string {
	var cols []string
	for _, op := range r.OffsetPcts {
		for _, lp := range r.LenPcts {
			cols = append(cols, fmt.Sprintf("o%d/l%d", op, lp))
		}
	}
	uipc := &stats.Table{
		Title:   "sweep-window: cold-start PIF UIPC vs trace-window position (% of warmup) and length (% of measure)",
		ColName: cols,
	}
	cov := &stats.Table{
		Title:   "sweep-window: PIF coverage vs trace-window position and length",
		ColName: cols,
	}
	for i, w := range r.Workloads {
		var urow, crow []float64
		for oi := range r.OffsetPcts {
			urow = append(urow, r.UIPC[i][oi]...)
			crow = append(crow, r.Coverage[i][oi]...)
		}
		uipc.AddRow(w, urow...)
		cov.AddRow(w, crow...)
	}
	return uipc.Render(false) + "\n" + cov.Render(true)
}

func init() {
	register("sweep-window", func(e *Env) (Report, error) {
		r, err := SweepWindow(e)
		if err != nil {
			return Report{}, err
		}
		return Report{
			ID:    "sweep-window",
			Title: "UIPC and coverage vs replayed trace window (slice-source design-space sweep)",
			Text:  r.Render(),
			Data:  r,
		}, nil
	})
}
