package experiments

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/prefetch"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Fig7MaxLog2 is the largest jump-distance bucket rendered (the paper's
// x-axis runs to log2 = 25).
const Fig7MaxLog2 = 25

// Fig7Result holds the Figure 7 data: for each workload, the cumulative
// fraction of correct predictions whose replay trigger recurred at each
// log2 jump distance in the recorded history.
type Fig7Result struct {
	Workloads []string `json:"workloads"`
	// CDF[workload][log2 bucket 0..Fig7MaxLog2].
	CDF [][]float64 `json:"cdf"`
}

// Fig7 reproduces Figure 7 ("Weighted jump distance in history"): the
// retire-order block stream is recorded by the temporal-stream predictor,
// and every correct prediction (replay advance) is attributed to the jump
// distance between the two occurrences of the replay's trigger. Short
// distances are frequently repeating streams; long distances are old
// streams — the paper's case for deep history storage.
func Fig7(e *Env) (Fig7Result, error) {
	opts := e.Options()
	n := len(opts.Workloads)
	res := Fig7Result{
		Workloads: make([]string, n),
		CDF:       make([][]float64, n),
	}
	err := e.ForEachWorkload(func(i int, wl workload.Profile) error {
		hist := stats.NewHistogram()
		p := prefetch.NewTemporal(studyPredictor)
		var (
			instrs  uint64
			lastBlk isa.Block
			have    bool
		)
		if err := e.EachRecord(wl, func(rec trace.Record) {
			instrs++
			b := rec.Block()
			if have && b == lastBlk {
				return
			}
			lastBlk, have = b, true
			if w, _ := p.Advance(b); w != nil {
				if instrs >= opts.WarmupInstrs {
					hist.Observe(stats.Log2Bucket(uint64(w.Dist)))
				}
			} else {
				p.Open(b)
			}
			p.Append(b)
		}); err != nil {
			return err
		}

		cdf := make([]float64, Fig7MaxLog2+1)
		var cum uint64
		for k := 0; k <= Fig7MaxLog2; k++ {
			cum += hist.Count(k)
			if hist.Total() > 0 {
				cdf[k] = float64(cum) / float64(hist.Total())
			}
		}
		res.Workloads[i] = wl.Name
		res.CDF[i] = cdf
		return nil
	})
	return res, err
}

// FractionBeyond returns, for workload i, the fraction of correct
// predictions from streams older than 2^log2Dist blocks of history.
func (r Fig7Result) FractionBeyond(i, log2Dist int) float64 {
	if log2Dist < 0 || log2Dist > Fig7MaxLog2 {
		return 0
	}
	return 1 - r.CDF[i][log2Dist]
}

// Render formats the CDF at the odd log2 points the paper labels.
func (r Fig7Result) Render() string {
	var cols []string
	for k := 1; k <= Fig7MaxLog2; k += 2 {
		cols = append(cols, fmt.Sprintf("2^%d", k))
	}
	tab := &stats.Table{
		Title:   "Figure 7: weighted jump distance in history (CDF of correct predictions)",
		ColName: cols,
	}
	for i, w := range r.Workloads {
		var vals []float64
		for k := 1; k <= Fig7MaxLog2; k += 2 {
			vals = append(vals, r.CDF[i][k])
		}
		tab.AddRow(w, vals...)
	}
	return tab.Render(true)
}

func init() {
	register("fig7", func(e *Env) (Report, error) {
		r, err := Fig7(e)
		if err != nil {
			return Report{}, err
		}
		return Report{ID: "fig7", Title: "Weighted jump distance in history", Text: r.Render(), Data: r}, nil
	})
}
