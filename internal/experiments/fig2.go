package experiments

import (
	"repro/internal/cache"
	"repro/internal/frontend"
	"repro/internal/isa"
	"repro/internal/prefetch"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Fig2Result holds the Figure 2 data: the fraction of correct-path L1-I
// misses correctly predicted when the temporal stream predictor records at
// each of the four points the paper compares.
type Fig2Result struct {
	Workloads []string `json:"workloads"`
	// Coverage[variant][workload index]; variants in paper order.
	Miss      []float64 `json:"miss"`
	Access    []float64 `json:"access"`
	Retire    []float64 `json:"retire"`
	RetireSep []float64 `json:"retire_sep"`
}

// Fig2 reproduces Figure 2 ("Percentage of correctly predicted L1-I
// misses"): four identical temporal-stream predictors record the cache-miss
// stream, the fetch-access stream (with wrong-path noise), the retire-order
// stream, and per-trap-level retire-order streams. Each correct-path miss
// is scored against all four *before* any of them observes the event, so
// the recording point is the only difference — the paper's isolation of
// microarchitectural filtering and noise.
func Fig2(e *Env) (Fig2Result, error) {
	opts := e.Options()
	n := len(opts.Workloads)
	res := Fig2Result{
		Workloads: make([]string, n),
		Miss:      make([]float64, n),
		Access:    make([]float64, n),
		Retire:    make([]float64, n),
		RetireSep: make([]float64, n),
	}
	// One analysis per workload across the worker pool; each writes only
	// its own row, so the assembled table is order-independent.
	err := e.ForEachWorkload(func(i int, wl workload.Profile) error {
		m, a, r, rs, err := fig2One(e, wl)
		if err != nil {
			return err
		}
		res.Workloads[i] = wl.Name
		res.Miss[i], res.Access[i], res.Retire[i], res.RetireSep[i] = m, a, r, rs
		return nil
	})
	return res, err
}

// exposureTTL bounds how long (in recording-stream events) a would-be
// prefetch counts as predicting a miss. It models the residency of a
// prefetched block: the paper tracks "the predictions that would be made"
// without perturbing the cache, so a prediction stays useful for roughly
// one cache lifetime, not forever.
const exposureTTL = 2048

// studyPredictor sizes the temporal-stream predictor of the Figure 2 and
// Figure 7 studies, with unlimited history (the paper's "without history
// storage limitations" configuration). Each window exposes the next
// studyLookahead history blocks as would-be prefetches.
var studyPredictor = prefetch.TemporalConfig{Windows: 16, Slack: 8, StaleAfter: 64}

const studyLookahead = 32

// exposureSet tracks the blocks a predictor would have prefetched. The
// TTL ticks on a clock shared by all variants (correct-path block events),
// so recording points with sparse streams (misses) get no extra horizon.
type exposureSet struct {
	gen  map[isa.Block]uint64
	now  *uint64
	pred *prefetch.Temporal
}

// newExposureSet wires a fresh predictor to a would-prefetch set driven by
// the shared clock.
func newExposureSet(clock *uint64) *exposureSet {
	return &exposureSet{gen: make(map[isa.Block]uint64), now: clock, pred: prefetch.NewTemporal(studyPredictor)}
}

// Observe records one event of the recording stream. An advance exposes
// only the blocks that slid into its window's lookahead; an open exposes
// the new window's whole lookahead.
func (s *exposureSet) Observe(b isa.Block) {
	var exposed []isa.Block
	if w, from := s.pred.Advance(b); w != nil {
		exposed = s.pred.Span(from+studyLookahead, w.Pos+studyLookahead)
	} else if w := s.pred.Open(b); w != nil {
		exposed = s.pred.Span(w.Pos, w.Pos+studyLookahead)
	}
	for _, e := range exposed {
		s.gen[e] = *s.now
	}
	s.pred.Append(b)
}

// Predicted reports whether b was exposed within the TTL.
func (s *exposureSet) Predicted(b isa.Block) bool {
	g, ok := s.gen[b]
	return ok && *s.now-g <= exposureTTL
}

func fig2One(e *Env, wl workload.Profile) (miss, access, retire, retireSep float64, err error) {
	opts := e.Options()
	l1 := cache.New(opts.System.L1I())
	fe := frontend.New(opts.System.Frontend(wl.Seed))
	polluter := cache.NewPolluter(
		opts.System.CtxSwitchEveryInstrs, opts.System.CtxSwitchBlocks, wl.Seed^0x706f6c)

	var clock uint64
	pMiss := newExposureSet(&clock)
	pAccess := newExposureSet(&clock)
	pRetire := newExposureSet(&clock)
	var pRetireSep [isa.NumTrapLevels]*exposureSet
	for i := range pRetireSep {
		pRetireSep[i] = newExposureSet(&clock)
	}

	var (
		instrs    uint64
		misses    uint64
		hitMiss   uint64
		hitAcc    uint64
		hitRet    uint64
		hitRetSep uint64
		lastBlk   [isa.NumTrapLevels]isa.Block
		haveBlk   [isa.NumTrapLevels]bool
	)

	err = e.EachRecord(wl, func(rec trace.Record) {
		measuring := instrs >= opts.WarmupInstrs
		fe.Feed(rec, func(acc frontend.Access) {
			hit, _ := l1.Access(acc.Block)
			if !hit {
				l1.Fill(acc.Block, false)
			}
			if !acc.WrongPath {
				clock++ // the shared TTL clock: correct-path fetch events
			}
			// Score the miss against every variant before observing.
			if !acc.WrongPath && !hit && measuring {
				misses++
				if pMiss.Predicted(acc.Block) {
					hitMiss++
				}
				if pAccess.Predicted(acc.Block) {
					hitAcc++
				}
				if pRetire.Predicted(acc.Block) {
					hitRet++
				}
				if pRetireSep[acc.TL].Predicted(acc.Block) {
					hitRetSep++
				}
			}
			// Record: the miss stream sees demand misses (correct and
			// wrong path, as the cache observes them); the access stream
			// sees every access.
			if !hit {
				pMiss.Observe(acc.Block)
			}
			pAccess.Observe(acc.Block)
		})
		// The retire-order recording points observe block-grain retires.
		tl := rec.TL
		b := rec.Block()
		if !haveBlk[tl] || lastBlk[tl] != b {
			lastBlk[tl], haveBlk[tl] = b, true
			pRetire.Observe(b)
			pRetireSep[tl].Observe(b)
		}
		instrs++
		polluter.Tick(l1)
	})
	if err != nil || misses == 0 {
		return 0, 0, 0, 0, err
	}
	n := float64(misses)
	return float64(hitMiss) / n, float64(hitAcc) / n, float64(hitRet) / n, float64(hitRetSep) / n, nil
}

// Render formats the result like the paper's Figure 2.
func (r Fig2Result) Render() string {
	tab := &stats.Table{
		Title:   "Figure 2: correctly predicted correct-path L1-I misses by recording point",
		ColName: []string{"Miss", "Access", "Retire", "RetireSep"},
	}
	for i, w := range r.Workloads {
		tab.AddRow(w, r.Miss[i], r.Access[i], r.Retire[i], r.RetireSep[i])
	}
	return tab.Render(true)
}

func init() {
	register("fig2", func(e *Env) (Report, error) {
		r, err := Fig2(e)
		if err != nil {
			return Report{}, err
		}
		return Report{ID: "fig2", Title: "Recording-point prediction coverage", Text: r.Render(), Data: r}, nil
	})
}
