package main

import (
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/frontend"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// live-grid: live execution through the experiments environment. Set-up
// fills an experiments.Env program cache for the six standard profiles,
// seed-perturbed; every op is one Env.RunGrid of a one-workload ×
// {none, nextline, tifs} grid executed live on a one-worker local
// backend. It never touches PIF or trace decode.
const (
	gridWarmup  = 300_000
	gridMeasure = 150_000
)

var gridEngines = []string{"none", "nextline", "tifs"}

type liveGrid struct {
	opts  experiments.Options
	profs []workload.Profile
	order []int // the seed's workload order; op i runs profs[order[i mod 6]]
	env   *experiments.Env
	recs  []trace.Record    // traced runs: one job's executed records
	accs  []frontend.Access // traced runs: their access stream
}

func newLiveGrid(seed int64) *liveGrid {
	var profs []workload.Profile
	for _, p := range workload.StandardSuite() {
		profs = append(profs, perturb(p, seed))
	}
	return &liveGrid{
		opts: experiments.Options{
			Workloads:     profs,
			System:        config.Default(),
			WarmupInstrs:  gridWarmup,
			MeasureInstrs: gridMeasure,
			Parallel:      1,
		},
		profs: profs,
		order: seedOrder(seed, len(profs)),
	}
}

func (w *liveGrid) period() int { return len(w.order) }

func (w *liveGrid) setup(st *stepTimer, pass int) error {
	w.env = experiments.NewEnv(w.opts)
	for _, p := range w.profs {
		if err := st.step("workload.build", 1, func() error {
			_, err := w.env.Program(p)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

func (w *liveGrid) profile(i int) workload.Profile { return w.profs[w.order[i%len(w.order)]] }

func (w *liveGrid) spec(p workload.Profile) sweep.Spec {
	return sweep.Spec{
		Name: "bench",
		Base: w.opts.SimConfig(),
		Axes: []sweep.Axis{
			sweep.WorkloadAxis("workload", []workload.Profile{p}),
			sweep.EngineAxis("engine", gridEngines...),
		},
	}
}

func (w *liveGrid) op(i int) opResult {
	out := opResult{
		engines: gridEngines,
		instrs:  uint64(len(gridEngines)) * (w.opts.WarmupInstrs + w.opts.MeasureInstrs),
		window:  w.opts.MeasureInstrs,
	}
	g, err := w.env.RunGrid(w.spec(w.profile(i)))
	if err != nil {
		out.err = err
		return out
	}
	for _, r := range g.Results {
		out.results = append(out.results, r.Sim)
	}
	return out
}

func (w *liveGrid) replay(i int, l *layerReplay) error {
	p := w.profile(i)
	prog, err := w.env.Program(p)
	if err != nil {
		return err
	}
	spec := w.spec(p)
	cfg := w.opts.SimConfig()
	l.addWork("jobs", float64(len(gridEngines)))
	l.addWork("window", float64(cfg.WarmupInstrs+cfg.MeasureInstrs))
	var g *sweep.Grid
	if err := l.span("op.traced", func() (err error) {
		g, err = w.env.RunGrid(spec)
		return err
	}); err != nil {
		return err
	}
	// The runner times each job; the rest of the grid's time is dispatch.
	var jobs float64
	for _, r := range g.Results {
		jobs += r.Elapsed.Seconds()
	}
	l.addTime("runner.dispatch", l.sec["op.traced"]-jobs)
	if err := l.span("sweep.expand", func() error {
		_, err := spec.Expand()
		return err
	}); err != nil {
		return err
	}
	if err := runEngines(l, sim.Job{Config: cfg, Workload: p, Program: prog}, gridEngines); err != nil {
		return err
	}
	if err := construct(l, cfg, p.Seed, gridEngines); err != nil {
		return err
	}
	return liveLayers(l, prog, cfg, p.Seed, &w.recs, &w.accs)
}

func (w *liveGrid) finish([]opResult) {}

func (w *liveGrid) close() {}
