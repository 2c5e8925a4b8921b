package main

import (
	"context"
	"math/rand"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/frontend"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// A benchWorkload is one benchmark input set: a set-up, an op list made from
// the seed, and a replay of each op's inputs through the layers.
type benchWorkload interface {
	// period is the length of the seed's op list; op i runs entry
	// i mod period. Runs execute whole periods, so every run weighs the
	// seed's ops equally.
	period() int
	// setup performs one set-up pass, timing each step through st. A run
	// repeats set-up and keeps the state of its last pass.
	setup(st *stepTimer, pass int) error
	// op runs op i; the caller times it.
	op(i int) opResult
	// replay re-drives op i's inputs through each layer's public
	// functions, with a span around each call (traced runs only).
	replay(i int, l *layerReplay) error
	// finish completes results an op could not return itself; it runs
	// after timing stops.
	finish(outs []opResult)
	close()
}

// opResult is what one op produced.
type opResult struct {
	err     error
	results []sim.Result // one per simulation job, in a fixed order
	engines []string     // the engine of each job
	instrs  uint64       // simulated instructions, warmup and measure, all jobs
	window  uint64       // measured instructions each result must report
	runID   string       // svc-small: the service run finish reads back
}

// workloadSpec names a workload and how a run sets it up.
type workloadSpec struct {
	name string
	// passes is how often set-up repeats within one run; setup_s is the
	// median of the passes.
	passes int
	make   func(seed int64, work string) benchWorkload
}

var workloads = []workloadSpec{
	{"replay-xl-pif", 5, func(seed int64, work string) benchWorkload { return newReplayXL(seed, work) }},
	{"live-grid", 15, func(seed int64, work string) benchWorkload { return newLiveGrid(seed) }},
	{"svc-small", 25, func(seed int64, work string) benchWorkload { return newSvcSmall(seed, work) }},
}

func lookupWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// perturb returns the seed's variant of a profile: the same shape and
// name, a different random program.
func perturb(p workload.Profile, seed int64) workload.Profile {
	p.Seed = p.Seed*1_000_003 + seed
	return p
}

// seedOrder is the seed's permutation of n items.
func seedOrder(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// The layer replays below share these steps.

// runEngines times sim.RunJob of job under each engine, one span each.
func runEngines(l *layerReplay, job sim.Job, engines []string) error {
	for _, e := range engines {
		job.Engine = prefetch.Spec{Name: e}
		if err := l.span("sim.run."+e, func() error {
			_, err := sim.RunJob(context.Background(), job)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// construct times prefetch.Resolve of each engine, then sim.New around
// the last one.
func construct(l *layerReplay, cfg sim.Config, feSeed int64, engines []string) error {
	var pf prefetch.Prefetcher
	for _, e := range engines {
		if err := l.span("prefetch.resolve", func() (err error) {
			pf, err = prefetch.Resolve(prefetch.Spec{Name: e})
			return err
		}); err != nil {
			return err
		}
		l.addWork("resolves", 1)
	}
	return l.span("sim.new", func() error {
		sim.New(cfg, pf, feSeed)
		return nil
	})
}

// liveLayers times the workload executor over one job's warmup and
// measure phases, capturing its records, then feedLayers over them.
func liveLayers(l *layerReplay, prog *workload.Program, cfg sim.Config, feSeed int64, recs *[]trace.Record, accs *[]frontend.Access) error {
	rs := (*recs)[:0]
	emit := func(r trace.Record) { rs = append(rs, r) }
	if err := l.span("workload.exec", func() error {
		ex := workload.NewExecutor(prog)
		ex.Run(cfg.WarmupInstrs, emit)
		ex.Run(cfg.MeasureInstrs, emit)
		return nil
	}); err != nil {
		return err
	}
	*recs = rs
	return feedLayers(l, cfg.System, feSeed, rs, accs)
}

// feedLayers replays one job's records through the front end alone
// (frontend.Feed, capturing the access stream) and then that access
// stream through the L1-I alone (cache Access, and Fill on a miss).
func feedLayers(l *layerReplay, sys config.System, feSeed int64, recs []trace.Record, accs *[]frontend.Access) error {
	as := (*accs)[:0]
	capture := func(a frontend.Access) { as = append(as, a) }
	if err := l.span("frontend.feed", func() error {
		fe := frontend.New(sys.Frontend(feSeed))
		for _, r := range recs {
			fe.Feed(r, capture)
		}
		return nil
	}); err != nil {
		return err
	}
	*accs = as
	l.addWork("accesses", float64(len(as)))
	return l.span("cache.access", func() error {
		c := cache.New(sys.L1I())
		for _, a := range as {
			if hit, _ := c.Access(a.Block); !hit {
				c.Fill(a.Block, false)
			}
		}
		return nil
	})
}
