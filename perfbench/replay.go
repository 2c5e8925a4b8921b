package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/config"
	"repro/internal/frontend"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// replay-xl-pif: the paper's engine on the paper's target. Set-up builds
// seed-perturbed OLTP XL and Web XL programs and records a trace store of
// each; every op replays one seed-chosen window of a store through
// sim.RunJob with engine pif, alternating between the two stores.
const (
	xlWarmup  = 2_000_000
	xlMeasure = 1_000_000
	xlWindow  = xlWarmup + xlMeasure
	xlRecords = 6_000_000 // records recorded per store
	xlChunk   = 1 << 16   // store chunk size; windows start on chunk boundaries
	xlPeriod  = 8
)

type replayXL struct {
	seed   int64
	work   string
	cfg    sim.Config
	profs  [2]workload.Profile
	stores [2]string
	ops    []xlOp
	recs   []trace.Record    // traced runs: one decoded window
	accs   []frontend.Access // traced runs: its access stream
}

// xlOp is one entry of the op list: a window of one store.
type xlOp struct {
	store int
	win   trace.Window
}

func newReplayXL(seed int64, work string) *replayXL {
	return &replayXL{
		seed: seed,
		work: work,
		cfg:  sim.Config{System: config.Default(), WarmupInstrs: xlWarmup, MeasureInstrs: xlMeasure},
		ops:  xlOps(seed),
	}
}

// xlOps is the seed's op list: ops alternate between the two stores,
// each replaying a chunk-aligned window the seed picks.
func xlOps(seed int64) []xlOp {
	rng := rand.New(rand.NewSource(seed))
	slots := (xlRecords-xlWindow)/xlChunk + 1
	ops := make([]xlOp, xlPeriod)
	for i := range ops {
		off := uint64(rng.Intn(slots)) * xlChunk
		ops[i] = xlOp{store: i % 2, win: trace.Window{Off: off, Len: xlWindow}}
	}
	return ops
}

func (w *replayXL) period() int { return xlPeriod }

func (w *replayXL) setup(st *stepTimer, pass int) error {
	dir := filepath.Join(w.work, fmt.Sprintf("stores-%d", pass))
	for k, base := range []workload.Profile{workload.OLTPXL(), workload.WebXL()} {
		p := perturb(base, w.seed)
		var prog *workload.Program
		if err := st.step("workload.build", 1, func() (err error) {
			prog, err = workload.BuildProgram(p)
			return err
		}); err != nil {
			return err
		}
		store := filepath.Join(dir, fmt.Sprintf("store-%d", k))
		if err := st.step("trace.record", xlRecords, func() error {
			it := workload.NewIterator(prog, xlRecords)
			defer it.Close()
			_, err := trace.BuildStore(store, p.Name, xlChunk, it)
			return err
		}); err != nil {
			return err
		}
		w.profs[k], w.stores[k] = p, store
	}
	if pass == 0 {
		return nil
	}
	// Only the last pass's stores are replayed.
	return os.RemoveAll(filepath.Join(w.work, fmt.Sprintf("stores-%d", pass-1)))
}

func (w *replayXL) job(o xlOp, engine string) sim.Job {
	return sim.Job{
		Config:   w.cfg,
		Workload: w.profs[o.store],
		From:     sim.SliceSource(w.stores[o.store], o.win),
		Engine:   prefetch.Spec{Name: engine},
	}
}

func (w *replayXL) op(i int) opResult {
	r, err := sim.RunJob(context.Background(), w.job(w.ops[i%len(w.ops)], "pif"))
	return opResult{err: err, results: []sim.Result{r}, engines: []string{"pif"}, instrs: xlWindow, window: xlMeasure}
}

func (w *replayXL) replay(i int, l *layerReplay) error {
	o := w.ops[i%len(w.ops)]
	p := w.profs[o.store]
	l.addWork("jobs", 1)
	l.addWork("window", xlWindow)
	if err := l.span("op.traced", func() error {
		_, err := sim.RunJob(context.Background(), w.job(o, "pif"))
		return err
	}); err != nil {
		return err
	}
	// The traced op is the pif run.
	l.sec["sim.run.pif"] = l.sec["op.traced"]
	if err := runEngines(l, w.job(o, "none"), []string{"none"}); err != nil {
		return err
	}
	if err := construct(l, w.cfg, p.Seed, []string{"pif"}); err != nil {
		return err
	}
	if w.recs == nil {
		w.recs = make([]trace.Record, xlWindow)
	}
	if err := l.span("trace.decode", func() error {
		r, err := trace.OpenSlice(w.stores[o.store], o.win)
		if err != nil {
			return err
		}
		defer r.Close()
		n := 0
		for n < len(w.recs) {
			k, err := r.NextBatch(w.recs[n:])
			n += k
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return err
			}
		}
		if n != xlWindow {
			return fmt.Errorf("decoded %d of %d records", n, xlWindow)
		}
		return nil
	}); err != nil {
		return err
	}
	return feedLayers(l, w.cfg.System, p.Seed, w.recs, &w.accs)
}

func (w *replayXL) finish([]opResult) {}

func (w *replayXL) close() {}
