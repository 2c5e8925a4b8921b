package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/expsvc"
	"repro/internal/frontend"
	"repro/internal/prefetch"
	"repro/internal/remote"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// svc-small: the experiment-service stack scripts/expsvc_smoke.sh runs as
// binaries — expsvc dispatching to a remote coordinator with one
// single-slot worker — in one process on loopback. Every op submits one
// short standard workload × {none, pif} sweep with expsvc.Client and
// waits for it, so fixed costs per run and per job dominate.
const (
	svcWarmup  = 100_000
	svcMeasure = 50_000
	svcWindow  = svcWarmup + svcMeasure
)

var svcEngines = []string{"none", "pif"}

type svcSmall struct {
	work  string
	profs []workload.Profile // the service resolves workloads by registry name
	order []int              // the seed's workload order
	stack *svcStack
	recs  []trace.Record
	accs  []frontend.Access
}

func newSvcSmall(seed int64, work string) *svcSmall {
	profs := workload.StandardSuite()
	return &svcSmall{work: work, profs: profs, order: seedOrder(seed, len(profs))}
}

func (w *svcSmall) period() int { return len(w.order) }

func (w *svcSmall) profile(i int) workload.Profile { return w.profs[w.order[i%len(w.order)]] }

func (w *svcSmall) request(p workload.Profile) expsvc.Request {
	return expsvc.Request{
		Name:          "bench",
		Axes:          []string{"workload=" + p.Name, "engine=" + strings.Join(svcEngines, ",")},
		Quick:         true,
		WarmupInstrs:  svcWarmup,
		MeasureInstrs: svcMeasure,
	}
}

func (w *svcSmall) setup(st *stepTimer, pass int) error {
	if w.stack != nil {
		w.stack.close()
	}
	db := filepath.Join(w.work, fmt.Sprintf("db-%d", pass))
	// One step: a reference sample taken between start and warm-up would
	// compete with the new stack's own start-up work.
	return st.step("svc.start", 0, func() (err error) {
		if w.stack, err = startSvc(db); err != nil {
			return err
		}
		_, err = w.submit(w.request(w.profs[0]))
		return err
	})
}

// submit runs one sweep through the service: submit, then wait for it.
func (w *svcSmall) submit(req expsvc.Request) (expsvc.Status, error) {
	ctx := context.Background()
	st, err := w.stack.client.Submit(ctx, req)
	if err != nil {
		return st, err
	}
	if st, err = w.stack.client.WaitRun(ctx, st.ID, nil); err != nil {
		return st, err
	}
	if st.State != expsvc.StateDone {
		return st, fmt.Errorf("run %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return st, nil
}

func (w *svcSmall) op(i int) opResult {
	st, err := w.submit(w.request(w.profile(i)))
	return opResult{
		err:     err,
		engines: svcEngines,
		instrs:  uint64(len(svcEngines)) * svcWindow,
		window:  svcMeasure,
		runID:   st.ID,
	}
}

// finish reads every op's results back from the service.
func (w *svcSmall) finish(outs []opResult) {
	for i := range outs {
		if outs[i].err == nil {
			outs[i].results, outs[i].err = w.results(outs[i].runID)
		}
	}
}

// results fetches a run's per-job results, in job-key order (engine none
// before pif).
func (w *svcSmall) results(id string) ([]sim.Result, error) {
	jobs, err := w.stack.client.Jobs(context.Background(), id)
	if err != nil {
		return nil, err
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].Key < jobs[b].Key })
	rs := make([]sim.Result, len(jobs))
	for k, j := range jobs {
		if err := json.Unmarshal(j.Data, &rs[k]); err != nil {
			return nil, fmt.Errorf("run %s job %s: %w", id, j.Key, err)
		}
	}
	return rs, nil
}

func (w *svcSmall) replay(i int, l *layerReplay) error {
	ctx := context.Background()
	p := w.profile(i)
	req := w.request(p)
	c := w.stack.client
	jobs := float64(len(svcEngines))
	l.addWork("jobs", jobs)
	l.addWork("window", svcWindow)

	// The op again, with a span around each client call.
	var st expsvc.Status
	if err := l.span("expsvc.client.submit", func() (err error) {
		st, err = c.Submit(ctx, req)
		return err
	}); err != nil {
		return err
	}
	// A finished record reports its finish time as StartedAt too (the
	// service points both at one variable), so the start is taken from a
	// status seen while the run was still running.
	var started *time.Time
	if err := l.span("expsvc.client.wait", func() (err error) {
		st, err = c.WaitRun(ctx, st.ID, func(s expsvc.Status) {
			if s.State == expsvc.StateRunning && s.StartedAt != nil {
				t := *s.StartedAt
				started = &t
			}
		})
		return err
	}); err != nil {
		return err
	}
	if st.State != expsvc.StateDone || st.FinishedAt == nil {
		return fmt.Errorf("run %s ended %s: %s", st.ID, st.State, st.Error)
	}
	client := l.sec["expsvc.client.submit"] + l.sec["expsvc.client.wait"]
	l.addTime("op.traced", client)
	// The service's own timestamps split the op: queued, running the
	// grid, persisting; the client's remainder is HTTP and long-polling.
	grid := time.Duration(st.ElapsedNanos).Seconds()
	l.addTime("expsvc.grid", grid)
	l.addTime("expsvc.client", client-st.FinishedAt.Sub(st.CreatedAt).Seconds())
	if started != nil {
		l.addTime("expsvc.queue", started.Sub(st.CreatedAt).Seconds())
		l.addTime("expsvc.persist", st.FinishedAt.Sub(*started).Seconds()-grid)
	}

	// Isolated timings of the service's steps on the op's spec.
	opts := experiments.QuickOptions()
	opts.WarmupInstrs, opts.MeasureInstrs, opts.Parallel = svcWarmup, svcMeasure, 1
	cfg := opts.SimConfig()
	var spec sweep.Spec
	if err := l.span("experiments.build_sweep", func() (err error) {
		spec, err = experiments.BuildSweep(experiments.NewEnv(opts), req.Name, req.Axes, req.Engines)
		return err
	}); err != nil {
		return err
	}
	if err := l.span("sweep.expand", func() error {
		_, err := spec.Expand()
		return err
	}); err != nil {
		return err
	}
	run, arts, err := c.Artifacts(ctx, st.ID)
	if err != nil {
		return err
	}
	saves := report.Store{Root: filepath.Join(w.work, "saves")}
	run.ID = fmt.Sprintf("replay-%d", i)
	if err := l.span("report.save", func() error { return saves.Save(run, arts) }); err != nil {
		return err
	}
	if err := os.RemoveAll(saves.Dir(run.ID)); err != nil {
		return err
	}
	var prog *workload.Program
	if err := l.span("workload.build", func() (err error) {
		prog, err = workload.BuildProgram(p)
		return err
	}); err != nil {
		return err
	}
	rjobs := make([]runner.Job, len(svcEngines))
	for k, e := range svcEngines {
		rjobs[k] = runner.Job{Label: e, Workload: p, Config: cfg, Engine: prefetch.Spec{Name: e}, Program: prog}
	}
	var rres []runner.Result
	if err := l.span("runner.run_on", func() (err error) {
		b := runner.NewLocalBackend(1)
		defer b.Close()
		rres, err = runner.RunOn(ctx, b, rjobs, nil)
		return err
	}); err != nil {
		return err
	}
	var elapsed float64
	for _, r := range rres {
		elapsed += r.Elapsed.Seconds()
	}
	l.addTime("runner.dispatch", l.sec["runner.run_on"]-elapsed)
	if err := runEngines(l, sim.Job{Config: cfg, Workload: p, Program: prog}, svcEngines); err != nil {
		return err
	}
	// The service's environment builds the program once and the worker
	// rebuilds it for every job (the wire drops it); what the grid spends
	// beyond builds and simulation is the remote round trip.
	sims := 0.0
	for _, e := range svcEngines {
		sims += l.sec["sim.run."+e]
	}
	l.addTime("remote.job_overhead", grid-(1+jobs)*l.sec["workload.build"]-sims)
	if err := construct(l, cfg, p.Seed, svcEngines); err != nil {
		return err
	}
	return liveLayers(l, prog, cfg, p.Seed, &w.recs, &w.accs)
}

func (w *svcSmall) close() {
	if w.stack != nil {
		w.stack.close()
	}
}

// svcStack is a coordinator, one single-slot worker and the experiment
// service dispatching to them, all in this process on loopback.
type svcStack struct {
	core     *remote.Core
	servers  []*http.Server
	serving  sync.WaitGroup
	svc      *expsvc.Service
	stopWork context.CancelFunc
	workDone chan struct{}
	client   *expsvc.Client
}

func startSvc(db string) (*svcStack, error) {
	s := &svcStack{core: remote.NewCore(remote.CoreOptions{})}
	coord, err := s.serve(remote.NewServer(s.core))
	if err != nil {
		s.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.stopWork, s.workDone = cancel, make(chan struct{})
	go func() {
		defer close(s.workDone)
		// Run returns the context's error once the worker is stopped.
		_ = (&remote.Worker{Coord: coord, Name: "perfbench", Parallel: 1}).Run(ctx)
	}()
	if s.svc, err = expsvc.New(expsvc.Config{DBDir: db, Backend: "remote@" + coord, Parallel: 1}); err != nil {
		s.close()
		return nil, err
	}
	addr, err := s.serve(expsvc.NewServer(s.svc))
	if err != nil {
		s.close()
		return nil, err
	}
	if s.client, err = expsvc.DialService(addr, ""); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// serve serves h on a fresh loopback port and returns its address.
func (s *svcStack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	s.servers = append(s.servers, srv)
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return ln.Addr().String(), nil
}

// close stops the stack, service first, and waits for every goroutine it
// started.
func (s *svcStack) close() {
	if s.svc != nil {
		s.svc.Close()
	}
	if s.stopWork != nil {
		s.stopWork()
		<-s.workDone
	}
	s.core.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := len(s.servers) - 1; i >= 0; i-- {
		_ = s.servers[i].Shutdown(ctx) // a handler outliving the timeout is dropped with the process
	}
	s.serving.Wait()
}
