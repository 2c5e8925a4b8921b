package expsvc

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/remote"
	"repro/internal/report"
	"repro/internal/runner"
)

// DefaultMaxAttempts bounds how many times one run may be (re)started
// before restart recovery marks it failed instead of requeuing: a run
// that crashes the service twice is not retried a third time.
const DefaultMaxAttempts = 2

// queueCap bounds the submission queue (New widens it to hold every
// recovered run); submissions beyond it are refused rather than buffered
// without limit.
const queueCap = 256

// Config parameterizes a Service.
type Config struct {
	// DBDir roots the run database (and results corpus).
	DBDir string
	// Backend is the execution backend spec, CLI-compatible: "local" (or
	// "") runs each sweep over private in-process pools; "remote@ADDR"
	// dials the pifcoord coordinator at ADDR once per run.
	Backend string
	// BackendToken authenticates dials to a token-protected coordinator
	// ("" = open coordinator).
	BackendToken string
	// Parallel bounds local worker pools (<= 0 means GOMAXPROCS).
	Parallel int
	// StoreDir is the trace-store pool every run's environment spills to
	// ("" = in-memory streams).
	StoreDir string
	// MaxAttempts bounds executions per run (0 = DefaultMaxAttempts).
	MaxAttempts int
	// Logf, when non-nil, receives service lifecycle log lines.
	Logf func(format string, args ...any)

	// hookRunning, when non-nil, is called after a run's record has been
	// persisted in the running state and before its sweep executes — the
	// test seam crash/restart coverage uses to stop the service at the
	// exact instant a crash would strand a running record.
	hookRunning func(id string)
}

// progress is a running run's in-memory job counter (not persisted: it
// changes per job, and the database records only state transitions).
type progress struct{ done, total int }

// Status is one run as the API reports it: the persisted record plus
// live progress while running.
type Status struct {
	Record
	// Done/Total count completed vs. submitted simulation jobs of the
	// current execution (zero unless running).
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
}

// Service owns the run database and the executor draining its queue.
// Runs execute one at a time: a shared backend serves one RunOn batch at
// a time anyway, and serial execution keeps local runs from gouging each
// other's pools.
type Service struct {
	cfg Config
	db  DB

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	gen    chan struct{}
	recs   map[string]Record
	prog   map[string]progress
	seq    int
	closed bool

	queue chan string
}

// New opens the database, recovers interrupted runs (requeuing those
// with attempt budget left, failing the rest), and starts the executor.
func New(cfg Config) (*Service, error) {
	db, err := OpenDB(cfg.DBDir)
	if err != nil {
		return nil, err
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:    cfg,
		db:     db,
		ctx:    ctx,
		cancel: cancel,
		gen:    make(chan struct{}),
		recs:   make(map[string]Record),
		prog:   make(map[string]progress),
	}
	requeue, err := s.recover()
	if err != nil {
		cancel()
		return nil, err
	}
	// One service can leave queueCap runs queued and one running, so the
	// queue holds every recovered run: recovery sends before the executor
	// starts, and must neither block nor drop work.
	s.queue = make(chan string, max(queueCap, len(requeue)))
	for _, id := range requeue {
		s.queue <- id
	}
	s.wg.Add(1)
	go s.executor()
	return s, nil
}

// logf logs through the configured sink.
func (s *Service) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// recover loads every record and returns the IDs of interrupted work to
// requeue: a queued record simply re-enters the queue; a running record
// was stranded by a crash (or kill) and re-enters as queued — unless its
// attempt budget is spent, in which case it is marked failed. Requeue
// order is creation order, so recovery preserves submission fairness.
func (s *Service) recover() ([]string, error) {
	recs, err := s.db.Records()
	if err != nil {
		return nil, err
	}
	var requeue []string
	for _, rec := range recs {
		switch rec.State {
		case StateQueued, StateRunning:
			if rec.Attempts >= s.cfg.MaxAttempts {
				now := time.Now().UTC()
				rec.State = StateFailed
				rec.FinishedAt = &now
				rec.Error = fmt.Sprintf("expsvc: interrupted after %d attempt(s); giving up", rec.Attempts)
				if err := s.db.SaveRecord(rec); err != nil {
					return nil, err
				}
				s.logf("recover: %s failed (%s)", rec.ID, rec.Error)
			} else {
				if rec.State == StateRunning {
					rec.State = StateQueued
					if err := s.db.SaveRecord(rec); err != nil {
						return nil, err
					}
				}
				requeue = append(requeue, rec.ID)
				s.logf("recover: %s requeued (attempt %d of %d)", rec.ID, rec.Attempts+1, s.cfg.MaxAttempts)
			}
		}
		s.recs[rec.ID] = rec
	}
	return requeue, nil
}

// Close stops the executor and waits for it. A sweep in flight is
// canceled through the service context; its record stays running on
// disk — indistinguishable from a crash — so the next service on this
// database requeues or fails it exactly like crash recovery.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	s.bump()
}

// bump signals state observers (long-pollers) by closing the current
// generation channel and replacing it.
func (s *Service) bump() {
	s.mu.Lock()
	defer s.mu.Unlock()
	close(s.gen)
	s.gen = make(chan struct{})
}

// Changed returns a channel closed at the next state mutation (any run's
// transition or progress tick). The channel is replaced after each
// close; long-pollers re-fetch per wait, same contract as the remote
// coordinator's Core.Changed.
func (s *Service) Changed() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// persist saves a record to the database and the in-memory mirror.
func (s *Service) persist(rec Record) error {
	if err := s.db.SaveRecord(rec); err != nil {
		return err
	}
	s.mu.Lock()
	s.recs[rec.ID] = rec
	s.mu.Unlock()
	return nil
}

// buildOptions resolves a request into experiment options: its preset
// and overrides, plus the service's pool width and store pool.
func (s *Service) buildOptions(req Request) experiments.Options {
	opts := experiments.PresetOptions(req.Quick, req.WarmupInstrs, req.MeasureInstrs)
	opts.Parallel = s.cfg.Parallel
	opts.StoreDir = s.cfg.StoreDir
	return opts
}

// validate builds (and discards) the request's sweep spec, so a
// malformed submission is rejected at the API with the same diagnostics
// the CLI prints — before it ever occupies the queue.
func (s *Service) validate(req Request) error {
	opts := s.buildOptions(req)
	if err := opts.Validate(); err != nil {
		return err
	}
	_, err := req.Spec(experiments.NewEnvContext(s.ctx, opts))
	return err
}

// Submit validates a request, persists it queued, and enqueues it.
func (s *Service) Submit(req Request) (Status, error) {
	if err := s.validate(req); err != nil {
		return Status{}, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Status{}, fmt.Errorf("expsvc: service is shut down")
	}
	s.seq++
	seq := s.seq
	s.mu.Unlock()
	rec := Record{
		SchemaVersion: RecordSchemaVersion,
		ID:            newRunID(time.Now(), seq),
		State:         StateQueued,
		Request:       req,
		CreatedAt:     time.Now().UTC(),
	}
	if err := s.persist(rec); err != nil {
		return Status{}, err
	}
	select {
	case s.queue <- rec.ID:
	default:
		rec.State = StateFailed
		rec.Error = fmt.Sprintf("expsvc: queue full (%d runs pending)", cap(s.queue))
		_ = s.persist(rec)
		return Status{}, fmt.Errorf("%s", rec.Error)
	}
	s.bump()
	s.logf("submitted %s (%s)", rec.ID, req.Name)
	return Status{Record: rec}, nil
}

// errNoRun marks an ID that names no run, service-owned or stored.
var errNoRun = errors.New("no run")

// Run returns one run's status: the record plus live progress.
func (s *Service) Run(id string) (Status, error) {
	s.mu.Lock()
	rec, ok := s.recs[id]
	p := s.prog[id]
	s.mu.Unlock()
	if !ok {
		// Not service-owned; a corpus run stored by other tools still
		// resolves, as the stored pseudo-state.
		if run, _, err := s.db.Store.Load(id); err == nil {
			return Status{Record: Record{ID: id, State: StateStored, CreatedAt: run.CreatedAt}}, nil
		}
		return Status{}, fmt.Errorf("expsvc: %w %q", errNoRun, id)
	}
	return Status{Record: rec, Done: p.done, Total: p.total}, nil
}

// Runs lists every run in the database — service-owned records plus
// corpus runs stored by other tools (state "stored") — sorted by
// creation time.
func (s *Service) Runs() ([]Status, error) {
	recs, err := s.db.Records()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	out := make([]Status, 0, len(recs))
	owned := make(map[string]bool, len(recs))
	for _, rec := range recs {
		owned[rec.ID] = true
		// Prefer the in-memory mirror: it is never older than disk.
		if mem, ok := s.recs[rec.ID]; ok {
			rec = mem
		}
		p := s.prog[rec.ID]
		out = append(out, Status{Record: rec, Done: p.done, Total: p.total})
	}
	s.mu.Unlock()
	infos, err := s.db.Store.List()
	if err != nil {
		return nil, err
	}
	for _, info := range infos {
		if owned[info.ID] {
			continue
		}
		out = append(out, Status{Record: Record{ID: info.ID, State: StateStored, CreatedAt: info.CreatedAt}})
	}
	sortStatuses(out)
	return out, nil
}

// sortStatuses orders a merged listing by creation time, ties by ID.
func sortStatuses(sts []Status) {
	sort.Slice(sts, func(a, b int) bool {
		if !sts[a].CreatedAt.Equal(sts[b].CreatedAt) {
			return sts[a].CreatedAt.Before(sts[b].CreatedAt)
		}
		return sts[a].ID < sts[b].ID
	})
}

// Artifacts loads a run's stored artifacts (done runs and external
// corpus runs; queued/running/failed runs have none by the run.json
// contract).
func (s *Service) Artifacts(id string) (report.Run, []report.Artifact, error) {
	return s.db.Store.Load(id)
}

// Jobs loads a run's raw per-job results. Like Artifacts, it answers
// only for a loadable run: a directory without run.json names no
// complete run, and its jobs/ (absent, partial or stale) is not served.
func (s *Service) Jobs(id string) ([]report.JobResult, error) {
	if _, _, err := s.db.Store.Load(id); err != nil {
		return nil, err
	}
	return report.LoadJobResults(s.db.Dir(id))
}

// executor drains the queue, one run at a time.
func (s *Service) executor() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case id := <-s.queue:
			s.execute(id)
		}
	}
}

// execute runs one queued run end to end: persist the running
// transition, simulate the sweep, persist the artifacts, persist the
// terminal transition. If the service is shut down mid-run, the record
// is left running on disk — the crash shape — for the next service's
// recovery to requeue.
func (s *Service) execute(id string) {
	rec, err := s.db.LoadRecord(id)
	if err != nil {
		s.logf("execute %s: %v", id, err)
		return
	}
	started := time.Now().UTC()
	rec.State = StateRunning
	rec.StartedAt = &started
	rec.FinishedAt = nil
	rec.Error = ""
	rec.Attempts++
	if err := s.persist(rec); err != nil {
		s.logf("execute %s: %v", id, err)
		return
	}
	s.bump()
	if s.cfg.hookRunning != nil {
		s.cfg.hookRunning(id)
	}
	s.logf("running %s (%s, attempt %d)", rec.ID, rec.Request.Name, rec.Attempts)

	runErr := s.runSweep(&rec)
	if s.ctx.Err() != nil {
		// Shutdown (or kill) mid-run: leave the running record for
		// recovery, exactly as if the process had died here.
		return
	}
	finished := time.Now().UTC()
	rec.FinishedAt = &finished
	if runErr != nil {
		rec.State = StateFailed
		rec.Error = runErr.Error()
		s.logf("failed %s: %v", rec.ID, runErr)
	} else {
		rec.State = StateDone
		s.logf("done %s (%d jobs in %s)", rec.ID, rec.TotalJobs, time.Duration(rec.ElapsedNanos).Round(time.Millisecond))
	}
	s.mu.Lock()
	delete(s.prog, rec.ID)
	s.mu.Unlock()
	if err := s.persist(rec); err != nil {
		s.logf("execute %s: %v", id, err)
	}
	s.bump()
}

// runSweep executes the record's sweep and persists its results into the
// run directory. On success the directory passes report.Load (run.json
// is written last) and rec's completion fields are filled in.
func (s *Service) runSweep(rec *Record) error {
	req := rec.Request
	opts := s.buildOptions(req)
	opts.OnProgress = func(p runner.Progress) {
		s.mu.Lock()
		s.prog[rec.ID] = progress{done: p.Done, total: p.Total}
		s.mu.Unlock()
		s.bump()
	}
	// Dialing per run means a coordinator restart between runs costs
	// only the run in flight, never the service; local (nil) gives each
	// grid a private pool.
	be, err := remote.DialSpec(s.cfg.Backend, s.cfg.BackendToken)
	if err != nil {
		return err
	}
	if be != nil {
		opts.Backend = be
		defer be.Close()
	}
	if err := opts.Validate(); err != nil {
		return err
	}
	env := experiments.NewEnvContext(s.ctx, opts)
	spec, err := req.Spec(env)
	if err != nil {
		return err
	}
	res, err := experiments.RunSweep(env, spec)
	if err != nil {
		return err
	}
	if err := res.Save(s.db.Dir(rec.ID), rec.ID); err != nil {
		return err
	}
	rec.TotalJobs = len(res.Jobs)
	rec.ElapsedNanos = int64(res.Elapsed)
	return nil
}
