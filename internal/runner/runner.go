// Package runner is the job-execution layer of the evaluation harness.
// A Job (an alias of sim.Job) names one simulation (workload profile,
// sim.Config, engine spec, optional record source); a Backend executes
// submitted jobs — LocalBackend over an in-process bounded worker pool,
// remote.Backend over a worker fleet — and RunOn drives any backend with
// the harness's contract: context cancellation, serialized progress
// callbacks, and results in submission order, so tables rendered from a
// parallel run are byte-identical to a serial run of the same jobs.
//
// Every experiment driver in internal/experiments enumerates Jobs (or
// uses ForEach for trace-based per-workload analyses) instead of looping
// serially — since PR 4 they do so by declaring design-space sweep specs
// (internal/sweep) whose expanded grids feed the selected backend. See
// DESIGN.md §5 for the execution engine, §8 for the sweep layer, and §9
// for the Source/Backend pipeline API.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	// The PIF variants register with the prefetch engine registry from
	// internal/core's init; the execution engine must be able to resolve
	// every engine name, so it links the registration in.
	_ "repro/internal/core"
	"repro/internal/sim"
)

// Job names one simulation to execute. It is sim.Job itself: the
// backends, the sweep layer and the remote wire all carry the one type.
type Job = sim.Job

// Result is the outcome of one job.
type Result struct {
	// Index is the job's submission index; results are returned in
	// submission order regardless of completion order.
	Index int
	// Label echoes the job's label.
	Label string
	// Sim is the simulation outcome (zero when Err is non-nil).
	Sim sim.Result
	// Err is the job's failure, if any.
	Err error
	// Elapsed is the job's wall-clock duration, or its share of its row's.
	Elapsed time.Duration
}

// Progress reports one finished job. Callbacks are serialized: RunOn
// never invokes OnProgress concurrently.
type Progress struct {
	// Done is the number of finished jobs including this one; Total is
	// the submitted job count.
	Done, Total int
	// Index and Label identify the finished job.
	Index int
	Label string
	// Elapsed is the finished job's wall-clock duration.
	Elapsed time.Duration
	// Err is the job's failure, if any.
	Err error
}

// Workers resolves a worker-count override: n if positive, GOMAXPROCS
// otherwise.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Backend executes submitted simulation jobs. It is the *where to run*
// axis of the pipeline API, orthogonal to what is simulated (the job's
// From source) and with which engine (the job's Engine spec):
// LocalBackend fans jobs out over an in-process worker pool, and a
// multi-node backend shipping Job/Result as its wire unit drops
// in without touching any driver.
//
// The protocol: Submit enqueues units of jobs tagged with caller-chosen
// indices, Results delivers one Result per submitted job in completion
// order (each echoing its index), and Close waits for in-flight jobs and
// then closes the Results channel. RunOn forms the units, rows of
// sim.SameFront jobs, by one rule sized by the backend's Width. A backend
// serves one run at a time — RunOn is the canonical driver and callers
// sharing a backend across runs must serialize them (experiments.Env does).
type Backend interface {
	// Submit enqueues one unit: jobs[k] tagged with index idx[k], whose
	// Result echoes it. The jobs are a row of sim.SameFront jobs or a
	// single job. Submit may block while the backend is saturated; it
	// returns ctx.Err() if the context is canceled first. Jobs accepted
	// while ctx is already canceled may be skipped, delivering Results
	// carrying ctx.Err().
	Submit(ctx context.Context, idx []int, jobs []Job) error
	// Width is the number of units the backend runs at once (at least
	// 1): RunOn splits rows while it has fewer units than that.
	Width() int
	// Results is the completion stream: exactly one Result per submitted
	// job, in completion order. The channel is closed by Close after
	// in-flight jobs drain.
	Results() <-chan Result
	// Close releases the backend's resources. It must be called after
	// all Submits have returned; it is idempotent.
	Close() error
}

// ErrBackendClosed is returned by Submit on a backend that has been
// Closed. It is a distinct sentinel — not a job failure and not a
// context cancellation — so a caller driving several backends (a remote
// coordinator dispatching to workers, a retrying client) can tell "this
// backend is shutting down, resubmit elsewhere" apart from "this job was
// rejected". Every Backend implementation must return it (wrapped or
// bare) from Submit after Close.
var ErrBackendClosed = errors.New("runner: backend closed")

// localJob is one submitted unit inside a LocalBackend: a single job,
// or a row of jobs sharing a front half (idx[k] tags jobs[k]).
type localJob struct {
	ctx  context.Context
	idx  []int
	jobs []Job
}

// LocalBackend is the in-process Backend: a bounded pool of worker
// goroutines executing jobs on the machine's cores. It is the reference
// for the Backend contract.
type LocalBackend struct {
	jobs    chan localJob
	results chan Result
	workers int
	wg      sync.WaitGroup
	once    sync.Once

	// mu guards closed: Submit holds the read side across its channel
	// send so Close (write side) cannot close the jobs channel while a
	// send is in flight, and a Submit arriving after Close reports
	// ErrBackendClosed instead of panicking on the closed channel.
	mu     sync.RWMutex
	closed bool
}

// NewLocalBackend starts a local backend with the given worker count
// (<= 0 means GOMAXPROCS). The backend must be Closed to release its
// workers.
func NewLocalBackend(workers int) *LocalBackend {
	b := &LocalBackend{
		jobs:    make(chan localJob),
		results: make(chan Result),
		workers: Workers(workers),
	}
	b.wg.Add(b.workers)
	for i := 0; i < b.workers; i++ {
		go func() {
			defer b.wg.Done()
			for lj := range b.jobs {
				// A unit dispatched in the cancellation race window is
				// skipped, never started: a mid-grid cancel stays prompt
				// and each skipped job reports ctx.Err(), so a caller
				// salvaging per-job results cannot mistake it for a
				// completed zero-valued simulation.
				if err := lj.ctx.Err(); err != nil {
					for k, j := range lj.jobs {
						b.results <- Result{Index: lj.idx[k], Label: j.Label, Err: err}
					}
					continue
				}
				for _, r := range RunRow(lj.ctx, lj.idx, lj.jobs) {
					b.results <- r
				}
			}
		}()
	}
	return b
}

// Submit implements Backend. Submitting to a closed backend returns
// ErrBackendClosed.
func (b *LocalBackend) Submit(ctx context.Context, idx []int, jobs []Job) error {
	if ctx == nil {
		ctx = context.Background()
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return ErrBackendClosed
	}
	select {
	case b.jobs <- localJob{ctx: ctx, idx: idx, jobs: jobs}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Width implements Backend: the workers that can run at once. A worker
// beyond GOMAXPROCS adds no parallelism, but a split row pays for its
// front half twice.
func (b *LocalBackend) Width() int { return min(b.workers, runtime.GOMAXPROCS(0)) }

// Results implements Backend.
func (b *LocalBackend) Results() <-chan Result { return b.results }

// Close implements Backend: no further Submits are accepted, in-flight
// jobs drain, then the Results channel closes.
func (b *LocalBackend) Close() error {
	b.once.Do(func() {
		b.mu.Lock()
		b.closed = true
		b.mu.Unlock()
		close(b.jobs)
		go func() {
			b.wg.Wait()
			close(b.results)
		}()
	})
	return nil
}

// RunRow executes one unit, a single job or a row of jobs sharing a
// front half, and returns its results in job order, jobs[k]'s under
// index idx[k]. Every member's Elapsed is the unit's wall time divided
// by its size, so a run's Elapsed values still sum to its wall time.
// LocalBackend's workers and remote workers call it.
func RunRow(ctx context.Context, idx []int, jobs []Job) []Result {
	start := time.Now()
	sims, errs := sim.RunRow(ctx, jobs)
	each := time.Since(start) / time.Duration(len(jobs))
	out := make([]Result, len(jobs))
	for k, j := range jobs {
		out[k] = Result{Index: idx[k], Label: j.Label, Sim: sims[k], Err: errs[k], Elapsed: each}
	}
	return out
}

// units groups jobs into units of job indices for a backend of the
// given width: jobs sharing a front half (sim.SameFront) form one row.
// Rows must not idle workers, so while units are fewer than workers the
// largest is split in two. Units are ordered by their first job.
func units(jobs []Job, workers int) [][]int {
	var us [][]int
	for i := range jobs {
		k := -1
		if workers < len(jobs) {
			k = slices.IndexFunc(us, func(u []int) bool {
				return sim.SameFront(jobs[u[0]], jobs[i])
			})
		}
		if k < 0 {
			us = append(us, []int{i})
		} else {
			us[k] = append(us[k], i)
		}
	}
	for len(us) > 0 && len(us) < workers {
		k := 0
		for i, u := range us {
			if len(u) > len(us[k]) {
				k = i
			}
		}
		u := us[k]
		if len(u) < 2 {
			break
		}
		us[k] = u[:len(u)/2]
		us = append(us, u[len(u)/2:])
	}
	slices.SortFunc(us, func(a, b []int) int { return a[0] - b[0] })
	return us
}

// RunOn drives one batch of jobs through a backend: jobs are submitted
// in order (tagged with their slice index) while completions are
// collected concurrently, progress callbacks fire serially as results
// arrive, and the final slice is in submission order. The returned error
// is the context's error if the run was canceled, otherwise the first
// (by submission order) job failure; the result slice is always fully
// populated — jobs never submitted because of a cancellation carry
// ctx.Err(), never a zero result. RunOn does not Close the backend.
func RunOn(ctx context.Context, b Backend, jobs []Job, onProgress func(Progress)) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result, len(jobs))
	got := make([]bool, len(jobs))
	for i := range results {
		results[i] = Result{Index: i, Label: jobs[i].Label}
	}
	if len(jobs) == 0 {
		return results, ctx.Err()
	}

	// Submit from a side goroutine so collection never deadlocks against
	// a saturated backend; report how many jobs were actually accepted
	// and why submission stopped, so a backend refusing work mid-batch
	// surfaces as an error instead of unrun jobs posing as completed
	// zero-valued simulations. Jobs travel in units (rows of jobs that
	// share a front half), split down to the backend's width.
	type submitOutcome struct {
		n       int
		err     error
		refused int // the first job of the refused unit
	}
	submitted := make(chan submitOutcome, 1)
	go func() {
		out := submitOutcome{}
		for _, u := range units(jobs, b.Width()) {
			if ctx.Err() != nil {
				break
			}
			unit := make([]Job, len(u))
			for k, i := range u {
				unit[k] = jobs[i]
			}
			if err := b.Submit(ctx, u, unit); err != nil {
				out.err, out.refused = err, u[0]
				break
			}
			out.n += len(u)
		}
		submitted <- out
	}()

	var done, want, refused int
	var submitErr error
	want = -1
	for want < 0 || done < want {
		select {
		case out := <-submitted:
			want, submitErr, refused = out.n, out.err, out.refused
		case r, ok := <-b.Results():
			if !ok {
				// The backend closed its stream before every accepted job
				// reported. If submission itself failed, that refusal is
				// the root cause and the closure only the symptom — losing
				// submitErr here would hide the explanation (a remote
				// coordinator that rejected a job and then tore down the
				// run would report only the teardown). The submit goroutine
				// sends its outcome the instant Submit returns; grant it a
				// grace interval so an already-failed submission is always
				// folded in, then fall back to what we know.
				if want < 0 {
					select {
					case out := <-submitted:
						want, submitErr, refused = out.n, out.err, out.refused
					case <-time.After(100 * time.Millisecond):
					}
				}
				streamErr := fmt.Errorf("runner: backend closed its result stream mid-run (%d of %d results)", done, want)
				if want < 0 {
					streamErr = fmt.Errorf("runner: backend closed its result stream mid-run (%d results, submission still in flight)", done)
				}
				err := streamErr
				if submitErr != nil {
					err = errors.Join(streamErr, fmt.Errorf("runner: backend refused job %d: %w", refused, submitErr))
				}
				// Jobs without a result carry the failure too: a caller
				// salvaging per-job results must not mistake a never-run
				// job for a completed zero-valued simulation.
				for i := range results {
					if !got[i] && results[i].Err == nil {
						results[i].Err = err
					}
				}
				return results, err
			}
			if r.Index < 0 || r.Index >= len(results) {
				return results, fmt.Errorf("runner: backend returned result for unknown job index %d", r.Index)
			}
			results[r.Index] = r
			got[r.Index] = true
			done++
			if onProgress != nil {
				onProgress(Progress{
					Done:    done,
					Total:   len(jobs),
					Index:   r.Index,
					Label:   r.Label,
					Elapsed: r.Elapsed,
					Err:     r.Err,
				})
			}
		}
	}

	if err := ctx.Err(); err != nil {
		// Jobs never submitted carry the cancellation error too.
		for i := range results {
			if !got[i] {
				results[i].Err = err
			}
		}
		return results, err
	}
	if submitErr != nil {
		// The backend refused work with the context still live: every
		// job it never accepted carries the refusal.
		for i := range results {
			if !got[i] {
				results[i].Err = submitErr
			}
		}
		return results, fmt.Errorf("runner: backend refused job %d (%s): %w", refused, jobs[refused].Label, submitErr)
	}
	for i := range results {
		if results[i].Err != nil {
			return results, fmt.Errorf("runner: job %d (%s): %w", i, results[i].Label, results[i].Err)
		}
	}
	return results, nil
}

// ForEach runs fn(i) for every i in [0, n) across a bounded worker pool.
// It is the engine's primitive for trace-based analyses that are not
// simulations (one call per workload, each writing its own result slot,
// so output assembly stays deterministic). It returns the context's
// error if canceled, otherwise the first (by index) fn failure.
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return ctx.Err()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}

	errs := make([]error, n)
	idxCh := make(chan int)
	go func() {
		defer close(idxCh)
		for i := 0; i < n; i++ {
			select {
			case idxCh <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				// Same mid-grid promptness guarantee as the local
				// backend: a task dispatched in the cancellation race
				// window is skipped, never started.
				if ctx.Err() != nil {
					continue
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return err
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("runner: task %d: %w", i, err)
		}
	}
	return nil
}
