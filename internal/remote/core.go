package remote

import (
	"container/heap"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"
)

// Core errors, mapped to HTTP statuses by Server and back to sentinels
// by the client Backend.
var (
	// ErrClosed reports an operation on a closed coordinator or a job
	// submitted to a closed run. The client Backend maps it to
	// runner.ErrBackendClosed.
	ErrClosed = errors.New("remote: coordinator closed")
	// ErrNoRun reports an unknown run ID.
	ErrNoRun = errors.New("remote: no such run")
	// ErrNoWorker reports an unknown worker ID (never registered, or a
	// coordinator restart lost it — the worker must re-register).
	ErrNoWorker = errors.New("remote: no such worker")
)

// DefaultLeaseTTL is the heartbeat deadline handed to workers: a leased
// task whose worker does not heartbeat within the TTL is re-queued.
const DefaultLeaseTTL = 15 * time.Second

// DefaultMaxAttempts bounds lease retries per task: after this many
// leases all end in a lost worker, every job of the task completes with
// a hard error result — never a silent zero-valued sim.Result.
const DefaultMaxAttempts = 3

// taskState is a task's lease state machine: pending -> leased -> done,
// with leased -> pending again on heartbeat expiry while attempts remain.
type taskState int

const (
	taskPending taskState = iota
	taskLeased
	taskDone
)

// task is one submitted unit inside the coordinator, leased and completed whole.
type task struct {
	id       int // coordinator-wide monotonic task ID (the idempotency key)
	runID    string
	indices  []int // callers' submission indices, echoed in the results
	specs    []JobSpec
	state    taskState
	att      int // leases handed out so far
	worker   string
	deadline time.Time // heartbeat deadline while leased
}

// run is one client batch: an ordered set of tasks plus the result
// stream in completion order.
type run struct {
	id      string
	closed  bool // no further submissions; done once all tasks complete
	tasks   map[int]*task
	jobs    int // jobs over all tasks
	results []WireResult
	fetched int // high-water mark of results served to the client
}

// done reports whether every submitted job has completed and the run
// is closed to new submissions.
func (r *run) done() bool { return r.closed && len(r.results) == r.jobs }

// workerState is one registered worker.
type workerState struct {
	id    string
	name  string
	slots int       // units it runs at once
	seen  time.Time // its registration or latest heartbeat
}

// Lease is one task handed to a worker, which posts one result per spec.
type Lease struct {
	TaskID int       `json:"task_id"`
	Specs  []JobSpec `json:"specs"`
}

// taskHeap is a min-heap of tasks ordered by ID (IDs are monotonic, so
// the heap is FIFO across runs and puts re-queued tasks back at the
// front). It may hold stale entries — tasks completed by a late post
// while queued — so poppers must re-check the task's state.
type taskHeap []*task

func (h taskHeap) Len() int           { return len(h) }
func (h taskHeap) Less(i, j int) bool { return h[i].id < h[j].id }
func (h taskHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)        { *h = append(*h, x.(*task)) }
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// Core is the coordinator's pure in-memory state machine: runs, tasks,
// workers, leases. It performs no I/O and reads time only through an
// injected clock, so every failure path — heartbeat expiry, bounded
// retries, duplicate completions — is unit-testable without sockets or
// sleeps. Lease expiry is evaluated lazily at the entry of every public
// method; the HTTP layer's polling keeps the clock observed.
type Core struct {
	mu          sync.Mutex
	now         func() time.Time
	leaseTTL    time.Duration
	maxAttempts int

	runs                          map[string]*run
	workers                       map[string]*workerState
	pending                       taskHeap      // tasks awaiting a lease, oldest ID first
	leased                        map[int]*task // tasks under lease, by ID: all expire looks at
	incarnation                   string        // unique per Core; stamped into run IDs
	nextRun, nextWorker, nextTask int
	closed                        bool

	// onResult, when set, observes every accepted result (streaming
	// persistence). Called with the core lock held — keep it fast; do
	// not call back into the Core.
	onResult func(runID string, res WireResult)

	// gen is closed and replaced on every state mutation; Changed hands
	// it to long-pollers.
	gen chan struct{}
}

// CoreOptions parameterizes a coordinator core.
type CoreOptions struct {
	// LeaseTTL is the heartbeat deadline (DefaultLeaseTTL if zero).
	LeaseTTL time.Duration
	// MaxAttempts bounds leases per task (DefaultMaxAttempts if zero).
	MaxAttempts int
	// Now is the clock (time.Now if nil); tests inject a fake.
	Now func() time.Time
	// OnResult observes every accepted result as it lands.
	OnResult func(runID string, res WireResult)
}

// NewCore builds a coordinator core.
func NewCore(opts CoreOptions) *Core {
	c := &Core{
		now:         opts.Now,
		leaseTTL:    opts.LeaseTTL,
		maxAttempts: opts.MaxAttempts,
		runs:        make(map[string]*run),
		workers:     make(map[string]*workerState),
		leased:      make(map[int]*task),
		onResult:    opts.OnResult,
		gen:         make(chan struct{}),
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.leaseTTL <= 0 {
		c.leaseTTL = DefaultLeaseTTL
	}
	if c.maxAttempts <= 0 {
		c.maxAttempts = DefaultMaxAttempts
	}
	c.incarnation = incarnationToken(c.now())
	return c
}

// incarnationToken builds a short token unique to one coordinator
// incarnation: start time (milliseconds, base 36) plus random bits. Run
// IDs embed it, so a restarted coordinator pointed at the same -results
// directory can never overwrite or interleave a previous incarnation's
// run directories.
func incarnationToken(start time.Time) string {
	var b [4]byte
	_, _ = rand.Read(b[:])
	return strconv.FormatInt(start.UnixMilli(), 36) + hex.EncodeToString(b[:])
}

// LeaseTTL returns the configured heartbeat deadline.
func (c *Core) LeaseTTL() time.Duration { return c.leaseTTL }

// bump signals state observers (long-pollers) by closing the current
// generation channel. Callers hold c.mu.
func (c *Core) bump() {
	close(c.gen)
	c.gen = make(chan struct{})
}

// Changed returns a channel closed at the next state mutation. The HTTP
// layer long-polls on it; the channel is replaced after each close, so
// callers re-fetch per wait.
func (c *Core) Changed() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// expire re-queues tasks whose lease deadline has passed: the worker
// missed its heartbeat, so the whole unit goes back to pending (waking
// the long-polls) — unless its lease budget is spent, in which case every
// job of the unit completes with a hard error result. It looks only at
// leased tasks. Callers hold c.mu.
func (c *Core) expire() {
	now := c.now()
	for _, t := range c.leased {
		if now.Before(t.deadline) {
			continue
		}
		if t.att >= c.maxAttempts {
			res := WireResult{V: WireVersion, Err: fmt.Sprintf("remote: task %d (%d jobs) lost its worker %d times (lease ttl %s); giving up",
				t.id, len(t.specs), t.att, c.leaseTTL)}
			c.finish(t, slices.Repeat([]WireResult{res}, len(t.specs)))
			continue
		}
		delete(c.leased, t.id)
		t.state = taskPending
		heap.Push(&c.pending, t)
		c.bump()
	}
}

// finish records a task's completion and streams its results, one per
// job, under the jobs' own indices (and labels, where a result names
// none). Callers hold c.mu; the task must not already be done.
func (c *Core) finish(t *task, results []WireResult) {
	t.state = taskDone
	delete(c.leased, t.id)
	r := c.runs[t.runID]
	for k, res := range results {
		res.Index = t.indices[k]
		if res.Label == "" {
			res.Label = t.specs[k].Label
		}
		r.results = append(r.results, res)
		if c.onResult != nil {
			c.onResult(r.id, res)
		}
	}
	c.bump()
}

// OpenRun starts a new run (one client batch) and returns its ID.
func (c *Core) OpenRun() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return "", ErrClosed
	}
	c.nextRun++
	id := fmt.Sprintf("run-%s-%d", c.incarnation, c.nextRun)
	c.runs[id] = &run{id: id, tasks: make(map[int]*task)}
	c.bump()
	return id, nil
}

// Slots returns the slots of the workers seen within the lease TTL (at
// least 1), the width a client splits its grid for: workers heartbeat at
// a third of it, idle or not, so a dead worker's slots stop counting.
func (c *Core) Slots() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, now := 0, c.now()
	for _, w := range c.workers {
		if now.Sub(w.seen) < c.leaseTTL {
			n += w.slots
		}
	}
	return max(n, 1)
}

// SubmitUnit enqueues one unit on a run: a row of jobs sharing a front
// half, or a single job. indices[k] is the caller's submission index of
// specs[k], echoed in its result (runner.Backend contract).
func (c *Core) SubmitUnit(runID string, indices []int, specs []JobSpec) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expire()
	if c.closed {
		return ErrClosed
	}
	r, ok := c.runs[runID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoRun, runID)
	}
	if r.closed {
		return fmt.Errorf("%w: run %s", ErrClosed, runID)
	}
	if len(specs) == 0 || len(indices) != len(specs) {
		return fmt.Errorf("remote: a unit of %d specs with %d indices", len(specs), len(indices))
	}
	if slices.ContainsFunc(specs, func(s JobSpec) bool { return s.V != WireVersion }) {
		return fmt.Errorf("remote: a job spec of the unit is not wire version %d", WireVersion)
	}
	c.nextTask++
	t := &task{id: c.nextTask, runID: runID, indices: indices, specs: specs}
	r.tasks[t.id] = t
	r.jobs += len(specs)
	heap.Push(&c.pending, t)
	c.bump()
	return nil
}

// CloseRun marks a run complete-when-drained: no further submissions
// are accepted, and once every task has a result the run reports done.
// Idempotent.
func (c *Core) CloseRun(runID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expire()
	r, ok := c.runs[runID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoRun, runID)
	}
	if !r.closed {
		r.closed = true
		c.bump()
	}
	return nil
}

// Results returns the run's results from cursor on (completion order)
// and whether the run is done (closed and fully drained). The caller
// advances its cursor by len(results). A done run is evicted once every
// result has been served, so a long-lived coordinator's memory is
// bounded by its active runs; later task lookups (a very late duplicate
// post) fail with a plain error the worker already tolerates.
func (c *Core) Results(runID string, cursor int) ([]WireResult, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expire()
	r, ok := c.runs[runID]
	if !ok {
		return nil, false, fmt.Errorf("%w: %s", ErrNoRun, runID)
	}
	if cursor < 0 || cursor > len(r.results) {
		return nil, false, fmt.Errorf("remote: run %s: cursor %d out of range [0,%d]", runID, cursor, len(r.results))
	}
	out := make([]WireResult, len(r.results)-cursor)
	copy(out, r.results[cursor:])
	if end := cursor + len(out); end > r.fetched {
		r.fetched = end
	}
	done := r.done()
	if done && r.fetched == len(r.results) {
		delete(c.runs, runID)
	}
	return out, done, nil
}

// RegisterWorker registers a worker that runs slots units at once and
// returns its ID. name is diagnostic only.
func (c *Core) RegisterWorker(name string, slots int) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return "", ErrClosed
	}
	c.nextWorker++
	id := fmt.Sprintf("w-%d", c.nextWorker)
	c.workers[id] = &workerState{id: id, name: name, slots: max(slots, 1), seen: c.now()}
	c.bump()
	return id, nil
}

// LeaseTasks hands up to max pending tasks to a worker, oldest first
// (task IDs are monotonic, so the pending heap is FIFO across runs).
// Each lease starts the task's heartbeat clock.
func (c *Core) LeaseTasks(workerID string, max int) ([]Lease, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expire()
	if _, ok := c.workers[workerID]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoWorker, workerID)
	}
	if max <= 0 {
		return nil, nil
	}
	var leases []Lease
	deadline := c.now().Add(c.leaseTTL)
	for len(leases) < max && c.pending.Len() > 0 {
		t := heap.Pop(&c.pending).(*task)
		if t.state != taskPending {
			// Stale heap entry: completed by a late post while queued.
			continue
		}
		t.state = taskLeased
		t.att++
		t.worker = workerID
		t.deadline = deadline
		c.leased[t.id] = t
		leases = append(leases, Lease{TaskID: t.id, Specs: t.specs})
	}
	if len(leases) > 0 {
		c.bump()
	}
	return leases, nil
}

// Heartbeat extends the lease deadline of the worker's in-flight tasks
// and returns the IDs among them the worker no longer owns — expired
// leases re-queued (and possibly re-leased elsewhere) or tasks already
// completed. The worker must abandon lost tasks: cancel the local run
// and never post their results.
func (c *Core) Heartbeat(workerID string, taskIDs []int) ([]int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expire()
	w, ok := c.workers[workerID]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoWorker, workerID)
	}
	w.seen = c.now()
	deadline := w.seen.Add(c.leaseTTL)
	var lost []int
	for _, id := range taskIDs {
		t := c.findTask(id)
		if t == nil || t.state != taskLeased || t.worker != workerID {
			lost = append(lost, id)
			continue
		}
		t.deadline = deadline
	}
	return lost, nil
}

// findTask locates a task by ID across runs. Callers hold c.mu.
func (c *Core) findTask(id int) *task {
	for _, r := range c.runs {
		if t, ok := r.tasks[id]; ok {
			return t
		}
	}
	return nil
}

// Complete posts a task's results, one per job of its unit in order; a
// post of any other count is refused. The task ID is the idempotency
// key: the first completion wins and is accepted even if the poster's
// lease had expired (the work is real; re-leased duplicates are the
// cheap side to drop), every later completion reports accepted=false and
// changes nothing. A worker whose completion is rejected moves on.
func (c *Core) Complete(workerID string, taskID int, results []WireResult) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expire()
	if _, ok := c.workers[workerID]; !ok {
		return false, fmt.Errorf("%w: %s", ErrNoWorker, workerID)
	}
	if slices.ContainsFunc(results, func(r WireResult) bool { return r.V != WireVersion }) {
		return false, fmt.Errorf("remote: a result is not wire version %d", WireVersion)
	}
	t := c.findTask(taskID)
	if t == nil {
		return false, fmt.Errorf("remote: no such task %d", taskID)
	}
	if len(results) != len(t.specs) {
		return false, fmt.Errorf("remote: task %d has %d jobs, the post %d results", taskID, len(t.specs), len(results))
	}
	if t.state == taskDone {
		return false, nil
	}
	c.finish(t, results)
	return true, nil
}

// Close shuts the coordinator: new runs, submissions, and worker
// registrations are refused. Existing runs may drain. Idempotent.
func (c *Core) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		c.bump()
	}
}
