package remote

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/httpapi"
	"repro/internal/runner"
	"repro/internal/sim"
)

// leasePollMS is the long-poll wait a worker requests per lease call.
const leasePollMS = 2000

// Worker pulls tasks from a coordinator and runs them on the local
// machine: register, heartbeat, lease up to Parallel tasks, and post each
// task's results with its task ID as the idempotency key. A task is a
// unit: a row of jobs sharing a front half, run through one program
// image, executor and front end (runner.RunRow), or a single job. A
// worker that loses a lease (the heartbeat response disowns the task)
// cancels the local run and never posts its results; a worker that dies
// simply stops heartbeating and the coordinator re-queues its tasks. A
// worker whose registration is lost (404 on lease or heartbeat after a
// coordinator restart) cancels its in-flight tasks and re-registers
// for a fresh worker ID.
type Worker struct {
	// Coord is the coordinator address (host:port or http://host:port).
	Coord string
	// Name labels the worker in coordinator diagnostics.
	Name string
	// Parallel is the number of tasks run concurrently, reported to the
	// coordinator at registration; <= 0 means GOMAXPROCS.
	Parallel int
	// Token authenticates against a token-protected coordinator
	// (pifcoord -auth-token); "" for an open one.
	Token string

	hc   *http.Client
	base string

	mu       sync.Mutex
	workerID string
	inflight map[int]context.CancelFunc // taskID -> cancel (lease lost / shutdown)
}

// Run executes the worker loop until ctx is canceled or the coordinator
// refuses it (registration on a closed coordinator, or with a bad
// token); a coordinator that is not up yet is retried (registerFirst).
// In-flight tasks at cancellation are abandoned unposted: the
// coordinator's heartbeat deadline re-queues them, which is exactly the
// kill-a-worker failure path.
func (w *Worker) Run(ctx context.Context) error {
	w.base = w.Coord
	if !strings.Contains(w.base, "://") {
		w.base = "http://" + w.base
	}
	w.base = strings.TrimSuffix(w.base, "/")
	w.hc = httpapi.Client(w.Token)
	w.inflight = make(map[int]context.CancelFunc)

	slots := runner.Workers(w.Parallel)

	reg, err := w.registerFirst(ctx)
	if err != nil {
		return err
	}
	ttl := time.Duration(reg.LeaseTTLMS) * time.Millisecond
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}

	// Heartbeat at a third of the lease TTL: two beats may be lost
	// before the coordinator declares the worker dead.
	hbCtx, hbCancel := context.WithCancel(ctx)
	defer hbCancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.heartbeatLoop(hbCtx, ttl/3)
	}()
	defer wg.Wait()

	sem := make(chan struct{}, slots)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Block for a free slot before leasing, so the worker never
		// holds leases it cannot start.
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
		w.mu.Lock()
		workerID := w.workerID
		w.mu.Unlock()
		var resp leaseResponse
		err := httpJSON(ctx, w.hc, http.MethodPost, w.base+"/v1/lease",
			leaseRequest{V: WireVersion, WorkerID: workerID, Max: 1, WaitMS: leasePollMS}, &resp)
		if err != nil {
			<-sem
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if httpapi.IsStatus(err, http.StatusNotFound) {
				// The coordinator does not know this worker: it restarted
				// and lost its in-memory state. Every lease died with it —
				// cancel in-flight tasks so their results are never posted
				// under the dead ID — then re-register for a fresh one.
				w.cancelInflight()
				if _, rerr := w.register(ctx); rerr == nil {
					continue
				} else if errors.Is(rerr, runner.ErrBackendClosed) {
					// Re-registration refused: the coordinator is
					// shutting down, same as a refusal at startup.
					return rerr
				}
				// Re-registration failed transiently: fall through to
				// the backoff and retry (the stale ID will 404 again).
			}
			// Coordinator unreachable or refusing: back off and retry.
			select {
			case <-time.After(retryBackoff):
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		if len(resp.Leases) == 0 {
			<-sem
			continue
		}
		lease := resp.Leases[0]
		jobCtx, cancel := context.WithCancel(ctx)
		w.mu.Lock()
		w.inflight[lease.TaskID] = cancel
		w.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			w.runTask(jobCtx, workerID, lease)
		}()
	}
}

// retryBackoff is the pause before a worker retries a coordinator it
// could not reach.
const retryBackoff = 500 * time.Millisecond

// registerFirst registers a starting worker. A worker may start before
// its coordinator listens, or while it restarts, so a transport error
// or a 5xx answer is retried every retryBackoff until ctx ends. A 4xx
// answer is final: 409 (a closed coordinator, runner.ErrBackendClosed)
// and 401 (a bad token) will not change on retry.
func (w *Worker) registerFirst(ctx context.Context) (registerWorkerResponse, error) {
	for {
		reg, err := w.register(ctx)
		var se *httpapi.StatusError
		if err == nil || errors.Is(err, runner.ErrBackendClosed) || errors.As(err, &se) && se.Status < 500 {
			return reg, err
		}
		select {
		case <-time.After(retryBackoff):
		case <-ctx.Done():
			return reg, ctx.Err()
		}
	}
}

// register obtains a (fresh) worker ID from the coordinator and installs
// it as the ID subsequent leases and heartbeats use.
func (w *Worker) register(ctx context.Context) (registerWorkerResponse, error) {
	var reg registerWorkerResponse
	if err := httpJSON(ctx, w.hc, http.MethodPost, w.base+"/v1/workers",
		registerWorkerRequest{V: WireVersion, Name: w.Name, Slots: runner.Workers(w.Parallel)}, &reg); err != nil {
		return reg, fmt.Errorf("remote: worker register: %w", err)
	}
	w.mu.Lock()
	w.workerID = reg.WorkerID
	w.mu.Unlock()
	return reg, nil
}

// cancelInflight cancels every in-flight task; used when the worker's
// registration is lost and its leases are void.
func (w *Worker) cancelInflight() {
	w.mu.Lock()
	cancels := make([]context.CancelFunc, 0, len(w.inflight))
	for _, c := range w.inflight {
		cancels = append(cancels, c)
	}
	w.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// runTask executes one leased task and posts its results. A task whose
// context dies (worker shutdown or lost lease) is abandoned: the results
// are never posted, and the coordinator's lease deadline re-queues it.
func (w *Worker) runTask(ctx context.Context, workerID string, lease Lease) {
	defer func() {
		w.mu.Lock()
		delete(w.inflight, lease.TaskID)
		w.mu.Unlock()
	}()
	results := make([]WireResult, len(lease.Specs))
	for k, r := range runUnit(ctx, lease.Specs) {
		results[k] = EncodeResult(r)
	}
	if ctx.Err() != nil {
		// Shutdown or lost lease: abandon. Posting now could race a
		// re-lease; the coordinator's idempotency key would drop one
		// copy, but the kill path must look identical whether the
		// process died or was canceled.
		return
	}
	// Post with retries: completions are idempotent (task ID keyed), so
	// resending after a timeout is safe.
	for attempt := 0; attempt < 3; attempt++ {
		var cr completeResponse
		err := httpJSON(ctx, w.hc, http.MethodPost, w.base+"/v1/complete",
			completeRequest{V: WireVersion, WorkerID: workerID, TaskID: lease.TaskID, Results: results}, &cr)
		if err == nil {
			return
		}
		if httpapi.IsStatus(err, http.StatusNotFound) {
			// The coordinator no longer knows this worker or task
			// (restart, or the run drained without us): the post can
			// never be accepted, so retrying is pointless.
			return
		}
		select {
		case <-time.After(200 * time.Millisecond):
		case <-ctx.Done():
			return
		}
	}
}

// runUnit decodes a leased unit and runs the members that decode as one
// row; a member that does not decode fails alone, as it would in a local
// row. If the decoded members do not all share the first one's front
// half, they all fail: a row replays its first job's source, so a mixed
// unit would give silently wrong results.
func runUnit(ctx context.Context, specs []JobSpec) []runner.Result {
	out := make([]runner.Result, len(specs))
	var jobs []runner.Job
	var at []int // at[i] is the member jobs[i] decoded from
	for k, spec := range specs {
		j, err := spec.Job()
		out[k] = runner.Result{Label: spec.Label, Err: err}
		if err == nil {
			jobs, at = append(jobs, j), append(at, k)
		}
	}
	if slices.ContainsFunc(jobs, func(j runner.Job) bool { return !sim.SameFront(jobs[0], j) }) {
		err := fmt.Errorf("remote: the members of unit %s do not share a front half", specs[0].Label)
		for _, k := range at {
			out[k].Err = err
		}
	} else if len(jobs) > 0 {
		for _, r := range runner.RunRow(ctx, at, jobs) {
			out[r.Index] = r
		}
	}
	return out
}

// heartbeatLoop extends the worker's leases and cancels tasks the
// coordinator has disowned. It beats while idle too: the coordinator
// counts a worker's slots only while it heartbeats.
func (w *Worker) heartbeatLoop(ctx context.Context, every time.Duration) {
	if every <= 0 {
		every = time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		w.mu.Lock()
		ids := make([]int, 0, len(w.inflight))
		for id := range w.inflight {
			ids = append(ids, id)
		}
		workerID := w.workerID
		w.mu.Unlock()
		var resp heartbeatResponse
		err := httpJSON(ctx, w.hc, http.MethodPost, w.base+"/v1/heartbeat",
			heartbeatRequest{V: WireVersion, WorkerID: workerID, TaskIDs: ids}, &resp)
		if err != nil {
			if httpapi.IsStatus(err, http.StatusNotFound) {
				// Registration lost (coordinator restart): every lease is
				// void. Cancel the local jobs; the lease loop re-registers.
				w.cancelInflight()
			}
			continue // missed beat; the next one may still make the deadline
		}
		for _, id := range resp.Lost {
			w.mu.Lock()
			cancel := w.inflight[id]
			w.mu.Unlock()
			if cancel != nil {
				cancel()
			}
		}
	}
}
