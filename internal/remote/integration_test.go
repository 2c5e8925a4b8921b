package remote

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/prefetch"
	"repro/internal/runner"
	"repro/internal/runner/runnertest"
	"repro/internal/sim"
)

// harness is one in-process coordinator with real HTTP listeners and
// helpers to attach workers.
type harness struct {
	core   *Core
	srv    *httptest.Server
	cancel context.CancelFunc
	wg     sync.WaitGroup
	ctx    context.Context
}

func newHarness(t *testing.T, opts CoreOptions) *harness {
	t.Helper()
	core := NewCore(opts)
	srv := httptest.NewServer(NewServer(core))
	ctx, cancel := context.WithCancel(context.Background())
	h := &harness{core: core, srv: srv, cancel: cancel, ctx: ctx}
	t.Cleanup(func() {
		cancel()
		h.wg.Wait()
		srv.Close()
	})
	return h
}

// startWorker runs a worker against the harness coordinator and returns
// a cancel that kills it (abandoning in-flight tasks unposted — the
// same observable state as a SIGKILLed worker process).
func (h *harness) startWorker(name string, parallel int) context.CancelFunc {
	ctx, cancel := context.WithCancel(h.ctx)
	w := &Worker{Coord: h.srv.URL, Name: name, Parallel: parallel}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		_ = w.Run(ctx)
	}()
	return cancel
}

// gridJobs builds workloads × engines conformance jobs, workload-major
// (at most four engines): the jobs of one workload share a front half,
// so RunOn runs them as a row.
func gridJobs(t *testing.T, workloads, engines int) []runner.Job {
	var jobs []runner.Job
	for _, j := range runnertest.Jobs(t, workloads) {
		for _, name := range []string{"none", "nextline", "tifs", "pif"}[:engines] {
			j.Engine = prefetch.Spec{Name: name}
			j.Label = j.Workload.Name + "/" + name
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// waitSlots waits until live workers have n slots in all, so a run
// opened next has the fleet's full width.
func (h *harness) waitSlots(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		slots := h.core.Slots()
		if slots >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d worker slots registered, want %d", slots, n)
		}
	}
}

// runOnce runs jobs on b and requires every job to report exactly once,
// under its own index and label, with the result the local run got.
func runOnce(t *testing.T, b runner.Backend, jobs []runner.Job, want []runner.Result) {
	t.Helper()
	seen := make([]int, len(jobs))
	got, err := runner.RunOn(context.Background(), b, jobs, func(p runner.Progress) { seen[p.Index]++ })
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if seen[i] != 1 {
			t.Errorf("job %d (%s) reported %d times, want once", i, jobs[i].Label, seen[i])
		}
		if r.Index != i || r.Label != jobs[i].Label {
			t.Errorf("result %d: index %d, label %q; want %d, %q", i, r.Index, r.Label, i, jobs[i].Label)
		}
		if r.Err != nil {
			t.Fatalf("remote job %d (%s): %v", i, r.Label, r.Err)
		}
		if r.Sim != want[i].Sim {
			t.Errorf("job %d (%s): remote sim result differs from local:\nremote %+v\nlocal  %+v",
				i, jobs[i].Label, r.Sim, want[i].Sim)
		}
	}
}

// runLocal runs jobs on a two-worker local backend.
func runLocal(t *testing.T, jobs []runner.Job) []runner.Result {
	t.Helper()
	local := runner.NewLocalBackend(2)
	defer local.Close()
	want, err := runner.RunOn(context.Background(), local, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestRemoteBackendConformance runs the shared backend contract against
// the full stack: HTTP coordinator, two workers, client backend.
func TestRemoteBackendConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test runs real simulations")
	}
	h := newHarness(t, CoreOptions{})
	h.startWorker("w1", 2)
	h.startWorker("w2", 2)
	runnertest.Conformance(t, func(t *testing.T) runner.Backend {
		b, err := DialAuth(h.srv.URL, "")
		if err != nil {
			t.Fatal(err)
		}
		return b
	})
}

// TestLocalBackendConformance anchors the contract on the reference
// implementation, so a conformance regression is attributable.
func TestLocalBackendConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance runs real simulations")
	}
	runnertest.Conformance(t, func(t *testing.T) runner.Backend {
		return runner.NewLocalBackend(2)
	})
}

// TestRemoteMatchesLocal is the distribution-correctness anchor: the
// same jobs through the remote stack and through LocalBackend produce
// identical simulation results. A grid's two rows of four split into
// four units of two for the fleet's four slots, and one job of each of
// the six standard workloads runs as six single-job units.
func TestRemoteMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test runs real simulations")
	}
	jobs, standard := gridJobs(t, 2, 4), runnertest.Jobs(t, 6)
	want, wantStandard := runLocal(t, jobs), runLocal(t, standard)

	h := newHarness(t, CoreOptions{})
	h.startWorker("w1", 2)
	h.startWorker("w2", 2)
	h.waitSlots(t, 4)
	b, err := DialAuth(h.srv.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Width() != 4 {
		t.Errorf("Width() = %d, want the fleet's 4 slots", b.Width())
	}
	runOnce(t, b, jobs, want)
	runOnce(t, b, standard, wantStandard)
}

// TestRowIsOneTaskAndOneLease: on a one-slot fleet, a two-engine row
// travels as one task, leased once, and both jobs come back.
func TestRowIsOneTaskAndOneLease(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test runs real simulations")
	}
	jobs := gridJobs(t, 1, 2)
	h := newHarness(t, CoreOptions{})
	h.startWorker("w", 1)
	h.waitSlots(t, 1)
	b, err := DialAuth(h.srv.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	runOnce(t, b, jobs, runLocal(t, jobs))
	h.core.mu.Lock()
	defer h.core.mu.Unlock()
	tasks := h.core.runs[b.runID].tasks
	if len(tasks) != 1 {
		t.Fatalf("the row travelled as %d tasks, want one", len(tasks))
	}
	for _, task := range tasks {
		if task.att != 1 || len(task.specs) != 2 {
			t.Errorf("task %d: %d jobs, leased %d times; want 2 jobs, leased once", task.id, len(task.specs), task.att)
		}
	}
}

// TestRemoteWidthFollowsFleet: a client that dials before any worker
// registers reports width 1, takes up a worker's slots once it
// registers, and drops them once the worker dies, without redialing.
func TestRemoteWidthFollowsFleet(t *testing.T) {
	h := newHarness(t, CoreOptions{LeaseTTL: 300 * time.Millisecond})
	b, err := DialAuth(h.srv.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	waitWidth := func(want int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); b.Width() != want; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("Width() = %d, want %d", b.Width(), want)
			}
		}
	}
	waitWidth(1)
	kill := h.startWorker("w", 3)
	waitWidth(3)
	kill()
	waitWidth(1)
}

// TestWorkerDecodesMembersApart: a unit member that does not decode (an
// engine the worker's registry lacks) fails alone, as in a local row, and
// the other member runs and matches its local result.
func TestWorkerDecodesMembersApart(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test runs a real simulation")
	}
	jobs := gridJobs(t, 1, 2)
	want := runLocal(t, jobs[:1])
	specs := make([]JobSpec, len(jobs))
	for k, j := range jobs {
		var err error
		if specs[k], err = EncodeJob(j); err != nil {
			t.Fatal(err)
		}
	}
	specs[1].Engine.Name = "no-such-engine"
	got := runUnit(context.Background(), specs)
	if got[0].Err != nil || got[0].Sim != want[0].Sim || got[0].Label != jobs[0].Label {
		t.Errorf("decoded member: %+v, want the local result %+v", got[0], want[0])
	}
	if got[1].Err == nil || !strings.Contains(got[1].Err.Error(), "no-such-engine") || got[1].Label != jobs[1].Label {
		t.Errorf("undecodable member: label %q, err %v; want its own engine error", got[1].Label, got[1].Err)
	}
}

// TestWorkerRefusesMixedFrontUnit: a unit whose members do not share a
// front half (here, two different stores) gets an error for every
// member; a row would replay the first member's store for both.
func TestWorkerRefusesMixedFrontUnit(t *testing.T) {
	h := newHarness(t, CoreOptions{})
	h.startWorker("w", 1)
	b, err := DialAuth(h.srv.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	jobs := gridJobs(t, 1, 2)
	jobs[0].From, jobs[1].From = sim.StoreSource("store-a"), sim.StoreSource("store-b")
	if err := b.Submit(context.Background(), []int{3, 4}, jobs); err != nil {
		t.Fatal(err)
	}
	for range jobs {
		select {
		case r := <-b.Results():
			if r.Err == nil || !strings.Contains(r.Err.Error(), "front half") {
				t.Errorf("member %d (%s): err = %v, want a front-half refusal", r.Index, r.Label, r.Err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("no result for the mixed unit")
		}
	}
}

// TestWorkerStartsBeforeCoordinator: a worker started while nothing
// listens at its coordinator's address keeps retrying registration
// instead of exiting, and once a coordinator serves that address, a
// submitted job completes on it. A closed coordinator still refuses a
// starting worker at once.
func TestWorkerStartsBeforeCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test runs a real simulation")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	exited := make(chan error, 1)
	w := &Worker{Coord: addr, Name: "early", Parallel: 1}
	go func() { exited <- w.Run(ctx) }()
	// Three registration attempts fail while nothing listens.
	select {
	case err := <-exited:
		t.Fatalf("worker exited before its coordinator came up: %v", err)
	case <-time.After(3 * retryBackoff):
	}

	if ln, err = net.Listen("tcp", addr); err != nil {
		t.Fatal(err)
	}
	core := NewCore(CoreOptions{})
	srv := httptest.NewUnstartedServer(NewServer(core))
	srv.Listener.Close()
	srv.Listener = ln
	srv.Start()
	defer srv.Close()
	b, err := DialAuth(srv.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	runCtx, runCancel := context.WithTimeout(ctx, time.Minute)
	defer runCancel()
	res, err := runner.RunOn(runCtx, b, runnertest.Jobs(t, 1), nil)
	if err != nil || res[0].Err != nil {
		t.Fatalf("job on the late coordinator: %v, %v", err, res)
	}
	cancel()
	if err := <-exited; !errors.Is(err, context.Canceled) {
		t.Errorf("worker Run = %v, want context.Canceled", err)
	}

	core.Close()
	late := &Worker{Coord: srv.URL, Name: "late", Parallel: 1}
	refuseCtx, refuseCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer refuseCancel()
	if err := late.Run(refuseCtx); !errors.Is(err, runner.ErrBackendClosed) {
		t.Errorf("worker Run on a closed coordinator = %v, want runner.ErrBackendClosed", err)
	}
}

// TestWorkerKilledMidRun kills a one-slot worker as soon as it has
// leased a row: the row must be re-queued whole after the lease TTL, and
// every job must still complete exactly once with the local result.
func TestWorkerKilledMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test runs real simulations")
	}
	jobs := gridJobs(t, 2, 3)
	for i := range jobs {
		// Long enough that the victim dies mid-row.
		jobs[i].Config.MeasureInstrs = 1_000_000
	}
	want := runLocal(t, jobs)

	// Short TTL so the re-lease happens within test time.
	h := newHarness(t, CoreOptions{LeaseTTL: 500 * time.Millisecond})
	killVictim := h.startWorker("victim", 1)
	h.waitSlots(t, 1)
	b, err := DialAuth(h.srv.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Kill the victim once it holds a row, then bring up the survivor.
	go func() {
		for h.ctx.Err() == nil {
			h.core.mu.Lock()
			leased := len(h.core.leased)
			h.core.mu.Unlock()
			if leased > 0 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		if h.ctx.Err() == nil {
			killVictim()
			h.startWorker("survivor", 2)
		}
	}()
	runOnce(t, b, jobs, want)
}

// TestWorkerReregistersAfterCoordinatorRestart: a worker registered
// with one coordinator incarnation must, once that coordinator is
// replaced by a restart that lost all in-memory state, detect the 404
// on its stale worker ID, re-register, and serve jobs submitted to the
// new incarnation — not idle forever retrying the dead ID.
func TestWorkerReregistersAfterCoordinatorRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test runs real simulations")
	}
	core1 := NewCore(CoreOptions{})
	var cur atomic.Pointer[Server]
	cur.Store(NewServer(core1))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().ServeHTTP(w, r)
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	w := &Worker{Coord: srv.URL, Name: "phoenix", Parallel: 1}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = w.Run(ctx)
	}()
	defer wg.Wait()
	defer cancel()

	// Wait for the worker to register with the first incarnation, then
	// swap in a fresh core: the observable state of a coordinator restart.
	deadline := time.Now().Add(5 * time.Second)
	for {
		core1.mu.Lock()
		n := len(core1.workers)
		core1.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never registered with the first coordinator")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cur.Store(NewServer(NewCore(CoreOptions{})))

	b, err := DialAuth(srv.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	jobs := runnertest.Jobs(t, 2)
	results, err := runner.RunOn(context.Background(), b, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("job %d (%s) after restart: %v", i, r.Label, r.Err)
		}
	}
}

// TestRemoteSubmitAfterCoordinatorClose checks the server-side refusal
// path: a coordinator that has shut down answers submissions with 409,
// which the client maps to runner.ErrBackendClosed.
func TestRemoteSubmitAfterCoordinatorClose(t *testing.T) {
	h := newHarness(t, CoreOptions{})
	b, err := DialAuth(h.srv.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	h.core.Close()
	err = b.Submit(context.Background(), []int{0}, runnertest.Jobs(t, 1))
	if !errors.Is(err, runner.ErrBackendClosed) {
		t.Fatalf("Submit after coordinator Close = %v, want runner.ErrBackendClosed", err)
	}
}
