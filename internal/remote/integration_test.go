package remote

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/runner/runnertest"
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
// same jobs through the remote stack (two workers) and through
// LocalBackend produce identical simulation results.
func TestRemoteMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test runs real simulations")
	}
	jobs := runnertest.Jobs(t, 6)

	local := runner.NewLocalBackend(2)
	want, err := runner.RunOn(context.Background(), local, jobs, nil)
	local.Close()
	if err != nil {
		t.Fatal(err)
	}

	h := newHarness(t, CoreOptions{})
	h.startWorker("w1", 2)
	h.startWorker("w2", 2)
	b, err := DialAuth(h.srv.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got, err := runner.RunOn(context.Background(), b, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if got[i].Err != nil {
			t.Fatalf("remote job %d (%s): %v", i, got[i].Label, got[i].Err)
		}
		if got[i].Sim != want[i].Sim {
			t.Errorf("job %d (%s): remote sim result differs from local:\nremote %+v\nlocal  %+v",
				i, jobs[i].Label, got[i].Sim, want[i].Sim)
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

// TestWorkerKilledMidRun kills one of two workers mid-sweep: its leased
// tasks must be re-queued after the lease TTL and every job must still
// complete exactly once with a real result.
func TestWorkerKilledMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test runs real simulations")
	}
	// Short TTL so the re-lease happens within test time.
	h := newHarness(t, CoreOptions{LeaseTTL: 500 * time.Millisecond})
	killVictim := h.startWorker("victim", 1)
	jobs := runnertest.Jobs(t, 5)

	b, err := DialAuth(h.srv.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Let the victim lease work, then kill it and bring up the survivor.
	go func() {
		time.Sleep(150 * time.Millisecond)
		killVictim()
		h.startWorker("survivor", 2)
	}()
	results, err := runner.RunOn(context.Background(), b, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	seen := make(map[int]bool)
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("job %d (%s): %v", i, r.Label, r.Err)
		}
		if r.Sim.Instructions == 0 {
			t.Errorf("job %d (%s): zero-valued result after re-lease", i, r.Label)
		}
		if seen[r.Index] {
			t.Errorf("index %d delivered twice", r.Index)
		}
		seen[r.Index] = true
	}
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
	err = b.Submit(context.Background(), 0, runnertest.Jobs(t, 1)[0])
	if !errors.Is(err, runner.ErrBackendClosed) {
		t.Fatalf("Submit after coordinator Close = %v, want runner.ErrBackendClosed", err)
	}
}
