package runner

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/config"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestLocalBackendProtocol exercises the raw Submit/Results/Close
// protocol without the RunOn driver: every submitted job yields exactly
// one result echoing its index, and Close drains in-flight work before
// closing the stream.
func TestLocalBackendProtocol(t *testing.T) {
	b := NewLocalBackend(2)
	jobs := testJobs(t, 4)
	collected := make(chan map[int]Result, 1)
	go func() {
		out := map[int]Result{}
		for r := range b.Results() {
			out[r.Index] = r
		}
		collected <- out
	}()
	for i, j := range jobs {
		// Indices are caller-chosen: tag with a stride to prove the
		// backend echoes rather than invents them.
		if err := b.Submit(context.Background(), []int{i * 10}, []Job{j}); err != nil {
			t.Fatalf("Submit(%d): %v", i, err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	out := <-collected
	if len(out) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(out), len(jobs))
	}
	for i, j := range jobs {
		r, ok := out[i*10]
		if !ok {
			t.Fatalf("no result for index %d", i*10)
		}
		if r.Err != nil {
			t.Errorf("job %d: %v", i, r.Err)
		}
		if r.Label != j.Label {
			t.Errorf("job %d label = %q, want %q", i, r.Label, j.Label)
		}
	}
}

// countingBackend wraps a Backend and counts the jobs submitted — the
// stand-in for an alternative Backend implementation, proving the
// interface (not the concrete pool) is what drivers program against.
type countingBackend struct {
	Backend
	submits atomic.Int32
}

func (c *countingBackend) Submit(ctx context.Context, idx []int, jobs []Job) error {
	c.submits.Add(int32(len(jobs)))
	return c.Backend.Submit(ctx, idx, jobs)
}

// TestRunOnCustomBackend drives RunOn through a wrapped backend and
// asserts results are byte-identical to a plain local run of the same
// jobs — backend selection cannot perturb simulation outcomes.
func TestRunOnCustomBackend(t *testing.T) {
	jobs := testJobs(t, 5)
	inner := NewLocalBackend(3)
	cb := &countingBackend{Backend: inner}
	viaBackend, err := RunOn(context.Background(), cb, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	inner.Close()
	if got := cb.submits.Load(); got != int32(len(jobs)) {
		t.Errorf("custom backend saw %d submits, want %d", got, len(jobs))
	}
	viaPool, err := runLocal(context.Background(), jobs, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if viaBackend[i].Sim != viaPool[i].Sim {
			t.Errorf("job %d: backend result differs from pool result", i)
		}
		if viaBackend[i].Index != i {
			t.Errorf("job %d: index %d", i, viaBackend[i].Index)
		}
	}
}

// TestBackendReuseAcrossRuns asserts one backend can serve several
// sequential RunOn batches (the experiments.Env sharing pattern).
func TestBackendReuseAcrossRuns(t *testing.T) {
	b := NewLocalBackend(2)
	defer b.Close()
	first, err := RunOn(context.Background(), b, testJobs(t, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunOn(context.Background(), b, testJobs(t, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i].Sim != second[i].Sim {
			t.Errorf("job %d: rerun on a reused backend diverged", i)
		}
	}
}

// TestJobSourceCompat is the runner half of the source contract: a
// serializable StoreSource and an opaque source over the same
// recorded store must produce identical sim.Result JSON, and both must
// match the live run.
func TestJobSourceCompat(t *testing.T) {
	wl := workload.OLTPDB2()
	cfg := sim.Config{
		System:        config.Default(),
		WarmupInstrs:  120_000,
		MeasureInstrs: 80_000,
	}
	prog, err := workload.BuildProgram(wl)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	it := workload.NewIterator(prog, cfg.WarmupInstrs, cfg.MeasureInstrs)
	if _, err := trace.BuildStore(dir, wl.Name, 1<<14, it, cfg.WarmupInstrs, cfg.MeasureInstrs); err != nil {
		t.Fatalf("BuildStore: %v", err)
	}
	it.Close()

	jobs := []Job{
		{Label: "live", Workload: wl, Config: cfg, Engine: prefetch.Spec{Name: "tifs"}},
		{Label: "store-source", Workload: wl, Config: cfg, Engine: prefetch.Spec{Name: "tifs"},
			From: sim.StoreSource(dir)},
		{Label: "opener-source", Workload: wl, Config: cfg, Engine: prefetch.Spec{Name: "tifs"},
			From: openerSource(func() (trace.BatchIterator, error) { return trace.OpenStore(dir) })},
	}
	results, err := runLocal(context.Background(), jobs, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	live, err := json.Marshal(results[0].Sim)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 2} {
		got, err := json.Marshal(results[i].Sim)
		if err != nil {
			t.Fatal(err)
		}
		if string(live) != string(got) {
			t.Errorf("%s differs from live:\nlive: %s\ngot:  %s", results[i].Label, live, got)
		}
	}
}

// TestRunOnCancel asserts RunOn's cancellation contract holds for a
// directly driven backend: prompt return, ctx.Err() on every job that
// never ran.
func TestRunOnCancel(t *testing.T) {
	b := NewLocalBackend(1)
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	results, err := RunOn(ctx, b, testJobs(t, 6), func(p Progress) {
		if p.Done == 1 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	last := results[len(results)-1]
	if !errors.Is(last.Err, context.Canceled) {
		t.Errorf("tail job Err = %v, want context.Canceled", last.Err)
	}
}

// refusingBackend accepts a fixed number of submissions, then fails —
// the shape of a remote backend losing its connection mid-batch.
type refusingBackend struct {
	*LocalBackend
	accept int
	seen   atomic.Int32
}

var errRefused = errors.New("backend connection lost")

func (b *refusingBackend) Submit(ctx context.Context, idx []int, jobs []Job) error {
	if int(b.seen.Add(1)) > b.accept {
		return errRefused
	}
	return b.LocalBackend.Submit(ctx, idx, jobs)
}

// TestRunOnSubmitRefusal asserts a backend refusing work mid-batch (with
// the context still live) surfaces as RunOn's error, with every
// never-accepted job carrying the refusal — unrun jobs must never pose
// as completed zero-valued simulations.
func TestRunOnSubmitRefusal(t *testing.T) {
	inner := NewLocalBackend(2)
	defer inner.Close()
	b := &refusingBackend{LocalBackend: inner, accept: 2}
	jobs := testJobs(t, 5)
	results, err := RunOn(context.Background(), b, jobs, nil)
	if !errors.Is(err, errRefused) {
		t.Fatalf("err = %v, want the backend refusal", err)
	}
	var ran int
	for i, r := range results {
		if r.Err == nil && r.Sim.Instructions > 0 {
			ran++
		} else if !errors.Is(r.Err, errRefused) {
			t.Errorf("job %d: Err = %v, want the refusal (never-run jobs must not look successful)", i, r.Err)
		}
	}
	if ran != 2 {
		t.Errorf("%d jobs ran, want the 2 accepted before the refusal", ran)
	}
}

// TestSubmitAfterCloseSentinel asserts the backend-contract sentinel: a
// Submit arriving after Close reports ErrBackendClosed — never a panic
// on the closed job channel, and never an error a caller could mistake
// for a job rejection.
func TestSubmitAfterCloseSentinel(t *testing.T) {
	b := NewLocalBackend(1)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Drain to completion: Close with no jobs in flight must still close
	// the result stream.
	for range b.Results() {
	}
	err := b.Submit(context.Background(), []int{0}, testJobs(t, 1))
	if !errors.Is(err, ErrBackendClosed) {
		t.Fatalf("Submit after Close = %v, want ErrBackendClosed", err)
	}
	// The sentinel must win even with a canceled context: the backend is
	// gone either way, and "closed" is the actionable diagnosis.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := b.Submit(ctx, []int{1}, testJobs(t, 1)); !errors.Is(err, ErrBackendClosed) {
		t.Fatalf("Submit after Close with canceled ctx = %v, want ErrBackendClosed", err)
	}
}

// scriptedBackend drives RunOn through a scripted failure: it accepts a
// fixed number of submissions (running nothing), then refuses with
// submitErr; its result stream delivers the scripted results and closes
// when told to. It reproduces the remote-backend shape "coordinator
// rejected a job, then the connection died".
type scriptedBackend struct {
	accept    int
	submitErr error
	seen      int
	refused   chan struct{} // closed once Submit has failed
	results   chan Result
}

func newScriptedBackend(accept int, submitErr error) *scriptedBackend {
	return &scriptedBackend{
		accept:    accept,
		submitErr: submitErr,
		refused:   make(chan struct{}),
		results:   make(chan Result, 16),
	}
}

func (b *scriptedBackend) Submit(ctx context.Context, idx []int, jobs []Job) error {
	b.seen++
	if b.seen > b.accept && b.submitErr != nil {
		close(b.refused)
		return b.submitErr
	}
	return nil
}

func (b *scriptedBackend) Width() int             { return 1 }
func (b *scriptedBackend) Results() <-chan Result { return b.results }
func (b *scriptedBackend) Close() error           { return nil }

// TestRunOnStreamClosedJoinsSubmitError locks the error-path ordering
// fix: when Submit fails first and the result stream then closes
// mid-run, RunOn's error must carry BOTH the closure and the submit
// refusal (the actual cause), and every job without a result must carry
// a non-nil error.
func TestRunOnStreamClosedJoinsSubmitError(t *testing.T) {
	errSubmit := errors.New("coordinator rejected the job")
	cases := []struct {
		name       string
		accept     int   // submissions accepted before refusal
		submitErr  error // nil = submission never fails
		deliver    []int // result indices delivered before the close
		wantSubmit bool  // errors.Is(err, errSubmit)
	}{
		{name: "submit-fails-then-stream-closes", accept: 2, submitErr: errSubmit, deliver: []int{0}, wantSubmit: true},
		{name: "submit-fails-no-results-then-close", accept: 1, submitErr: errSubmit, deliver: nil, wantSubmit: true},
		{name: "stream-closes-without-submit-error", accept: 5, submitErr: nil, deliver: []int{0, 1}, wantSubmit: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newScriptedBackend(tc.accept, tc.submitErr)
			jobs := testJobs(t, 5)
			go func() {
				if tc.submitErr != nil {
					// Sequence the scripted ordering: the refusal lands
					// first, then results flow, then the stream dies.
					<-b.refused
				}
				for _, idx := range tc.deliver {
					b.results <- Result{Index: idx, Label: jobs[idx].Label}
				}
				close(b.results)
			}()
			results, err := RunOn(context.Background(), b, jobs, nil)
			if err == nil {
				t.Fatal("RunOn succeeded; want a stream-closed error")
			}
			if !strings.Contains(err.Error(), "closed its result stream mid-run") {
				t.Errorf("err = %v, want the stream-closure diagnosis", err)
			}
			if got := errors.Is(err, errSubmit); got != tc.wantSubmit {
				t.Errorf("errors.Is(err, submitErr) = %v, want %v (err = %v)", got, tc.wantSubmit, err)
			}
			delivered := make(map[int]bool, len(tc.deliver))
			for _, idx := range tc.deliver {
				delivered[idx] = true
			}
			for i, r := range results {
				if delivered[i] {
					continue
				}
				if r.Err == nil {
					t.Errorf("job %d has no result yet Err == nil (poses as a completed zero-valued simulation)", i)
				}
			}
		})
	}
}
