// Package runnertest is the shared backend-conformance suite: every
// runner.Backend implementation — LocalBackend, the remote
// coordinator/worker backend, whatever comes next — must pass
// Conformance, so drivers can switch backends without re-auditing the
// execution contract.
package runnertest

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/prefetch"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Jobs builds n small serializable jobs (registry workloads, registry
// prefetcher, no record source), the common currency of conformance checks:
// every backend, including remote ones that ship jobs over a wire, can
// run them.
func Jobs(tb testing.TB, n int) []runner.Job {
	tb.Helper()
	suite := workload.StandardSuite()
	cfg := sim.DefaultConfig()
	cfg.WarmupInstrs = 50_000
	cfg.MeasureInstrs = 50_000
	jobs := make([]runner.Job, n)
	for i := range jobs {
		wl := suite[i%len(suite)]
		jobs[i] = runner.Job{
			Label:    fmt.Sprintf("job%d/%s", i, wl.Name),
			Workload: wl,
			Config:   cfg,
			Engine:   prefetch.Spec{Name: "nextline"},
		}
	}
	return jobs
}

// Conformance runs the backend contract against a fresh backend from mk
// per check. mk is called with the subtest's testing.T; backends are
// Closed by the suite.
func Conformance(t *testing.T, mk func(t *testing.T) runner.Backend) {
	t.Run("EchoesIndicesOnce", func(t *testing.T) { testEcho(t, mk(t)) })
	t.Run("RunsUnits", func(t *testing.T) { testUnit(t, mk(t)) })
	t.Run("ReusableAcrossRuns", func(t *testing.T) { testReuse(t, mk(t)) })
	t.Run("SubmitAfterCloseSentinel", func(t *testing.T) { testClosedSentinel(t, mk(t)) })
}

// testEcho checks the core protocol: one result per Submit, each
// echoing its submission index, none failed, none zero-valued.
func testEcho(t *testing.T, b runner.Backend) {
	defer b.Close()
	jobs := Jobs(t, 4)
	results, err := runner.RunOn(context.Background(), b, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d echoes index %d", i, r.Index)
		}
		if r.Err != nil {
			t.Errorf("job %d (%s) failed: %v", i, r.Label, r.Err)
		}
		if r.Sim.Instructions == 0 {
			t.Errorf("job %d (%s) returned a zero-valued sim result", i, r.Label)
		}
		if r.Label != jobs[i].Label {
			t.Errorf("job %d label = %q, want %q", i, r.Label, jobs[i].Label)
		}
	}
}

// testUnit submits one multi-job unit under strided indices: every job
// reports exactly once, under its own index and label, and the backend
// reports a width.
func testUnit(t *testing.T, b runner.Backend) {
	defer b.Close()
	if b.Width() < 1 {
		t.Errorf("Width() = %d, want at least 1", b.Width())
	}
	jobs, idx := Jobs(t, 3), []int{10, 20, 30}
	for k, e := range []string{"none", "tifs", "pif"} { // one row
		jobs[k].Workload, jobs[k].Engine = jobs[0].Workload, prefetch.Spec{Name: e}
	}
	if err := b.Submit(context.Background(), idx, jobs); err != nil {
		t.Fatal(err)
	}
	open := slices.Clone(idx) // the backend may keep idx
	for range jobs {
		r, ok := <-b.Results()
		k := slices.Index(open, r.Index)
		if !ok || k < 0 {
			t.Fatalf("result %+v (stream open: %v) answers no outstanding index of %v", r, ok, open)
		}
		if r.Label != jobs[k].Label || r.Err != nil || r.Sim.Instructions == 0 {
			t.Errorf("index %d: label %q, err %v, %d instructions; want %q, no error, a real result",
				r.Index, r.Label, r.Err, r.Sim.Instructions, jobs[k].Label)
		}
		open[k] = -1 // answered
	}
}

// testReuse checks that one backend serves sequential RunOn batches:
// the results stream spans runs and only Close ends it.
func testReuse(t *testing.T, b runner.Backend) {
	defer b.Close()
	for batch := 0; batch < 2; batch++ {
		jobs := Jobs(t, 2)
		results, err := runner.RunOn(context.Background(), b, jobs, nil)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("batch %d job %d: %v", batch, i, r.Err)
			}
		}
	}
}

// testClosedSentinel checks that Submit on a closed backend reports
// runner.ErrBackendClosed — the signal a dispatcher uses to reroute
// jobs rather than fail them.
func testClosedSentinel(t *testing.T, b runner.Backend) {
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	for range b.Results() {
	}
	err := b.Submit(context.Background(), []int{0}, Jobs(t, 1))
	if !errors.Is(err, runner.ErrBackendClosed) {
		t.Fatalf("Submit after Close = %v, want runner.ErrBackendClosed", err)
	}
}
