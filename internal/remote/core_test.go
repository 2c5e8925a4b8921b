package remote

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/prefetch"
)

// fakeClock is a manually advanced clock for Core tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func testCore(t *testing.T, opts CoreOptions) (*Core, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	opts.Now = clk.Now
	if opts.LeaseTTL == 0 {
		opts.LeaseTTL = 10 * time.Second
	}
	return NewCore(opts), clk
}

func testSpec(label string) JobSpec {
	return JobSpec{V: WireVersion, Label: label, Workload: "OLTP DB2", Engine: prefetch.Spec{Name: "none"}}
}

func testWireResult(label string) WireResult {
	return WireResult{V: WireVersion, Label: label, ElapsedNanos: 1}
}

// openRunWithJobs opens a run and submits n jobs indexed 0..n-1.
func openRunWithJobs(t *testing.T, c *Core, n int) string {
	t.Helper()
	runID, err := c.OpenRun()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := c.SubmitUnit(runID, []int{i}, []JobSpec{testSpec("job")}); err != nil {
			t.Fatal(err)
		}
	}
	return runID
}

func registerWorker(t *testing.T, c *Core, name string) string {
	t.Helper()
	id, err := c.RegisterWorker(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestCoreLeaseCompleteFlow(t *testing.T) {
	c, _ := testCore(t, CoreOptions{})
	runID := openRunWithJobs(t, c, 2)
	w := registerWorker(t, c, "w1")

	leases, err := c.LeaseTasks(w, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(leases) != 2 {
		t.Fatalf("leased %d tasks, want 2", len(leases))
	}
	// Second lease call: nothing pending.
	if more, _ := c.LeaseTasks(w, 10); len(more) != 0 {
		t.Fatalf("re-leased %d tasks while all are in flight", len(more))
	}
	for _, l := range leases {
		acc, err := c.Complete(w, l.TaskID, []WireResult{testWireResult("done")})
		if err != nil {
			t.Fatal(err)
		}
		if !acc {
			t.Fatalf("task %d completion rejected", l.TaskID)
		}
	}
	if err := c.CloseRun(runID); err != nil {
		t.Fatal(err)
	}
	results, done, err := c.Results(runID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || !done {
		t.Fatalf("results = %d, done = %v; want 2, true", len(results), done)
	}
}

func TestCoreHeartbeatExpiryRequeues(t *testing.T) {
	c, clk := testCore(t, CoreOptions{LeaseTTL: 10 * time.Second})
	openRunWithJobs(t, c, 1)
	w1 := registerWorker(t, c, "w1")
	w2 := registerWorker(t, c, "w2")

	leases, _ := c.LeaseTasks(w1, 1)
	if len(leases) != 1 {
		t.Fatal("w1 got no lease")
	}
	// Within the TTL the task is not re-leasable.
	clk.Advance(9 * time.Second)
	if more, _ := c.LeaseTasks(w2, 1); len(more) != 0 {
		t.Fatal("task re-leased before its deadline")
	}
	// A heartbeat extends the deadline.
	if lost, err := c.Heartbeat(w1, []int{leases[0].TaskID}); err != nil || len(lost) != 0 {
		t.Fatalf("heartbeat lost=%v err=%v", lost, err)
	}
	clk.Advance(9 * time.Second)
	if more, _ := c.LeaseTasks(w2, 1); len(more) != 0 {
		t.Fatal("heartbeat did not extend the lease")
	}
	// Missing the deadline re-queues the task to w2.
	clk.Advance(2 * time.Second)
	more, _ := c.LeaseTasks(w2, 1)
	if len(more) != 1 || more[0].TaskID != leases[0].TaskID {
		t.Fatalf("expired task not re-leased: %v", more)
	}
	// w1's next heartbeat disowns the task.
	lost, err := c.Heartbeat(w1, []int{leases[0].TaskID})
	if err != nil || len(lost) != 1 {
		t.Fatalf("w1 heartbeat after expiry: lost=%v err=%v", lost, err)
	}
}

func TestCoreBoundedRetriesThenHardError(t *testing.T) {
	const maxAttempts = 3
	c, clk := testCore(t, CoreOptions{LeaseTTL: 10 * time.Second, MaxAttempts: maxAttempts})
	runID := openRunWithJobs(t, c, 1)
	w := registerWorker(t, c, "flaky")

	for i := 0; i < maxAttempts; i++ {
		leases, err := c.LeaseTasks(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(leases) != 1 {
			t.Fatalf("attempt %d: leased %d tasks", i, len(leases))
		}
		clk.Advance(11 * time.Second) // miss every heartbeat
	}
	// The lease budget is spent: the task must complete with a hard
	// error, not be re-leased and not hang pending.
	if leases, _ := c.LeaseTasks(w, 1); len(leases) != 0 {
		t.Fatalf("task re-leased after %d lost attempts", maxAttempts)
	}
	c.CloseRun(runID)
	results, done, err := c.Results(runID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !done || len(results) != 1 {
		t.Fatalf("results = %d, done = %v", len(results), done)
	}
	if results[0].Err == "" || !strings.Contains(results[0].Err, "lost its worker") {
		t.Fatalf("hard-error result = %+v, want a lost-worker error", results[0])
	}
}

func TestCoreDuplicateCompleteDeduplicated(t *testing.T) {
	c, _ := testCore(t, CoreOptions{})
	var streamed int
	c.onResult = func(string, WireResult) { streamed++ }
	runID := openRunWithJobs(t, c, 1)
	w := registerWorker(t, c, "w1")
	leases, _ := c.LeaseTasks(w, 1)

	acc, err := c.Complete(w, leases[0].TaskID, []WireResult{testWireResult("first")})
	if err != nil || !acc {
		t.Fatalf("first completion: acc=%v err=%v", acc, err)
	}
	// A retried POST of the same completion must change nothing.
	acc, err = c.Complete(w, leases[0].TaskID, []WireResult{testWireResult("retry")})
	if err != nil {
		t.Fatal(err)
	}
	if acc {
		t.Fatal("duplicate completion accepted")
	}
	results, _, _ := c.Results(runID, 0)
	if len(results) != 1 || results[0].Label != "first" {
		t.Fatalf("results = %v, want exactly the first completion", results)
	}
	if streamed != 1 {
		t.Fatalf("onResult fired %d times, want 1", streamed)
	}
}

// TestCoreLateCompletionAfterRelease locks first-complete-wins: a worker
// whose lease expired finishes anyway and posts first — the work is
// real, so it is accepted, and the re-leased worker's copy is dropped.
func TestCoreLateCompletionAfterRelease(t *testing.T) {
	c, clk := testCore(t, CoreOptions{LeaseTTL: 10 * time.Second})
	runID := openRunWithJobs(t, c, 1)
	w1 := registerWorker(t, c, "slow")
	w2 := registerWorker(t, c, "fast")

	leases, _ := c.LeaseTasks(w1, 1)
	clk.Advance(11 * time.Second)
	releases, _ := c.LeaseTasks(w2, 1)
	if len(releases) != 1 {
		t.Fatal("expired task not re-leased")
	}
	// The original worker's late post wins.
	if acc, err := c.Complete(w1, leases[0].TaskID, []WireResult{testWireResult("late-but-first")}); err != nil || !acc {
		t.Fatalf("late completion: acc=%v err=%v", acc, err)
	}
	if acc, _ := c.Complete(w2, releases[0].TaskID, []WireResult{testWireResult("duplicate")}); acc {
		t.Fatal("second completion accepted")
	}
	results, _, _ := c.Results(runID, 0)
	if len(results) != 1 || results[0].Label != "late-but-first" {
		t.Fatalf("results = %v", results)
	}
}

func TestCoreRefusalsAfterClose(t *testing.T) {
	c, _ := testCore(t, CoreOptions{})
	runID := openRunWithJobs(t, c, 0)
	c.Close()
	if _, err := c.OpenRun(); !errors.Is(err, ErrClosed) {
		t.Errorf("OpenRun after Close = %v", err)
	}
	if err := c.SubmitUnit(runID, []int{0}, []JobSpec{testSpec("x")}); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitJob after Close = %v", err)
	}
	if _, err := c.RegisterWorker("w", 1); !errors.Is(err, ErrClosed) {
		t.Errorf("RegisterWorker after Close = %v", err)
	}
}

func TestCoreClosedRunRefusesJobs(t *testing.T) {
	c, _ := testCore(t, CoreOptions{})
	runID := openRunWithJobs(t, c, 1)
	if err := c.CloseRun(runID); err != nil {
		t.Fatal(err)
	}
	if err := c.SubmitUnit(runID, []int{1}, []JobSpec{testSpec("late")}); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitJob on closed run = %v, want ErrClosed", err)
	}
	// CloseRun is idempotent.
	if err := c.CloseRun(runID); err != nil {
		t.Fatal(err)
	}
}

func TestCoreUnknownIDs(t *testing.T) {
	c, _ := testCore(t, CoreOptions{})
	if err := c.SubmitUnit("run-404", []int{0}, []JobSpec{testSpec("x")}); !errors.Is(err, ErrNoRun) {
		t.Errorf("SubmitJob on unknown run = %v", err)
	}
	if _, _, err := c.Results("run-404", 0); !errors.Is(err, ErrNoRun) {
		t.Errorf("Results on unknown run = %v", err)
	}
	if _, err := c.LeaseTasks("w-404", 1); !errors.Is(err, ErrNoWorker) {
		t.Errorf("LeaseTasks for unknown worker = %v", err)
	}
	if _, err := c.Heartbeat("w-404", nil); !errors.Is(err, ErrNoWorker) {
		t.Errorf("Heartbeat for unknown worker = %v", err)
	}
	if _, err := c.Complete("w-404", 1, []WireResult{testWireResult("x")}); !errors.Is(err, ErrNoWorker) {
		t.Errorf("Complete for unknown worker = %v", err)
	}
}

// TestCoreRunEvictedAfterDrain locks the memory bound: a run that is
// done and fully fetched is deleted, so a long-lived coordinator does
// not accumulate completed runs (and their tasks) without bound.
func TestCoreRunEvictedAfterDrain(t *testing.T) {
	c, _ := testCore(t, CoreOptions{})
	runID := openRunWithJobs(t, c, 2)
	w := registerWorker(t, c, "w")
	leases, _ := c.LeaseTasks(w, 2)
	for _, l := range leases {
		if _, err := c.Complete(w, l.TaskID, []WireResult{testWireResult("r")}); err != nil {
			t.Fatal(err)
		}
	}
	// Not yet closed: results are fetchable but the run must survive.
	if _, done, err := c.Results(runID, 0); err != nil || done {
		t.Fatalf("pre-close fetch: done=%v err=%v", done, err)
	}
	if err := c.CloseRun(runID); err != nil {
		t.Fatal(err)
	}
	results, done, err := c.Results(runID, 2)
	if err != nil || !done || len(results) != 0 {
		t.Fatalf("drain: results=%d done=%v err=%v", len(results), done, err)
	}
	// The drained run is gone; a very late duplicate post errors plainly
	// instead of leaking state.
	if _, _, err := c.Results(runID, 0); !errors.Is(err, ErrNoRun) {
		t.Errorf("Results after drain = %v, want ErrNoRun", err)
	}
	if _, err := c.Complete(w, leases[0].TaskID, []WireResult{testWireResult("late")}); err == nil {
		t.Error("Complete against an evicted run's task succeeded")
	}
}

// TestCoreRunIDsUniqueAcrossIncarnations guards the crash-salvage
// directory layout: two coordinator incarnations — even with identical
// clocks, as after a fast restart — never mint the same run ID, so a
// restarted pifcoord reusing a -results directory cannot overwrite a
// previous incarnation's run directories.
func TestCoreRunIDsUniqueAcrossIncarnations(t *testing.T) {
	c1, _ := testCore(t, CoreOptions{})
	c2, _ := testCore(t, CoreOptions{})
	id1, err := c1.OpenRun()
	if err != nil {
		t.Fatal(err)
	}
	id2, err := c2.OpenRun()
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Fatalf("two incarnations minted the same run ID %q", id1)
	}
}

func TestCoreResultsCursor(t *testing.T) {
	c, _ := testCore(t, CoreOptions{})
	runID := openRunWithJobs(t, c, 3)
	w := registerWorker(t, c, "w")
	leases, _ := c.LeaseTasks(w, 3)
	for i, l := range leases {
		c.Complete(w, l.TaskID, []WireResult{testWireResult("r")})
		results, _, err := c.Results(runID, i)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 1 {
			t.Fatalf("cursor %d: %d new results, want 1", i, len(results))
		}
	}
	if _, _, err := c.Results(runID, 99); err == nil {
		t.Error("out-of-range cursor accepted")
	}
}

// TestCoreSequentialBatches checks the multi-batch shape the client
// backend relies on: task identity is coordinator-wide, so a second
// batch's index 0 never collides with the first's.
func TestCoreSequentialBatches(t *testing.T) {
	c, _ := testCore(t, CoreOptions{})
	runID := openRunWithJobs(t, c, 2)
	w := registerWorker(t, c, "w")
	leases, _ := c.LeaseTasks(w, 2)
	for _, l := range leases {
		c.Complete(w, l.TaskID, []WireResult{testWireResult("batch1")})
	}
	// Second batch on the same run, same indices.
	for i := 0; i < 2; i++ {
		if err := c.SubmitUnit(runID, []int{i}, []JobSpec{testSpec("batch2")}); err != nil {
			t.Fatal(err)
		}
	}
	leases2, _ := c.LeaseTasks(w, 2)
	if len(leases2) != 2 {
		t.Fatalf("batch 2 leased %d", len(leases2))
	}
	for _, l := range leases2 {
		if l.TaskID == leases[0].TaskID || l.TaskID == leases[1].TaskID {
			t.Fatalf("task ID %d reused across batches", l.TaskID)
		}
		c.Complete(w, l.TaskID, []WireResult{testWireResult("batch2")})
	}
	results, _, _ := c.Results(runID, 0)
	if len(results) != 4 {
		t.Fatalf("results = %d, want 4", len(results))
	}
}

// submitUnit opens a run and submits one unit of n jobs under indices
// 10, 11, ...; job k is labeled "m<k>".
func submitUnit(t *testing.T, c *Core, n int) (runID string, indices []int) {
	t.Helper()
	runID = openRunWithJobs(t, c, 0)
	specs := make([]JobSpec, n)
	for k := range specs {
		indices = append(indices, 10+k)
		specs[k] = testSpec(fmt.Sprintf("m%d", k))
	}
	if err := c.SubmitUnit(runID, indices, specs); err != nil {
		t.Fatal(err)
	}
	return runID, indices
}

// unitResults posts n empty results, one per member of a unit.
func unitResults(n int) []WireResult {
	out := make([]WireResult, n)
	for k := range out {
		out[k] = testWireResult("")
	}
	return out
}

// checkUnitResults requires one result per member, under its index and
// label, each failing with wantErr ("" for success).
func checkUnitResults(t *testing.T, c *Core, runID string, indices []int, wantErr string) {
	t.Helper()
	results, _, err := c.Results(runID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(indices) {
		t.Fatalf("%d results, want %d: %+v", len(results), len(indices), results)
	}
	for k, r := range results {
		if r.Index != indices[k] || r.Label != fmt.Sprintf("m%d", k) {
			t.Errorf("result %d: index %d label %q, want %d, m%d", k, r.Index, r.Label, indices[k], k)
		}
		if (wantErr == "") != (r.Err == "") || !strings.Contains(r.Err, wantErr) {
			t.Errorf("result %d: err %q, want one containing %q", k, r.Err, wantErr)
		}
	}
}

// TestCoreUnitLeasedWhole: a unit is one task. One lease hands out all
// its specs, and one completion posts every member's result under the
// member's own index.
func TestCoreUnitLeasedWhole(t *testing.T) {
	c, _ := testCore(t, CoreOptions{})
	runID, indices := submitUnit(t, c, 3)
	if err := c.SubmitUnit(runID, []int{0}, []JobSpec{testSpec("single")}); err != nil {
		t.Fatal(err)
	}
	w := registerWorker(t, c, "w")
	leases, err := c.LeaseTasks(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(leases) != 1 || len(leases[0].Specs) != 3 {
		t.Fatalf("leases = %+v, want one lease of the three-job unit", leases)
	}
	if acc, err := c.Complete(w, leases[0].TaskID, unitResults(3)); err != nil || !acc {
		t.Fatalf("unit completion: acc=%v err=%v", acc, err)
	}
	checkUnitResults(t, c, runID, indices, "")
	if more, _ := c.LeaseTasks(w, 5); len(more) != 1 || len(more[0].Specs) != 1 {
		t.Fatalf("second lease = %+v, want the single job alone", more)
	}
}

// TestCoreUnitExpiryRequeuesWhole: a unit whose worker is lost goes
// back to the queue as one task, waking long-polls, and a second worker
// leases all of it.
func TestCoreUnitExpiryRequeuesWhole(t *testing.T) {
	c, clk := testCore(t, CoreOptions{LeaseTTL: 10 * time.Second})
	runID, indices := submitUnit(t, c, 3)
	w1, w2 := registerWorker(t, c, "w1"), registerWorker(t, c, "w2")
	first, _ := c.LeaseTasks(w1, 1)
	clk.Advance(11 * time.Second)
	waiting := c.Changed()
	if _, err := c.Heartbeat(w2, nil); err != nil { // expires
		t.Fatal(err)
	}
	select {
	case <-waiting:
	default:
		t.Fatal("the re-queue did not wake long-polls")
	}
	again, _ := c.LeaseTasks(w2, 1)
	if len(again) != 1 || again[0].TaskID != first[0].TaskID || len(again[0].Specs) != 3 {
		t.Fatalf("re-lease = %+v, want the whole unit (task %d)", again, first[0].TaskID)
	}
	if acc, err := c.Complete(w2, again[0].TaskID, unitResults(3)); err != nil || !acc {
		t.Fatalf("completion after re-lease: acc=%v err=%v", acc, err)
	}
	checkUnitResults(t, c, runID, indices, "")
}

// TestCoreUnitBudgetSpentFailsEveryMember: once a unit has lost its
// worker MaxAttempts times, every member completes with the error.
func TestCoreUnitBudgetSpentFailsEveryMember(t *testing.T) {
	c, clk := testCore(t, CoreOptions{LeaseTTL: 10 * time.Second, MaxAttempts: 2})
	runID, indices := submitUnit(t, c, 3)
	w := registerWorker(t, c, "flaky")
	for i := 0; i < 2; i++ {
		if leases, _ := c.LeaseTasks(w, 1); len(leases) != 1 {
			t.Fatalf("attempt %d: leases = %+v", i, leases)
		}
		clk.Advance(11 * time.Second)
	}
	if leases, _ := c.LeaseTasks(w, 1); len(leases) != 0 {
		t.Fatalf("unit re-leased after its budget was spent: %+v", leases)
	}
	checkUnitResults(t, c, runID, indices, "lost its worker 2 times")
}

// TestCoreUnitDuplicateComplete: the first post of a unit's results
// wins; a second post for the same task changes nothing.
func TestCoreUnitDuplicateComplete(t *testing.T) {
	c, _ := testCore(t, CoreOptions{})
	var streamed int
	c.onResult = func(string, WireResult) { streamed++ }
	runID, indices := submitUnit(t, c, 2)
	w := registerWorker(t, c, "w")
	leases, _ := c.LeaseTasks(w, 1)
	if acc, err := c.Complete(w, leases[0].TaskID, unitResults(2)); err != nil || !acc {
		t.Fatalf("first completion: acc=%v err=%v", acc, err)
	}
	retry := unitResults(2)
	retry[0].Err = "a different outcome"
	if acc, err := c.Complete(w, leases[0].TaskID, retry); err != nil || acc {
		t.Fatalf("duplicate completion: acc=%v err=%v, want rejected", acc, err)
	}
	checkUnitResults(t, c, runID, indices, "")
	if streamed != 2 {
		t.Errorf("onResult fired %d times, want 2", streamed)
	}
}

// TestCoreUnitShortResultsRefused: a post whose result count differs
// from the unit's size is refused and leaves the unit leased, so a full
// post still lands.
func TestCoreUnitShortResultsRefused(t *testing.T) {
	c, _ := testCore(t, CoreOptions{})
	runID, indices := submitUnit(t, c, 3)
	w := registerWorker(t, c, "w")
	leases, _ := c.LeaseTasks(w, 1)
	for _, n := range []int{0, 2, 4} {
		if acc, err := c.Complete(w, leases[0].TaskID, unitResults(n)); err == nil || acc {
			t.Errorf("a post of %d results for a unit of 3: acc=%v err=%v, want refused", n, acc, err)
		}
	}
	if results, _, _ := c.Results(runID, 0); len(results) != 0 {
		t.Fatalf("refused posts left results: %+v", results)
	}
	if acc, err := c.Complete(w, leases[0].TaskID, unitResults(3)); err != nil || !acc {
		t.Fatalf("full post after refusals: acc=%v err=%v", acc, err)
	}
	checkUnitResults(t, c, runID, indices, "")
}

// TestCoreSubmitUnitRejectsMismatch: a unit needs one index per spec and
// at least one spec.
func TestCoreSubmitUnitRejectsMismatch(t *testing.T) {
	c, _ := testCore(t, CoreOptions{})
	runID := openRunWithJobs(t, c, 0)
	if err := c.SubmitUnit(runID, []int{0, 1}, []JobSpec{testSpec("x")}); err == nil {
		t.Error("a unit of one spec with two indices accepted")
	}
	if err := c.SubmitUnit(runID, nil, nil); err == nil {
		t.Error("an empty unit accepted")
	}
}

// TestCoreExpiryLooksOnlyAtLeased: with 10,000 tasks pending and two
// leased, expiry fails the leased task whose budget is spent and
// re-queues the other; no pending task changes.
func TestCoreExpiryLooksOnlyAtLeased(t *testing.T) {
	c, clk := testCore(t, CoreOptions{LeaseTTL: 10 * time.Second, MaxAttempts: 2})
	runID := openRunWithJobs(t, c, 10_002)
	w := registerWorker(t, c, "w")
	first, _ := c.LeaseTasks(w, 1)
	clk.Advance(11 * time.Second)
	// The expired task is back at the head of the queue: it and the next
	// one are leased, on their second and first attempts.
	two, _ := c.LeaseTasks(w, 2)
	if len(two) != 2 || two[0].TaskID != first[0].TaskID {
		t.Fatalf("leases = %+v, want task %d again and one more", two, first[0].TaskID)
	}
	if len(c.leased) != 2 {
		t.Fatalf("%d tasks indexed as leased, want 2", len(c.leased))
	}
	clk.Advance(11 * time.Second)
	results, _, err := c.Results(runID, 0) // expires
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !strings.Contains(results[0].Err, "lost its worker 2 times") {
		t.Fatalf("results = %+v, want one lost-worker error", results)
	}
	if len(c.leased) != 0 || c.pending.Len() != 10_001 {
		t.Fatalf("%d leased, %d pending after expiry; want 0 and 10001", len(c.leased), c.pending.Len())
	}
	for _, task := range c.runs[runID].tasks {
		if task.id != two[0].TaskID && task.id != two[1].TaskID && (task.state != taskPending || task.att != 0) {
			t.Fatalf("task %d changed: state %d, %d attempts", task.id, task.state, task.att)
		}
	}
	if next, _ := c.LeaseTasks(w, 1); len(next) != 1 || next[0].TaskID != two[1].TaskID {
		t.Fatalf("next lease = %+v, want the re-queued task %d", next, two[1].TaskID)
	}
}

// TestCoreSlotsCountLiveWorkers: Slots sums the slots of the workers
// that registered or heartbeated within the lease TTL, and is at least
// 1. A worker that falls silent stops counting, and a restarted one (a
// fresh registration) counts once.
func TestCoreSlotsCountLiveWorkers(t *testing.T) {
	c, clk := testCore(t, CoreOptions{LeaseTTL: 10 * time.Second})
	if n := c.Slots(); n != 1 {
		t.Errorf("slots with no worker = %d, want 1", n)
	}
	a, _ := c.RegisterWorker("a", 2)
	b, _ := c.RegisterWorker("b", 3)
	if n := c.Slots(); n != 5 {
		t.Errorf("slots = %d, want 5", n)
	}
	// Idle heartbeats (no task) keep both live.
	clk.Advance(6 * time.Second)
	for _, w := range []string{a, b} {
		if _, err := c.Heartbeat(w, nil); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(6 * time.Second)
	if n := c.Slots(); n != 5 {
		t.Errorf("slots after idle heartbeats = %d, want 5", n)
	}
	// b falls silent for a whole TTL: only a counts.
	clk.Advance(5 * time.Second)
	c.Heartbeat(a, nil)
	if n := c.Slots(); n != 2 {
		t.Errorf("slots with b silent = %d, want 2", n)
	}
	// b restarts: its new registration counts, its old one does not.
	c.RegisterWorker("b", 3)
	if n := c.Slots(); n != 5 {
		t.Errorf("slots after b re-registers = %d, want 5", n)
	}
	clk.Advance(10 * time.Second)
	if n := c.Slots(); n != 1 {
		t.Errorf("slots with every worker silent = %d, want 1", n)
	}
}
