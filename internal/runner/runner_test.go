package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/workload"
)

// testConfig is a small-but-real simulation scale: big enough that jobs
// overlap under a parallel pool, small enough for fast tests.
func testConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.WarmupInstrs = 100_000
	cfg.MeasureInstrs = 100_000
	return cfg
}

// runLocal runs jobs on a fresh LocalBackend of the given width and
// closes it afterwards.
func runLocal(ctx context.Context, jobs []Job, workers int, onProgress func(Progress)) ([]Result, error) {
	b := NewLocalBackend(workers)
	defer b.Close()
	return RunOn(ctx, b, jobs, onProgress)
}

func testJobs(t *testing.T, n int) []Job {
	t.Helper()
	suite := workload.StandardSuite()
	jobs := make([]Job, n)
	for i := range jobs {
		wl := suite[i%len(suite)]
		jobs[i] = Job{
			Label:    fmt.Sprintf("job%d/%s", i, wl.Name),
			Workload: wl,
			Config:   testConfig(),
			Engine:   prefetch.Spec{Name: "nextline"},
		}
	}
	return jobs
}

// TestRunSubmissionOrder runs one job list through local backends of
// width 1 and 8: results come back in submission order and identical. The list
// crosses three workloads with the baselines and PIF, so an engine
// instance shared between jobs would show as a serial/parallel
// difference.
func TestRunSubmissionOrder(t *testing.T) {
	var jobs []Job
	for _, name := range []string{"none", "nextline", "tifs", "pif"} {
		for _, j := range testJobs(t, 3) {
			j.Label += "/" + name
			j.Engine = prefetch.Spec{Name: name}
			jobs = append(jobs, j)
		}
	}
	serial, err := runLocal(context.Background(), jobs, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runLocal(context.Background(), jobs, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(jobs) || len(parallel) != len(jobs) {
		t.Fatalf("results = %d/%d, want %d", len(serial), len(parallel), len(jobs))
	}
	for i := range jobs {
		if serial[i].Index != i || parallel[i].Index != i {
			t.Errorf("result %d has index %d/%d", i, serial[i].Index, parallel[i].Index)
		}
		if serial[i].Label != jobs[i].Label || parallel[i].Label != jobs[i].Label {
			t.Errorf("result %d label = %q/%q, want %q", i, serial[i].Label, parallel[i].Label, jobs[i].Label)
		}
		if serial[i].Sim != parallel[i].Sim {
			t.Errorf("job %d: parallel result differs from serial\nserial:   %+v\nparallel: %+v",
				i, serial[i].Sim, parallel[i].Sim)
		}
	}
}

func TestRunFreshEnginePerJob(t *testing.T) {
	// The instrument hook sees each job's resolved engine instance;
	// distinct pointers prove each job gets its own engine (engines are
	// stateful; sharing would corrupt runs).
	var mu sync.Mutex
	seen := map[prefetch.Prefetcher]bool{}
	jobs := testJobs(t, 4)
	for i := range jobs {
		jobs[i].Instrument = func(p prefetch.Prefetcher) {
			mu.Lock()
			seen[p] = true
			mu.Unlock()
		}
	}
	if _, err := runLocal(context.Background(), jobs, 2, nil); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(jobs) {
		t.Errorf("saw %d distinct engine instances, want %d", len(seen), len(jobs))
	}
}

func TestRunRegistryNames(t *testing.T) {
	// The blank import of internal/core must make the PIF variants
	// resolvable alongside the in-package baselines.
	for _, name := range []string{"none", "nextline", "tifs", "pif", "pif-unlimited", "pif-nosep"} {
		if _, err := prefetch.LookupSchema(name); err != nil {
			t.Errorf("LookupSchema(%q): %v", name, err)
		}
	}
}

func TestRunUnknownEngine(t *testing.T) {
	jobs := testJobs(t, 2)
	jobs[1].Engine = prefetch.Spec{Name: "dropout"}
	_, err := runLocal(context.Background(), jobs, 2, nil)
	if err == nil {
		t.Fatal("unknown engine name accepted")
	}
}

func TestRunNoEngine(t *testing.T) {
	jobs := testJobs(t, 1)
	jobs[0].Engine = prefetch.Spec{}
	if _, err := runLocal(context.Background(), jobs, 1, nil); err == nil {
		t.Fatal("job without engine accepted")
	}
}

func TestRunJobError(t *testing.T) {
	jobs := testJobs(t, 3)
	jobs[1].Config.MeasureInstrs = 0 // invalid
	results, err := runLocal(context.Background(), jobs, 2, nil)
	if err == nil {
		t.Fatal("invalid job accepted")
	}
	if results[1].Err == nil {
		t.Error("failing job has nil Err")
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("healthy jobs report errors: %v, %v", results[0].Err, results[2].Err)
	}
}

func TestRunCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := runLocal(ctx, testJobs(t, 4), 2, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("result %d Err = %v, want context.Canceled (never-run jobs must not look successful)", i, r.Err)
		}
	}
}

func TestRunCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	results, err := runLocal(ctx, testJobs(t, 6), 1, func(p Progress) {
		if p.Done == 1 {
			cancel() // cancel after the first job completes
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if results[0].Err != nil {
		t.Errorf("first job err = %v", results[0].Err)
	}
	// At least the tail jobs must not have produced results.
	last := results[len(results)-1]
	if last.Err == nil && last.Sim.Instructions > 0 {
		t.Error("canceled run completed every job")
	}
}

func TestRunProgressSerialized(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	var doneMax int
	onProgress := func(p Progress) {
		mu.Lock()
		defer mu.Unlock()
		if seen[p.Index] {
			t.Errorf("job %d reported twice", p.Index)
		}
		seen[p.Index] = true
		if p.Done <= doneMax {
			t.Errorf("Done %d not increasing (prev %d)", p.Done, doneMax)
		}
		doneMax = p.Done
		if p.Total != 6 {
			t.Errorf("Total = %d, want 6", p.Total)
		}
	}
	if _, err := runLocal(context.Background(), testJobs(t, 6), 4, onProgress); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 6 || doneMax != 6 {
		t.Errorf("progress reported %d jobs, Done reached %d; want 6/6", len(seen), doneMax)
	}
}

func TestRunEmpty(t *testing.T) {
	results, err := runLocal(context.Background(), nil, 4, nil)
	if err != nil || len(results) != 0 {
		t.Fatalf("empty run = %v, %v", results, err)
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Error("positive override ignored")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Error("default workers < 1")
	}
}

func TestForEach(t *testing.T) {
	out := make([]int, 32)
	err := ForEach(context.Background(), 4, len(out), func(i int) error {
		out[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Errorf("out[%d] = %d", i, v)
		}
	}
}

func TestForEachError(t *testing.T) {
	boom := errors.New("boom")
	err := ForEach(context.Background(), 4, 8, func(i int) error {
		if i == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestForEachCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ForEach(ctx, 4, 8, func(i int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
