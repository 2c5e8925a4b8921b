package experiments

import (
	"reflect"
	"testing"

	"repro/internal/prefetch"
	"repro/internal/runner"
	"repro/internal/workload"
)

// envTestOptions is a tiny scale: these tests check what the Env caches,
// not what the simulations report.
func envTestOptions() Options {
	opts := QuickOptions()
	opts.Workloads = []workload.Profile{workload.DSSQry2()}
	opts.WarmupInstrs = 20_000
	opts.MeasureInstrs = 10_000
	opts.Parallel = 1
	return opts
}

// Two profiles sharing a name but not a seed are two workloads: the Env
// must not hand the first one's program or stream to the second.
func TestEnvKeysByWholeProfile(t *testing.T) {
	e := NewEnv(envTestOptions())
	p := workload.DSSQry2()
	q := p
	q.Seed++
	pp, err := e.Program(p)
	if err != nil {
		t.Fatal(err)
	}
	qp, err := e.Program(q)
	if err != nil {
		t.Fatal(err)
	}
	if pp == qp || qp.Profile != q {
		t.Fatalf("Program(seed %d) returned the image built for seed %d", q.Seed, qp.Profile.Seed)
	}
	ps, err := e.stream(p)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := e.stream(q)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(ps, qs) {
		t.Fatalf("Stream(seed %d) returned the stream of seed %d", q.Seed, p.Seed)
	}
}

// RunJobs pins a live job's image only when the Env runs the jobs on its
// own pool. With Options.Backend set (remote, in production) the workers
// take images from their own cache, and the submitting side builds none.
func TestRunJobsPinsOnlyOnOwnPool(t *testing.T) {
	opts := envTestOptions()
	p := opts.Workloads[0]
	jobs := func() []runner.Job {
		return []runner.Job{{Label: "none", Workload: p, Config: opts.SimConfig(), Engine: prefetch.Spec{Name: "none"}}}
	}

	own := NewEnv(opts)
	if _, err := own.RunJobs(jobs()); err != nil {
		t.Fatal(err)
	}
	if n := len(own.programs); n != 1 {
		t.Fatalf("own pool: %d images pinned, want 1", n)
	}
	pinned, err := own.Program(p)
	if err != nil {
		t.Fatal(err)
	}
	if shared, err := workload.ProgramFor(p); err != nil || shared != pinned {
		t.Fatalf("ProgramFor = %p, %v; want the pinned image %p", shared, err, pinned)
	}

	b := runner.NewLocalBackend(1)
	defer b.Close()
	opts.Backend = b
	remote := NewEnv(opts)
	if _, err := remote.RunJobs(jobs()); err != nil {
		t.Fatal(err)
	}
	if n := len(remote.programs); n != 0 {
		t.Fatalf("set backend: %d images pinned, want 0", n)
	}
}
