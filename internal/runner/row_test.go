package runner

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// opaqueSource is a Source with no wire spec.
type opaqueSource struct{ dir string }

func (s opaqueSource) Open(ctx context.Context) (trace.BatchIterator, sim.SourceInfo, error) {
	return sim.StoreSource(s.dir).Open(ctx)
}

// TestUnits pins the grouping of a run's jobs into units: jobs sharing a
// front half form one row in order of first appearance, a row is split
// while workers would idle, and a source with no spec never joins a row.
func TestUnits(t *testing.T) {
	cfg := testConfig()
	db2, apache := workload.OLTPDB2(), workload.WebApache()
	job := func(wl workload.Profile, engine string) Job {
		return Job{Workload: wl, Config: cfg, Engine: prefetch.Spec{Name: engine}}
	}
	src := func(j Job, s sim.Source) Job { j.From = s; return j }
	small := job(db2, "pif")
	small.Config.System.L1ISizeBytes /= 2
	offset := job(db2, "pif")
	offset.Config.MeasureOffsetInstrs = 1

	// Two workloads × three engines, interleaved.
	grid := []Job{
		job(db2, "none"), job(apache, "none"), job(db2, "nextline"),
		job(apache, "nextline"), job(db2, "tifs"), job(apache, "tifs"),
	}
	cases := []struct {
		name    string
		jobs    []Job
		workers int
		want    [][]int
	}{
		{"one worker: one row per workload", grid, 1, [][]int{{0, 2, 4}, {1, 3, 5}}},
		{"two workers: rows fill them", grid, 2, [][]int{{0, 2, 4}, {1, 3, 5}}},
		{"three workers: the largest row splits", grid, 3, [][]int{{0}, {1, 3, 5}, {2, 4}}},
		{"four workers", grid, 4, [][]int{{0}, {1}, {2, 4}, {3, 5}}},
		{"more workers than jobs: single jobs", grid, 8, [][]int{{0}, {1}, {2}, {3}, {4}, {5}}},
		{"back-half settings share a row", []Job{job(db2, "pif"), small, job(db2, "none")}, 1, [][]int{{0, 1, 2}}},
		{"phases split rows", []Job{job(db2, "pif"), offset, job(db2, "none")}, 1, [][]int{{0, 2}, {1}}},
		{"equal store sources share a row", []Job{
			src(job(db2, "none"), sim.StoreSource("a")), src(job(db2, "tifs"), sim.StoreSource("a")),
			src(job(db2, "pif"), sim.StoreSource("b")), job(db2, "pif"),
		}, 1, [][]int{{0, 1}, {2}, {3}}},
		{"opaque sources never group", []Job{
			src(job(db2, "none"), opaqueSource{"a"}), src(job(db2, "tifs"), opaqueSource{"a"}),
		}, 1, [][]int{{0}, {1}}},
		{"no jobs", nil, 4, nil},
	}
	for _, tc := range cases {
		if got := units(tc.jobs, tc.workers); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: units = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRunOnRows: on a one-worker local backend a grid runs as rows, and
// every result equals its job's own sim.RunJob result. A job whose
// engine spec is bad fails alone, the members of a row report equal
// Elapsed shares, and the rest of its row completes.
func TestRunOnRows(t *testing.T) {
	var jobs []Job
	for _, wl := range []workload.Profile{workload.DSSQry2(), workload.WebApache()} {
		for _, e := range []string{"none", "nextline", "dropout", "tifs"} {
			jobs = append(jobs, Job{Label: wl.Name + "/" + e, Workload: wl, Config: testConfig(), Engine: prefetch.Spec{Name: e}})
		}
	}
	results, err := runLocal(context.Background(), jobs, 1, nil)
	if err == nil {
		t.Fatal("bad engine spec accepted")
	}
	for i, r := range results {
		if r.Index != i || r.Label != jobs[i].Label {
			t.Errorf("result %d: index %d, label %q", i, r.Index, r.Label)
		}
		if jobs[i].Engine.Name == "dropout" {
			if r.Err == nil {
				t.Errorf("%s: bad engine spec ran", r.Label)
			}
			continue
		}
		want, err := sim.RunJob(context.Background(), jobs[i])
		if err != nil {
			t.Fatal(err)
		}
		if r.Err != nil || r.Sim != want {
			t.Errorf("%s: %v\n row  %+v\n want %+v", r.Label, r.Err, r.Sim, want)
		}
		if r.Elapsed != results[i&^3].Elapsed {
			t.Errorf("%s: Elapsed %s, its row's first member %s", r.Label, r.Elapsed, results[i&^3].Elapsed)
		}
	}
}

// TestRunOnRowCanceled: a row canceled after it started gives every
// member the context's error.
func TestRunOnRowCanceled(t *testing.T) {
	cfg := testConfig()
	cfg.WarmupInstrs = 50_000_000
	ctx, cancel := context.WithCancel(context.Background())
	var jobs []Job
	for _, e := range []string{"none", "nextline", "tifs"} {
		jobs = append(jobs, Job{Label: e, Workload: workload.DSSQry2(), Config: cfg, Engine: prefetch.Spec{Name: e}})
	}
	// The row resolves its members' engines before it starts stepping.
	jobs[2].Instrument = func(prefetch.Prefetcher) { cancel() }
	results, err := runLocal(ctx, jobs, 1, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("member %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
}
