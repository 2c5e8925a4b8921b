package sweep

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// recordSweepStore records warmup+measure records of wl into a store.
func recordSweepStore(t *testing.T, dir string, wl workload.Profile, cfg sim.Config) {
	t.Helper()
	prog, err := workload.BuildProgram(wl)
	if err != nil {
		t.Fatal(err)
	}
	it := workload.NewIterator(prog, cfg.WarmupInstrs, cfg.MeasureInstrs)
	defer it.Close()
	if _, err := trace.BuildStore(dir, wl.Name, 1<<12, it, cfg.WarmupInstrs, cfg.MeasureInstrs); err != nil {
		t.Fatalf("BuildStore: %v", err)
	}
}

// shardSpec is a replay sweep over one recorded store, one cell per
// engine.
func shardSpec(wl workload.Profile, dir string, engines ...string) Spec {
	return Spec{
		Name: "sh",
		Base: tinySim(),
		Axes: []Axis{
			WorkloadAxis("workload", []workload.Profile{wl}),
			EngineAxis("engine", engines...),
			SourceAxis("source", []SourceChoice{{
				Key: "store",
				New: func(s *Settings) sim.Source { return sim.StoreSource(dir) },
			}}),
		},
	}
}

// shardCase is one recorded store a sharded-sweep test splits: the
// profile and configuration it was recorded under, the engines its
// cells run, and the shard counts to plan over it.
type shardCase struct {
	name    string
	wl      workload.Profile
	cfg     sim.Config
	engines []string
	shards  []int
}

// shardCases pairs the tiny fast store with two standard-scale ones: an
// OLTP XL store under PIF split exactly 4 and 7 ways, and an OLTP DB2
// store under next-line for the approximate-mode bounds.
func shardCases(exact bool) []shardCase {
	std := sim.DefaultConfig()
	std.WarmupInstrs = 100_000
	std.MeasureInstrs = 100_000
	if exact {
		return []shardCase{
			{"tiny", tinyProfile("Tiny Sh", 3), tinySim(), []string{"pif", "nextline"}, []int{3}},
			{"oltp-xl", workload.OLTPXL(), std, []string{"pif"}, []int{4, 7}},
		}
	}
	return []shardCase{
		{"tiny", tinyProfile("Tiny ShA", 4), tinySim(), []string{"pif", "nextline"}, []int{4}},
		{"oltp-db2", workload.OLTPDB2(), std, []string{"nextline"}, []int{4}},
	}
}

// runShardCase records tc's store, runs the two-cell replay sweep over
// it unsharded, and hands each sharded grid (exact or approximate
// planning) to check alongside the unsharded one.
func runShardCase(t *testing.T, tc shardCase, approx bool, check func(t *testing.T, shards int, plain, sharded *Grid)) {
	dir := filepath.Join(t.TempDir(), "store")
	recordSweepStore(t, dir, tc.wl, tc.cfg)
	spec := shardSpec(tc.wl, dir, tc.engines...)
	spec.Base = tc.cfg
	plain, err := Run(PoolEngine{Workers: 4}, spec)
	if err != nil {
		t.Fatalf("unsharded run: %v", err)
	}
	for _, k := range tc.shards {
		spec.BaseShards = k
		spec.BaseShardApprox = approx
		sharded, err := Run(PoolEngine{Workers: 4}, spec)
		if err != nil {
			t.Fatalf("%d-shard run: %v", k, err)
		}
		if len(plain.Results) != len(sharded.Results) {
			t.Fatalf("%d shards: result counts differ: %d vs %d", k, len(plain.Results), len(sharded.Results))
		}
		check(t, k, plain, sharded)
	}
}

// TestShardedSweepExactParity is the sweep-level parity bar: a grid run
// with BaseShards > 1 must produce per-cell sim.Results bit-identical
// to the unsharded grid — keys, labels, and every metric including
// timing — which is what keeps `experiments diff` at exit 0 across
// sharded and unsharded runs. Exact shards measure clock deltas on the
// sequential run's own clock (see sim.Config.MeasureOffsetInstrs), so
// the whole-feed FE stats and timing telescope too. CI runs this under
// -race, making it the data-race probe for the parallel shard path.
func TestShardedSweepExactParity(t *testing.T) {
	for _, tc := range shardCases(true) {
		t.Run(tc.name, func(t *testing.T) {
			runShardCase(t, tc, false, func(t *testing.T, k int, plain, sharded *Grid) {
				for i := range plain.Results {
					a, b := plain.Results[i], sharded.Results[i]
					if plain.Cells[i].Key != sharded.Cells[i].Key {
						t.Errorf("%d shards: cell %d key %q vs %q", k, i, plain.Cells[i].Key, sharded.Cells[i].Key)
					}
					if b.Index != i || b.Label != plain.Cells[i].Label {
						t.Errorf("%d shards: cell %d folded identity: index %d label %q", k, i, b.Index, b.Label)
					}
					if !reflect.DeepEqual(a.Sim, b.Sim) {
						t.Errorf("%d shards: cell %s: sharded result diverges\nunsharded: %+v\nsharded:   %+v",
							k, plain.Cells[i].Key, a.Sim, b.Sim)
					}
				}

				// The persisted per-job forms must match too (Data is
				// what experiments diff compares).
				ja, err := plain.ReportJobs()
				if err != nil {
					t.Fatal(err)
				}
				jb, err := sharded.ReportJobs()
				if err != nil {
					t.Fatal(err)
				}
				for i := range ja {
					if ja[i].Key != jb[i].Key || string(ja[i].Data) != string(jb[i].Data) {
						t.Errorf("%d shards: job %s: persisted data diverges", k, ja[i].Key)
					}
				}
			})
		})
	}
}

// withinPct reports whether got is within pct percent of want.
func withinPct(got, want uint64, pct float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(float64(got)-float64(want))/float64(want)*100 <= pct
}

// TestShardedSweepApproximate exercises the throughput mode
// (fixed-warmup, linear-work shards): the measured span still tiles
// exactly, and counters land near the unsharded cell — within the
// window-position sensitivity the sweep-window artifact established —
// but are not bit-exact.
func TestShardedSweepApproximate(t *testing.T) {
	// Approximate warmup perturbs cache and predictor state at each
	// window boundary, hence the loose bound.
	const tolPct = 15
	for _, tc := range shardCases(false) {
		t.Run(tc.name, func(t *testing.T) {
			runShardCase(t, tc, true, func(t *testing.T, k int, plain, sharded *Grid) {
				for i, r := range sharded.Results {
					key, seq := sharded.Cells[i].Key, plain.Results[i].Sim
					if r.Err != nil {
						t.Fatalf("cell %s: %v", key, r.Err)
					}
					if r.Sim.Instructions != tc.cfg.MeasureInstrs {
						t.Errorf("cell %s: instructions = %d, want %d", key, r.Sim.Instructions, tc.cfg.MeasureInstrs)
					}
					if !withinPct(r.Sim.CorrectAccesses, seq.CorrectAccesses, tolPct) {
						t.Errorf("cell %s: CorrectAccesses = %d, want %d ±%d%%", key, r.Sim.CorrectAccesses, seq.CorrectAccesses, tolPct)
					}
					if !withinPct(r.Sim.Cycles, seq.Cycles, tolPct) {
						t.Errorf("cell %s: Cycles = %d, want %d ±%d%%", key, r.Sim.Cycles, seq.Cycles, tolPct)
					}
				}
			})
		})
	}
}

// TestShardsAxis sweeps the shard count itself: every cell of a
// shards-axis grid must agree exactly (exact mode), and the axis
// extends cell keys.
func TestShardsAxis(t *testing.T) {
	wl := tinyProfile("Tiny ShX", 5)
	cfg := tinySim()
	dir := filepath.Join(t.TempDir(), "store")
	recordSweepStore(t, dir, wl, cfg)

	spec := Spec{
		Name: "shx",
		Base: cfg,
		Axes: []Axis{
			WorkloadAxis("workload", []workload.Profile{wl}),
			EngineAxis("engine", "pif"),
			SourceAxis("source", []SourceChoice{{
				Key: "store",
				New: func(s *Settings) sim.Source { return sim.StoreSource(dir) },
			}}),
			ShardsAxis("shards", []int{1, 2, 4}),
		},
	}
	g, err := Run(PoolEngine{Workers: 4}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 3 {
		t.Fatalf("size = %d, want 3", g.Size())
	}
	if !strings.HasSuffix(g.Cells[1].Key, "_shards-2") {
		t.Errorf("cell 1 key = %q, want _shards-2 suffix", g.Cells[1].Key)
	}
	base := g.Results[0].Sim
	for i := 1; i < g.Size(); i++ {
		if !reflect.DeepEqual(g.Results[i].Sim, base) {
			t.Errorf("cell %s diverges from unsharded:\n%+v\nvs\n%+v", g.Cells[i].Key, g.Results[i].Sim, base)
		}
	}
}

// TestShardedSweepErrors pins the failure modes: sharded cells refuse
// non-sliceable sources, Grid.Jobs refuses sharded cells, and a shard
// count exceeding the measured interval fails at planning.
func TestShardedSweepErrors(t *testing.T) {
	wl := tinyProfile("Tiny ShE", 6)
	spec := Spec{
		Name:       "she",
		Base:       tinySim(),
		BaseShards: 2,
		Axes: []Axis{
			WorkloadAxis("workload", []workload.Profile{wl}),
			EngineAxis("engine", "pif"),
		},
	}
	// Live cells (no source) cannot shard.
	if _, err := Run(PoolEngine{Workers: 2}, spec); err == nil || !strings.Contains(err.Error(), "not sliceable") {
		t.Errorf("live sharded run error = %v, want not-sliceable", err)
	}
	g, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Jobs(); err == nil || !strings.Contains(err.Error(), "sweep.Run") {
		t.Errorf("Jobs on sharded grid = %v, want run-through-Run error", err)
	}

	dir := filepath.Join(t.TempDir(), "store")
	recordSweepStore(t, dir, wl, tinySim())
	spec.Axes = append(spec.Axes, SourceAxis("source", []SourceChoice{{
		Key: "store",
		New: func(s *Settings) sim.Source { return sim.StoreSource(dir) },
	}}))
	spec.BaseShards = int(tinySim().MeasureInstrs) + 1
	if _, err := Run(PoolEngine{Workers: 2}, spec); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Errorf("oversharded run error = %v, want shard-count error", err)
	}
}
