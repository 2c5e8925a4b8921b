package experiments

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/prefetch"
	"repro/internal/report"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// sweepEnv is a dedicated reduced-scale environment for the sweep shape
// tests: the golden suite already exercises both sweep artifacts at full
// QuickOptions scale, so re-running the XL grids at that scale here would
// only burn -race budget. The shape assertions hold from ~1M warmup up.
var (
	sweepEnvOnce sync.Once
	sweepEnvVal  *Env
)

func sweepTestEnv(t *testing.T) *Env {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment tests are skipped in -short mode")
	}
	sweepEnvOnce.Do(func() {
		opts := QuickOptions()
		opts.WarmupInstrs = 1_500_000
		opts.MeasureInstrs = 500_000
		sweepEnvVal = NewEnv(opts)
	})
	return sweepEnvVal
}

func TestSweepHistoryShape(t *testing.T) {
	e := sweepTestEnv(t)
	r, err := SweepHistory(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Workloads) != len(workload.XLSuite()) {
		t.Fatalf("workloads = %v", r.Workloads)
	}
	last := len(r.BudgetsKB) - 1
	for i, w := range r.Workloads {
		// Coverage and speedup grow with storage and saturate: the largest
		// budget must beat the smallest decisively on both engines.
		if r.PIFCov[i][last] <= r.PIFCov[i][0] {
			t.Errorf("%s: PIF coverage flat across budgets (%.3f -> %.3f)", w, r.PIFCov[i][0], r.PIFCov[i][last])
		}
		if r.TIFSCov[i][last] <= r.TIFSCov[i][0] {
			t.Errorf("%s: TIFS coverage flat across budgets (%.3f -> %.3f)", w, r.TIFSCov[i][0], r.TIFSCov[i][last])
		}
		// At equal storage budget PIF dominates TIFS from the mid-sweep on
		// (the MANA-style comparison this artifact exists for).
		for bi := 1; bi < len(r.BudgetsKB); bi++ {
			if r.PIFCov[i][bi] < r.TIFSCov[i][bi] {
				t.Errorf("%s: PIF coverage %.3f < TIFS %.3f at %dKB", w, r.PIFCov[i][bi], r.TIFSCov[i][bi], r.BudgetsKB[bi])
			}
		}
		// Speedups never fall below ~parity and track coverage.
		for bi := range r.BudgetsKB {
			if r.PIFSpeedup[i][bi] < 0.99 || r.TIFSSpeedup[i][bi] < 0.99 {
				t.Errorf("%s: speedup below parity at %dKB (PIF %.3f, TIFS %.3f)",
					w, r.BudgetsKB[bi], r.PIFSpeedup[i][bi], r.TIFSSpeedup[i][bi])
			}
		}
		if r.PIFSpeedup[i][last] <= r.PIFSpeedup[i][0] {
			t.Errorf("%s: PIF speedup flat across budgets", w)
		}
	}
	text := r.Render()
	for _, want := range []string{"sweep-history", "PIF/8K", "TIFS/2048K"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestSweepL1Shape(t *testing.T) {
	e := sweepTestEnv(t)
	r, err := SweepL1(e)
	if err != nil {
		t.Fatal(err)
	}
	last := len(r.SizesKB) - 1
	for i, w := range r.Workloads {
		// A bigger L1-I helps the baseline monotonically (XL footprints
		// dwarf every swept size, so no ceiling effects).
		for si := 1; si < len(r.SizesKB); si++ {
			if r.BaseUIPC[i][si] < r.BaseUIPC[i][si-1]-0.005 {
				t.Errorf("%s: baseline UIPC fell with L1 growth (%dKB %.3f -> %dKB %.3f)",
					w, r.SizesKB[si-1], r.BaseUIPC[i][si-1], r.SizesKB[si], r.BaseUIPC[i][si])
			}
		}
		// PIF beats the same-size baseline everywhere.
		for si := range r.SizesKB {
			if r.PIFSpeedup[i][si] <= 1.0 {
				t.Errorf("%s: PIF speedup %.3f <= 1 at %dKB", w, r.PIFSpeedup[i][si], r.SizesKB[si])
			}
		}
		// The headline: PIF at the smallest L1-I beats the no-prefetch
		// baseline at the largest — prefetching compensates for capacity.
		if r.PIFUIPC[i][0] <= r.BaseUIPC[i][last] {
			t.Errorf("%s: PIF at %dKB (%.3f) does not beat baseline at %dKB (%.3f)",
				w, r.SizesKB[0], r.PIFUIPC[i][0], r.SizesKB[last], r.BaseUIPC[i][last])
		}
		// And PIF's advantage shrinks as the cache grows.
		if r.PIFSpeedup[i][last] >= r.PIFSpeedup[i][0] {
			t.Errorf("%s: PIF speedup did not shrink with L1 growth (%.3f -> %.3f)",
				w, r.PIFSpeedup[i][0], r.PIFSpeedup[i][last])
		}
	}
}

// TestSweepRespectsOverrideSuite locks Options.SweepWorkloads: a custom
// suite replaces the XL default in both sweep artifacts.
func TestSweepRespectsOverrideSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test skipped in -short mode")
	}
	opts := QuickOptions()
	opts.SweepWorkloads = []workload.Profile{workload.DSSQry2()}
	opts.WarmupInstrs = 200_000
	opts.MeasureInstrs = 100_000
	e := NewEnv(opts)
	r, err := SweepL1(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Workloads) != 1 || r.Workloads[0] != "DSS Qry2" {
		t.Fatalf("workloads = %v", r.Workloads)
	}
}

// TestEnvCollectsJobResults locks the per-job persistence feed: grids run
// through the environment surface one raw result per cell, keyed and
// deduplicated across artifact reruns.
func TestEnvCollectsJobResults(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test skipped in -short mode")
	}
	opts := QuickOptions()
	opts.Workloads = []workload.Profile{workload.DSSQry2()}
	opts.WarmupInstrs = 200_000
	opts.MeasureInstrs = 100_000
	e := NewEnv(opts)
	if _, err := Fig9Right(e); err != nil {
		t.Fatal(err)
	}
	jobs := e.JobResults()
	want := len(Fig9HistorySizes) // one workload x sizes
	if len(jobs) != want {
		t.Fatalf("collected %d job results, want %d", len(jobs), want)
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		if !strings.HasPrefix(j.Key, "fig9R.") {
			t.Errorf("unexpected key %q", j.Key)
		}
		if seen[j.Key] {
			t.Errorf("duplicate key %q", j.Key)
		}
		seen[j.Key] = true
		if len(j.Data) == 0 || !strings.Contains(string(j.Data), `"uipc"`) {
			t.Errorf("job %s carries no raw sim result", j.Key)
		}
		if j.Point["workload"] != "dss-qry2" {
			t.Errorf("job %s point = %v", j.Key, j.Point)
		}
	}
	// A rerun replaces rather than duplicates.
	if _, err := Fig9Right(e); err != nil {
		t.Fatal(err)
	}
	if again := e.JobResults(); len(again) != want {
		t.Fatalf("rerun grew job results to %d", len(again))
	}
}

// TestSweepRunSaveFailureLeavesNoRun asserts a sweep save that fails
// while writing its per-job results leaves no directory report.Load
// accepts, whether the directory was fresh or held a complete earlier
// run: run.json, the proof of a complete run, is written last.
func TestSweepRunSaveFailureLeavesNoRun(t *testing.T) {
	good, err := report.NewJobResult("sweep.cell-a", "cell a", nil, map[string]float64{"uipc": 1})
	if err != nil {
		t.Fatal(err)
	}
	ok := SweepRun{Summary: sweep.Summary{Name: "sweep"}, Jobs: []report.JobResult{good}}
	bad := SweepRun{Summary: sweep.Summary{Name: "sweep"}, Jobs: []report.JobResult{{Key: "not a key"}}}

	fresh := filepath.Join(t.TempDir(), "run")
	if err := bad.Save(fresh, "run"); err == nil {
		t.Fatal("Save with an invalid job key succeeded")
	}
	if _, _, err := report.Load(fresh); err == nil {
		t.Error("report.Load accepted a fresh directory whose save failed")
	}

	over := filepath.Join(t.TempDir(), "run")
	if err := ok.Save(over, "run"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := report.Load(over); err != nil {
		t.Fatalf("complete earlier run: %v", err)
	}
	if err := bad.Save(over, "run"); err == nil {
		t.Fatal("Save with an invalid job key over an earlier run succeeded")
	}
	if _, _, err := report.Load(over); err == nil {
		t.Error("report.Load accepted an earlier run's directory whose overwrite failed")
	}
}

func TestBuildSweep(t *testing.T) {
	opts := QuickOptions()
	spec, err := BuildSweep(NewEnv(opts), "s", []string{"workload=xl", "engine=pif,tifs", "budget=8,32"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 2*2*2 {
		t.Fatalf("size = %d", g.Size())
	}
	if _, err := g.Jobs(); err != nil {
		t.Fatal(err)
	}
	// The budget axis overlays budget_kb on each cell's engine spec.
	c, err := g.At("workload", "oltp-xl", "engine", "pif", "budget", "8kb")
	if err != nil {
		t.Fatal(err)
	}
	if c.Settings.Engine.Name != "pif" || c.Settings.Engine.Params["budget_kb"] != 8 {
		t.Fatalf("budget not overlaid on engine spec: %+v", c.Settings.Engine)
	}

	// Default workload axis (sweep suite) and default engine (pif).
	spec, err = BuildSweep(NewEnv(opts), "s", []string{"l1=32K,64K"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err = spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != len(workload.XLSuite())*2 {
		t.Fatalf("default workload axis size = %d", g.Size())
	}
	if g.Cells[0].Settings.Engine.Name != "pif" {
		t.Fatalf("default engine = %q", g.Cells[0].Settings.Engine.Name)
	}
	if got := g.Cells[0].Settings.Config.System.L1ISizeBytes; got != 32<<10 {
		t.Fatalf("l1 axis not applied: %d", got)
	}

	// Errors: unknown axis, bad engine, bad workload, dup axis, bad size,
	// impossible geometry, history+budget conflict (the pif schema's
	// Derive rejects the pair), a param the engine does not take.
	for _, specs := range [][]string{
		{"nope=1"},
		{"engine=warpdrive"},
		{"workload=SAP HANA"},
		{"engine=pif", "engine=tifs"},
		{"l1=banana"},
		{"l1=33K"}, // 33KB / 2-way / 64B: set count not a power of two
		{"engine=pif", "budget=8", "history=1K"},
		{"engine=pif-unlimited", "budget=8"}, // schema declares no budget_kb
		{"engine=pif:stride=2"},
		{},
	} {
		spec, err := BuildSweep(NewEnv(opts), "s", specs, nil)
		if err == nil {
			_, err = spec.Expand()
		}
		if err == nil {
			t.Errorf("BuildSweep(%v) accepted", specs)
		}
	}

	// Workload names and suite aliases mix and dedupe.
	spec, err = BuildSweep(NewEnv(opts), "s", []string{"workload=DSS Qry2,xl,DSS Qry2", "engine=none"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err = spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 3 {
		t.Fatalf("mixed workload axis size = %d", g.Size())
	}
}

// TestBuildSweepHistoryEntries covers the entries-based history axis.
func TestBuildSweepHistoryEntries(t *testing.T) {
	spec, err := BuildSweep(NewEnv(QuickOptions()), "s", []string{"workload=xl", "engine=pif,none", "history=1K,32K"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// pif cells carry the history param; none cells carry it too but
	// their schema declares it ignored, so mixed-engine grids stay
	// runnable.
	pifCell, err := g.At("workload", "web-xl", "engine", "pif", "history", "1024")
	if err != nil {
		t.Fatal(err)
	}
	if pifCell.Settings.Engine.Name != "pif" || pifCell.Settings.Engine.Params["history"] != 1024 {
		t.Fatalf("history not overlaid for pif: %+v", pifCell.Settings.Engine)
	}
	noneCell, err := g.At("workload", "web-xl", "engine", "none", "history", "1024")
	if err != nil {
		t.Fatal(err)
	}
	if noneCell.Settings.Engine.Name != "none" {
		t.Fatalf("none cell = %+v", noneCell.Settings.Engine)
	}
	if r, err := prefetch.Resolved(noneCell.Settings.Engine); err != nil || len(r.Params) != 0 {
		t.Fatalf("none cell does not resolve cleanly: %v %v", r, err)
	}
	if _, err := g.Jobs(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildSweepEngineFlag covers the repeated -engine flag: full engine
// specs (multi-param, so comma-bearing) build the same axis the -axis
// spelling does, and the two spellings are mutually exclusive.
func TestBuildSweepEngineFlag(t *testing.T) {
	env := NewEnv(QuickOptions())
	spec, err := BuildSweep(env, "s", []string{"workload=xl"},
		[]string{"pif:sabs=2,window=9", "tifs:budget_kb=64"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != len(workload.XLSuite())*2 {
		t.Fatalf("size = %d", g.Size())
	}
	c, err := g.At("workload", "oltp-xl", "engine", sweep.KeyOf("pif:sabs=2,window=9"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Settings.Engine.Name != "pif" || c.Settings.Engine.Params["sabs"] != 2 || c.Settings.Engine.Params["window"] != 9 {
		t.Fatalf("engine spec not applied: %+v", c.Settings.Engine)
	}
	c, err = g.At("workload", "oltp-xl", "engine", sweep.KeyOf("tifs:budget_kb=64"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Settings.Engine.Name != "tifs" || c.Settings.Engine.Params["budget_kb"] != 64 {
		t.Fatalf("engine spec not applied: %+v", c.Settings.Engine)
	}

	// A single-param spec also works through the -axis spelling and
	// produces the same cell key.
	spec, err = BuildSweep(env, "s", []string{"workload=xl", "engine=pif:history=64K"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err = spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	c, err = g.At("workload", "oltp-xl", "engine", sweep.KeyOf("pif:history=64K"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Settings.Engine.Params["history"] != 64<<10 {
		t.Fatalf("K suffix not applied: %+v", c.Settings.Engine)
	}

	// Both spellings at once is a usage error, as is a malformed spec.
	if _, err := BuildSweep(env, "s", []string{"engine=pif"}, []string{"tifs"}); err == nil {
		t.Error("-engine alongside -axis engine accepted")
	}
	if _, err := BuildSweep(env, "s", nil, []string{"pif:stride=2"}); err == nil {
		t.Error("bad -engine spec accepted")
	} else if !strings.Contains(err.Error(), `"stride"`) {
		t.Errorf("bad -engine spec error does not quote the param: %v", err)
	}
}

// TestBuildSweepAxisErrors is the usage-error contract of the sweep CLI:
// every malformed -axis spec — unknown axis name, duplicate axis, empty
// value lists, bad values, bad source specs — must fail with an error
// quoting the offending token, so a long command line pinpoints its
// mistake.
func TestBuildSweepAxisErrors(t *testing.T) {
	env := NewEnv(QuickOptions())
	for _, tc := range []struct {
		specs []string
		token string // the offending token the error must quote
	}{
		{[]string{"nope=1"}, `"nope=1"`},
		{[]string{"workload=xl", "frobnicate=3,4"}, `"frobnicate=3,4"`},
		{[]string{"engine="}, `"engine="`},
		{[]string{"engine=pif,,tifs"}, `"engine=pif,,tifs"`},
		{[]string{"=pif"}, `"=pif"`},
		{[]string{"engine=pif", "engine=tifs"}, `"engine=tifs"`},
		{[]string{"workload=std", "workload=xl"}, `"workload=xl"`},
		{[]string{"budget=8,zz"}, `"budget=8,zz"`},
		{[]string{"l1=banana"}, `"l1=banana"`},
		{[]string{"engine=warpdrive"}, `"engine=warpdrive"`},
		{[]string{"workload=SAP HANA"}, `"workload=SAP HANA"`},
		{[]string{"source=warp"}, `"source=warp"`},
		{[]string{"source=slice@banana"}, `"source=slice@banana"`},
		{[]string{"source=slice"}, `"source=slice"`},
		{[]string{"source=live@x"}, `"source=live@x"`},
		{[]string{"source=slice@0:0"}, `"source=slice@0:0"`},
		{[]string{"engine=pif:history="}, `"engine=pif:history="`},
		{[]string{"engine=pif:history=banana"}, `"engine=pif:history=banana"`},
	} {
		_, err := BuildSweep(env, "s", tc.specs, nil)
		if err == nil {
			t.Errorf("BuildSweep(%v) accepted", tc.specs)
			continue
		}
		if !strings.Contains(err.Error(), tc.token) {
			t.Errorf("BuildSweep(%v) error %q does not quote offending token %s", tc.specs, err, tc.token)
		}
	}
}

// TestBuildSweepSourceAxis covers the CLI source axis end to end at a
// tiny scale: live and env-backed slice cells expand, run, persist, and
// the slice cells replay deterministically.
func TestBuildSweepSourceAxis(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment tests are skipped in -short mode")
	}
	opts := QuickOptions()
	opts.Workloads = opts.Workloads[:1]
	opts.SweepWorkloads = opts.Workloads
	opts.WarmupInstrs = 60_000
	opts.MeasureInstrs = 30_000
	opts.StoreDir = t.TempDir()
	opts.TraceChunkRecords = 1 << 12

	run := func() *sweep.Grid {
		env := NewEnv(opts)
		spec, err := BuildSweep(env, "s", []string{
			"engine=nextline",
			"source=live,slice@0:45000,slice@45000:45000",
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		g, err := env.RunGrid(spec)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g := run()
	if g.Size() != 3 {
		t.Fatalf("size = %d", g.Size())
	}
	liveCell, err := g.At("workload", sweep.KeyOf(opts.Workloads[0].Name), "engine", "nextline", "source", "live")
	if err != nil {
		t.Fatal(err)
	}
	if liveCell.Settings.From != nil {
		t.Error("live cell carries a source")
	}
	if liveCell.Settings.Config.WarmupInstrs != opts.WarmupInstrs {
		t.Errorf("live cell warmup = %d", liveCell.Settings.Config.WarmupInstrs)
	}
	// Slice cells measure their whole window cold: warmup 0, the window
	// length as the interval, so both windows of the one spilled trace
	// are valid cells.
	sliceCell, err := g.At("workload", sweep.KeyOf(opts.Workloads[0].Name), "engine", "nextline", "source", "slice-45000-45000")
	if err != nil {
		t.Fatal(err)
	}
	if sliceCell.Settings.From == nil {
		t.Error("slice cell has no source")
	}
	if sliceCell.Settings.Config.WarmupInstrs != 0 || sliceCell.Settings.Config.MeasureInstrs != 45000 {
		t.Errorf("slice cell interval = %d/%d, want 0/45000",
			sliceCell.Settings.Config.WarmupInstrs, sliceCell.Settings.Config.MeasureInstrs)
	}
	for i, r := range g.Results {
		if r.Err != nil {
			t.Errorf("cell %d (%s): %v", i, g.Cells[i].Label, r.Err)
		}
	}
	// Reruns replay the same windows byte-identically.
	g2 := run()
	for i := range g.Results {
		if g.Results[i].Sim != g2.Results[i].Sim {
			t.Errorf("cell %d: slice replay not deterministic across runs", i)
		}
	}
}

// TestBuildSweepSharded is the CLI-level sharded-sweep parity contract:
// a BaseShards grid over env-backed "store" sources — spilled to disk or
// served from the in-memory stream cache — folds to per-cell results
// bit-identical to the unsharded grid, so `-shards K` runs diff exit-0
// against unsharded history. Also covers the "shards" CLI axis.
func TestBuildSweepSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment tests are skipped in -short mode")
	}
	opts := QuickOptions()
	opts.Workloads = opts.Workloads[:1]
	opts.SweepWorkloads = opts.Workloads
	opts.WarmupInstrs = 60_000
	opts.MeasureInstrs = 30_000

	for _, spill := range []bool{false, true} {
		if spill {
			opts.StoreDir = t.TempDir()
			opts.TraceChunkRecords = 1 << 12
		} else {
			opts.StoreDir = ""
		}
		run := func(shards int) *sweep.Grid {
			env := NewEnv(opts)
			spec, err := BuildSweep(env, "s", []string{"engine=nextline,none", "source=store"}, nil)
			if err != nil {
				t.Fatal(err)
			}
			spec.BaseShards = shards
			g, err := env.RunGrid(spec)
			if err != nil {
				t.Fatalf("spill=%v shards=%d: %v", spill, shards, err)
			}
			return g
		}
		plain, sharded := run(0), run(3)
		if plain.Size() != 2 || sharded.Size() != 2 {
			t.Fatalf("spill=%v: sizes %d/%d", spill, plain.Size(), sharded.Size())
		}
		for i := range plain.Results {
			if plain.Cells[i].Key != sharded.Cells[i].Key {
				t.Errorf("spill=%v cell %d: key changed to %q", spill, i, sharded.Cells[i].Key)
			}
			if sharded.Results[i].Err != nil {
				t.Fatalf("spill=%v cell %s: %v", spill, sharded.Cells[i].Key, sharded.Results[i].Err)
			}
			if plain.Results[i].Sim != sharded.Results[i].Sim {
				t.Errorf("spill=%v cell %s: sharded result diverges", spill, plain.Cells[i].Key)
			}
		}
	}

	// The "shards" CLI axis sweeps the count itself; exact mode keeps
	// every cell's result identical.
	env := NewEnv(opts)
	spec, err := BuildSweep(env, "s", []string{"engine=nextline", "source=store", "shards=1,2"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := env.RunGrid(spec)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 2 {
		t.Fatalf("shards axis size = %d", g.Size())
	}
	if g.Results[0].Sim != g.Results[1].Sim {
		t.Error("shards axis cells diverge in exact mode")
	}
	if _, err := BuildSweep(env, "s", []string{"shards=0"}, nil); err == nil {
		t.Error("shards=0 accepted")
	}
	if _, err := BuildSweep(env, "s", []string{"shards=two"}, nil); err == nil {
		t.Error("shards=two accepted")
	}
}
