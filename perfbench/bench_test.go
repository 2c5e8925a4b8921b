package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

func TestRefKernelAllocatesNothing(t *testing.T) {
	k := newRefKernel()
	if n := testing.AllocsPerRun(3, k.run); n != 0 {
		t.Fatalf("reference kernel allocates %v times per pass, want 0", n)
	}
}

// fakeCycles returns a GC-cycle counter that reads the given values in
// turn.
func fakeCycles(vals ...uint64) func() uint64 {
	i := 0
	return func() uint64 {
		v := vals[min(i, len(vals)-1)]
		i++
		return v
	}
}

func TestSampleRetakesGCOverlap(t *testing.T) {
	runs := 0
	// The first pass sees a GC cycle complete (4 -> 5); the second does not.
	s := &refSampler{run: func() { runs++ }, cycles: fakeCycles(4, 5, 5, 5)}
	s.sample()
	if runs != 2 || s.retakes != 1 {
		t.Fatalf("runs = %d, retakes = %d; want 2 and 1", runs, s.retakes)
	}
}

func TestSampleAcceptsAfterBoundedRetakes(t *testing.T) {
	runs, c := 0, uint64(0)
	// Every pass overlaps a GC cycle.
	s := &refSampler{run: func() { runs++ }, cycles: func() uint64 { c++; return c }}
	s.sample()
	if runs != refRetakes+1 {
		t.Fatalf("runs = %d, want %d", runs, refRetakes+1)
	}
}

func TestRefFactorAdjustsRawTimes(t *testing.T) {
	for _, c := range []struct{ raw, before, after, r0, want float64 }{
		{0.200, 0.010, 0.014, 0.012, 0.200}, // reference as fast as R0 on average
		{0.300, 0.020, 0.020, 0.010, 0.150}, // host twice as slow as R0
		{0.100, 0.010, 0.030, 0.010, 0.050}, // the bracket's mean, not either end
		{0.100, 0.008, 0.008, 0.012, 0.150}, // host faster than R0
	} {
		if got := c.raw * refFactor(c.before, c.after, c.r0); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%v × refFactor(%v, %v, %v) = %v, want %v", c.raw, c.before, c.after, c.r0, got, c.want)
		}
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if _, err := percentile(seq(50), 90); err == nil {
		t.Error("p90 of 50 samples (5 beyond) accepted")
	}
	if _, err := percentile(seq(99), 95); err == nil {
		t.Error("p95 of 99 samples accepted")
	}
	v, err := percentile(seq(100), 90)
	if err != nil {
		t.Fatalf("p90 of 100 samples refused: %v", err)
	}
	if math.Abs(v-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, want 90.1", v)
	}
	if v, err := percentile(seq(21), 50); err != nil || v != 11 {
		t.Errorf("p50 of 1..21 = %v, %v; want 11", v, err)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64 // statistics.quantiles(xs, n=4)
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{8, 1, 4, 2}, [3]float64{1.25, 3, 7}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestOpListsFollowTheSeed(t *testing.T) {
	if !reflect.DeepEqual(xlOps(1), xlOps(1)) {
		t.Error("replay-xl-pif: seed 1 gives two op lists")
	}
	if reflect.DeepEqual(xlOps(1), xlOps(2)) {
		t.Error("replay-xl-pif: seeds 1 and 2 give the same windows")
	}
	if !reflect.DeepEqual(seedOrder(1, 6), seedOrder(1, 6)) {
		t.Error("seed 1 gives two workload orders")
	}
	if reflect.DeepEqual(seedOrder(1, 6), seedOrder(2, 6)) {
		t.Error("seeds 1 and 2 give the same workload order")
	}
	p := workload.OLTPXL()
	if perturb(p, 1) != perturb(p, 1) || perturb(p, 1).Seed == perturb(p, 2).Seed {
		t.Error("perturbed programs do not follow the seed")
	}
	for _, o := range xlOps(3) {
		if o.win.End() > xlRecords || o.win.Off%xlChunk != 0 {
			t.Errorf("window %s outside the store or off a chunk boundary", o.win)
		}
	}
}

// smallGridDigests runs every op of a scaled-down live grid once and
// returns the op digests.
func smallGridDigests(t *testing.T, seed int64) []string {
	t.Helper()
	w := newLiveGrid(seed)
	w.opts.WarmupInstrs, w.opts.MeasureInstrs = 20_000, 10_000
	st := &stepTimer{ref: &refSampler{run: func() {}, cycles: fakeCycles(0)}, r0: 1}
	st.begin()
	if err := w.setup(st, 0); err != nil {
		t.Fatal(err)
	}
	outs := make([]opResult, w.period())
	for i := range outs {
		outs[i] = w.op(i)
	}
	g := gate(outs, nil, w.period())
	if g.failed > 0 {
		t.Fatalf("ops failed the gate: %v", g.problems)
	}
	return g.digests
}

func TestSameSeedSameDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	a, b, c := smallGridDigests(t, 1), smallGridDigests(t, 1), smallGridDigests(t, 2)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("seed 1 twice: digests %v and %v", a, b)
	}
	if reflect.DeepEqual(a, c) {
		t.Errorf("seeds 1 and 2 give the same digests %v", a)
	}
}

func TestGateChecksLawsAndDigests(t *testing.T) {
	good := sim.Result{Instructions: 100, Cycles: 200, UIPC: 0.5, CorrectAccesses: 50, CorrectMisses: 10, CoveredMisses: 5}
	good.L1.PrefetchHits, good.L1.PrefetchFills = 3, 4
	op := func(r sim.Result) opResult {
		return opResult{results: []sim.Result{r}, engines: []string{"pif"}, window: 100}
	}
	ok := op(good)
	if g := gate([]opResult{ok}, []string{digest(ok.results)}, 1); g.failed != 0 || g.mismatch {
		t.Fatalf("good op failed: %v", g.problems)
	}
	bad := map[string]func(r *sim.Result){
		"window":     func(r *sim.Result) { r.Instructions = 99 },
		"misses":     func(r *sim.Result) { r.CoveredMisses = 41 },
		"prefetches": func(r *sim.Result) { r.L1.PrefetchHits = 5 },
		"uipc":       func(r *sim.Result) { r.UIPC = 0 },
	}
	for name, mutate := range bad {
		r := good
		mutate(&r)
		if g := gate([]opResult{op(r)}, nil, 1); g.failed != 1 {
			t.Errorf("%s: broken law not caught", name)
		}
	}
	if g := gate([]opResult{ok}, []string{"0000000000000000"}, 1); g.failed != 1 || !g.mismatch {
		t.Error("corrupted committed digest not caught")
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		EndToEnd []metricJSON `json:"end_to_end"`
		PerLayer []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricJSON, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the code %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEndDefs)
	check("per_layer", bf.PerLayer, perLayerDefs)
}

type metricJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}
