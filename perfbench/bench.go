package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// minOps is the fewest ops an untraced run times: op_p90_ms needs ten
// ops beyond it.
const minOps = 100

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// benchmark performs one run: set-up passes, the timed closed loop (with
// a layer replay after each op in traced runs, followed by one untraced
// period), the correctness gate, and the result line.
func benchmark(o options) int {
	spec := lookupWorkload(o.workload)
	work, err := scratchDir(o.root)
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(work)

	ref := newRefSampler()
	ref.sample() // the first pass pays the kernel's page faults
	var tr *tracer
	if o.trace {
		stem := fmt.Sprintf("%s-seed%d", o.workload, o.seed)
		if tr, err = startTracer(filepath.Join(o.root, ".bench_build", "out"), stem); err != nil {
			return fail(err)
		}
		defer func() {
			if err := tr.close(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
			}
		}()
	}
	w := spec.make(o.seed, work)
	defer w.close()
	want, err := expectedDigests(o, w.period())
	if err != nil {
		return fail(err)
	}

	st := &stepTimer{ref: ref, r0: o.r0, tr: tr}
	var setups, setupsRaw []float64
	for pass := 0; pass < spec.passes; pass++ {
		st.begin()
		if err := w.setup(st, pass); err != nil {
			return fail(fmt.Errorf("set-up: %w", err))
		}
		setups = append(setups, st.adj)
		setupsRaw = append(setupsRaw, st.raw)
	}

	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return fail(err)
	}
	least := minOps
	if o.trace {
		least = w.period()
	}
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	giveUp := deadline.Add(time.Minute + 2*time.Duration(o.seconds)*time.Second)
	var stats []opStat
	var outs []opResult
	var layers []opLayers
	cpu0 := readRuntimeCPU()
	prev := ref.sample()
	for i := 0; ; i++ {
		now := time.Now()
		if (i%w.period() == 0 && i >= least && !now.Before(deadline)) || now.After(giveUp) {
			break
		}
		a0, c0 := heapAllocs(), cpuSeconds()
		t0 := time.Now()
		out := w.op(i)
		raw := time.Since(t0)
		c1, a1 := cpuSeconds(), heapAllocs()
		after := ref.sample()
		f := refFactor(prev, after, o.r0)
		prev = after
		stats = append(stats, opStat{
			raw: raw.Seconds(), adj: raw.Seconds() * f,
			cpuRaw: c1 - c0, cpuAdj: (c1 - c0) * f,
			ref: after, instrs: out.instrs, alloc: a1 - a0,
		})
		outs = append(outs, out)
		if tr == nil || out.err != nil {
			continue
		}
		tr.add("op", t0, t0.Add(raw), -1, i)
		l := tr.replay(i)
		err := w.replay(i, l)
		l.end()
		if err != nil {
			return fail(fmt.Errorf("op %d: layer replay: %w", i, err))
		}
		after = ref.sample()
		l.factor = refFactor(prev, after, o.r0)
		prev = after
		layers = append(layers, l.opLayers)
	}
	gcFrac := readRuntimeCPU().gcFracSince(cpu0)
	rssMB, err := peakRSSMB()
	if err != nil {
		return fail(err)
	}
	loop := time.Since(start)
	var base []opStat
	if tr != nil {
		// The execution tracer ran from set-up through the loop; one more
		// period of ops with it stopped is the untraced baseline.
		if err := tr.stop(); err != nil {
			return fail(err)
		}
		base = untracedPeriod(w, ref, o.r0)
	}
	w.finish(outs)

	g := gate(outs, want, w.period())
	for _, p := range g.problems {
		fmt.Fprintln(os.Stderr, "perfbench:", p)
	}
	res := result{Correct: g.failed == 0, Attempted: len(outs), Failed: g.failed, Metrics: map[string]metric{}}
	defs := endToEndDefs
	var values map[string]float64
	if o.trace {
		defs = perLayerDefs
		values = perLayer(layers, st.steps, stats, base, outs, w.period(), gcFrac)
	} else {
		if values, err = endToEnd(stats, setups, rssMB, g.failed, false); err != nil {
			return fail(err)
		}
		raw, err := endToEnd(stats, setupsRaw, rssMB, g.failed, true)
		if err != nil {
			return fail(err)
		}
		b, err := json.Marshal(raw)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("raw %s\n", b)
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	summarize(o, res, defs, ref.retakes, loop)
	fmt.Fprintf(os.Stderr, "  set-up passes (adjusted s): %.4g\n", setups)
	fmt.Printf("results_digest %s\n", g.runDigest)
	b, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("%s\n", b)
	if g.mismatch {
		return fail(fmt.Errorf("op results differ from the committed digests in %s", o.digests))
	}
	return 0
}

// untracedPeriod runs op 0 to period-1 once more with no tracing at all,
// each bracketed by reference samples, and returns their timings by op;
// an op that failed is left zero.
func untracedPeriod(w benchWorkload, ref *refSampler, r0 float64) []opStat {
	stats := make([]opStat, w.period())
	prev := ref.sample()
	for i := range stats {
		t0 := time.Now()
		out := w.op(i)
		raw := time.Since(t0).Seconds()
		after := ref.sample()
		if out.err == nil {
			stats[i] = opStat{raw: raw, adj: raw * refFactor(prev, after, r0), ref: after, instrs: out.instrs}
		}
		prev = after
	}
	return stats
}

// summarize prints a readable form of the result to standard error.
func summarize(o options, res result, defs []metricDef, retakes int, loop time.Duration) {
	fmt.Fprintf(os.Stderr, "perfbench %s seed %d: %d ops in %.1fs, %d failed, %d reference samples retaken\n",
		o.workload, o.seed, res.Attempted, loop.Seconds(), res.Failed, retakes)
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
}
