package main

import "fmt"

// metricDef is one reported metric. BENCHMARK.json lists the same names,
// units and directions (a test keeps the two in step).
type metricDef struct {
	name, unit, better string
}

var endToEndDefs = []metricDef{
	{"sim_mips", "Minstr/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"cpu_ns_per_instr", "ns/instr", "lower"},
	{"rss_peak_mb", "MB", "lower"},
	{"op_ok_frac", "fraction", "higher"},
	{"setup_s", "s", "lower"},
}

var perLayerDefs = []metricDef{
	{"trace.decode_ns_per_rec", "ns/rec", "lower"},
	{"trace.decode_share", "fraction", "lower"},
	{"trace.record_mrec_s", "Mrec/s", "higher"},
	{"workload.exec_ns_per_instr", "ns/instr", "lower"},
	{"workload.exec_share", "fraction", "lower"},
	{"workload.build_ms", "ms", "lower"},
	{"frontend.feed_ns_per_instr", "ns/instr", "lower"},
	{"frontend.share", "fraction", "lower"},
	{"cache.access_ns", "ns", "lower"},
	{"cache.share", "fraction", "lower"},
	{"sim.glue_ns_per_instr", "ns/instr", "lower"},
	{"sim.glue_share", "fraction", "lower"},
	{"sim.new_us", "us", "lower"},
	{"core.pif_ns_per_instr", "ns/instr", "lower"},
	{"core.pif_share", "fraction", "lower"},
	{"prefetch.tifs_ns_per_instr", "ns/instr", "lower"},
	{"prefetch.nextline_ns_per_instr", "ns/instr", "lower"},
	{"prefetch.engine_share", "fraction", "lower"},
	{"prefetch.resolve_us", "us", "lower"},
	{"runner.dispatch_us_per_job", "us/job", "lower"},
	{"sweep.expand_us", "us", "lower"},
	{"experiments.build_sweep_ms", "ms", "lower"},
	{"report.save_ms", "ms", "lower"},
	{"expsvc.queue_ms", "ms", "lower"},
	{"expsvc.grid_ms", "ms", "lower"},
	{"expsvc.persist_ms", "ms", "lower"},
	{"expsvc.client_ms", "ms", "lower"},
	{"remote.job_overhead_ms", "ms/job", "lower"},
	{"runtime.gc_cpu_frac", "fraction", "lower"},
	{"runtime.alloc_bytes_per_kinstr", "B/kinstr", "lower"},
	{"frontend.accesses_per_kinstr", "1/kinstr", "lower"},
	{"frontend.wrong_path_frac", "fraction", "lower"},
	{"bpred.mispredict_rate", "fraction", "lower"},
	{"cache.miss_ratio", "fraction", "lower"},
	{"core.coverage", "fraction", "higher"},
	{"core.prefetch_accuracy", "fraction", "higher"},
	{"prefetch.accuracy", "fraction", "higher"},
	{"sim.uipc", "instr/cycle", "higher"},
	{"host.ref_ms", "ms", "lower"},
	{"host.raw_op_p50_ms", "ms", "lower"},
	{"host.raw_sim_mips", "Minstr/s", "higher"},
	{"host.trace_overhead_frac", "fraction", "lower"},
}

// opStat is one timed op.
type opStat struct {
	raw, adj       float64 // wall seconds
	cpuRaw, cpuAdj float64 // process CPU seconds, all goroutines
	ref            float64 // the reference sample taken after the op, seconds
	instrs         uint64
	alloc          uint64 // heap bytes allocated
}

// endToEnd computes the end-to-end metrics from the timed ops, either
// reference-adjusted or raw.
func endToEnd(stats []opStat, setups []float64, rssMB float64, failed int, raw bool) (map[string]float64, error) {
	times := make([]float64, len(stats))
	var total, cpu, instrs float64
	for i, s := range stats {
		t, c := s.adj, s.cpuAdj
		if raw {
			t, c = s.raw, s.cpuRaw
		}
		times[i] = t
		total += t
		cpu += c
		instrs += float64(s.instrs)
	}
	p50, err := percentile(times, 50)
	if err != nil {
		return nil, fmt.Errorf("op_p50_ms: %w", err)
	}
	p90, err := percentile(times, 90)
	if err != nil {
		return nil, fmt.Errorf("op_p90_ms: %w", err)
	}
	return map[string]float64{
		"sim_mips":         instrs / total / 1e6,
		"op_p50_ms":        p50 * 1e3,
		"op_p90_ms":        p90 * 1e3,
		"cpu_ns_per_instr": cpu / instrs * 1e9,
		"rss_peak_mb":      rssMB,
		"op_ok_frac":       float64(len(stats)-failed) / float64(len(stats)),
		"setup_s":          median(setups),
	}, nil
}

// perLayer computes the per-layer metrics of a traced run. Layer times
// are summed over ops after reference adjustment and divided by the work
// the layer did; shares are medians over ops of ratios within one op, so
// host speed cancels out of them. A layer one job exercises counts once
// per job of the op. A layer the workload's ops never enter reads 0.
// base holds the untraced period's timings, by op; the host.* times come
// from it.
func perLayer(ls []opLayers, steps []stepTime, stats, base []opStat, outs []opResult, period int, gcFrac float64) map[string]float64 {
	m := make(map[string]float64, len(perLayerDefs))
	for _, d := range perLayerDefs {
		m[d.name] = 0
	}
	type layerFn func(l opLayers) float64
	sec := func(key string) layerFn { return func(l opLayers) float64 { return l.sec[key] } }
	perJob := func(f layerFn) layerFn { return func(l opLayers) float64 { return l.work["jobs"] * f(l) } }
	// glue is what sim.RunJob(none) spends beyond the isolated source,
	// front-end and cache replays.
	glue := func(l opLayers) float64 {
		return l.sec["sim.run.none"] - l.sec["trace.decode"] - l.sec["workload.exec"] - l.sec["frontend.feed"] - l.sec["cache.access"]
	}
	// engine is what an engine adds to sim.RunJob over engine none.
	engine := func(name string) layerFn {
		return func(l opLayers) float64 {
			t, ok := l.sec["sim.run."+name]
			if !ok {
				return 0
			}
			return t - l.sec["sim.run.none"]
		}
	}
	engines := func(l opLayers) float64 { return engine("pif")(l) + engine("tifs")(l) + engine("nextline")(l) }

	var window, accesses float64
	for _, l := range ls {
		window += l.work["window"]
		accesses += l.work["accesses"]
	}
	adjPer := func(f layerFn, units, scale float64) float64 {
		if units == 0 {
			return 0
		}
		s := 0.0
		for _, l := range ls {
			s += f(l) * l.factor
		}
		return s / units * scale
	}
	share := func(f layerFn) float64 {
		var xs []float64
		for _, l := range ls {
			if op := l.sec["op.traced"]; op > 0 {
				xs = append(xs, f(l)/op)
			}
		}
		return medianOr0(xs)
	}
	// each is the median over the ops that ran a step of its adjusted
	// time, per unit of work when per names one.
	each := func(key, per string, scale float64) float64 {
		var xs []float64
		for _, l := range ls {
			t, ok := l.sec[key]
			if !ok {
				continue
			}
			d := 1.0
			if per != "" {
				d = l.work[per]
			}
			xs = append(xs, t*l.factor/d*scale)
		}
		return medianOr0(xs)
	}

	m["trace.decode_ns_per_rec"] = adjPer(sec("trace.decode"), window, 1e9)
	m["trace.decode_share"] = share(perJob(sec("trace.decode")))
	m["workload.exec_ns_per_instr"] = adjPer(sec("workload.exec"), window, 1e9)
	m["workload.exec_share"] = share(perJob(sec("workload.exec")))
	m["frontend.feed_ns_per_instr"] = adjPer(sec("frontend.feed"), window, 1e9)
	m["frontend.share"] = share(perJob(sec("frontend.feed")))
	m["cache.access_ns"] = adjPer(sec("cache.access"), accesses, 1e9)
	m["cache.share"] = share(perJob(sec("cache.access")))
	m["sim.glue_ns_per_instr"] = adjPer(glue, window, 1e9)
	m["sim.glue_share"] = share(perJob(glue))
	m["core.pif_ns_per_instr"] = adjPer(engine("pif"), window, 1e9)
	m["core.pif_share"] = share(engine("pif"))
	m["prefetch.tifs_ns_per_instr"] = adjPer(engine("tifs"), window, 1e9)
	m["prefetch.nextline_ns_per_instr"] = adjPer(engine("nextline"), window, 1e9)
	m["prefetch.engine_share"] = share(engines)
	m["sim.new_us"] = each("sim.new", "", 1e6)
	m["prefetch.resolve_us"] = each("prefetch.resolve", "resolves", 1e6)
	m["runner.dispatch_us_per_job"] = each("runner.dispatch", "jobs", 1e6)
	m["sweep.expand_us"] = each("sweep.expand", "", 1e6)
	m["experiments.build_sweep_ms"] = each("experiments.build_sweep", "", 1e3)
	m["report.save_ms"] = each("report.save", "", 1e3)
	m["expsvc.queue_ms"] = each("expsvc.queue", "", 1e3)
	m["expsvc.grid_ms"] = each("expsvc.grid", "", 1e3)
	m["expsvc.persist_ms"] = each("expsvc.persist", "", 1e3)
	m["expsvc.client_ms"] = each("expsvc.client", "", 1e3)
	m["remote.job_overhead_ms"] = each("remote.job_overhead", "jobs", 1e3)

	// Layers the set-up exercises: program builds and trace recording.
	var builds []float64
	var recorded, recordSec float64
	for _, s := range steps {
		switch s.name {
		case "workload.build":
			builds = append(builds, s.adj/s.work)
		case "trace.record":
			recorded += s.work
			recordSec += s.adj
		}
	}
	for _, l := range ls {
		if t, ok := l.sec["workload.build"]; ok {
			builds = append(builds, t*l.factor)
		}
	}
	m["workload.build_ms"] = medianOr0(builds) * 1e3
	if recordSec > 0 {
		m["trace.record_mrec_s"] = recorded / recordSec / 1e6
	}

	var alloc, instrs float64
	for _, s := range stats {
		alloc += float64(s.alloc)
		instrs += float64(s.instrs)
	}
	m["runtime.gc_cpu_frac"] = gcFrac
	m["runtime.alloc_bytes_per_kinstr"] = alloc / instrs * 1e3
	for k, v := range counts(outs, period) {
		m[k] = v
	}

	var baseInstrs, baseRaw float64
	var refs, raws, over []float64
	for _, s := range base {
		if s.adj == 0 {
			continue // the op failed
		}
		baseInstrs += float64(s.instrs)
		baseRaw += s.raw
		refs = append(refs, s.ref)
		raws = append(raws, s.raw)
	}
	m["host.ref_ms"] = medianOr0(refs) * 1e3
	m["host.raw_op_p50_ms"] = medianOr0(raws) * 1e3
	if baseRaw > 0 {
		m["host.raw_sim_mips"] = baseInstrs / baseRaw / 1e6
	}
	// The span-wrapped re-run of each op, under the execution tracer,
	// against the same op run with no tracing at all.
	for _, l := range ls {
		if b := base[l.op%period].adj; b > 0 {
			over = append(over, (l.sec["op.traced"]*l.factor-b)/b)
		}
	}
	m["host.trace_overhead_frac"] = medianOr0(over)
	return m
}

// counts computes the exact simulated counts over the seed's op list
// (the first period of ops), so two commits that simulate identically
// report identical values whatever their speed.
func counts(outs []opResult, period int) map[string]float64 {
	var fetches, wrong, mispredicts, branches, accesses, misses, instrs, cycles, fed float64
	var covered, pifMisses, pifHits, pifFills, baseHits, baseFills float64
	for _, o := range outs[:min(period, len(outs))] {
		if len(o.results) == 0 {
			continue
		}
		perJob := float64(o.instrs) / float64(len(o.results))
		for k, r := range o.results {
			// Front-end counters cover warmup and measure alike.
			fetches += float64(r.FE.Fetches)
			wrong += float64(r.FE.WrongPathFetches)
			mispredicts += float64(r.FE.Mispredicts)
			branches += float64(r.FE.Branches)
			fed += perJob
			accesses += float64(r.CorrectAccesses)
			misses += float64(r.CorrectMisses)
			instrs += float64(r.Instructions)
			cycles += float64(r.Cycles)
			switch o.engines[k] {
			case "none":
			case "pif":
				covered += float64(r.CoveredMisses)
				pifMisses += float64(r.CoveredMisses + r.CorrectMisses)
				pifHits += float64(r.L1.PrefetchHits)
				pifFills += float64(r.L1.PrefetchFills)
			default:
				baseHits += float64(r.L1.PrefetchHits)
				baseFills += float64(r.L1.PrefetchFills)
			}
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return map[string]float64{
		"frontend.accesses_per_kinstr": ratio(fetches+wrong, fed) * 1e3,
		"frontend.wrong_path_frac":     ratio(wrong, fetches+wrong),
		"bpred.mispredict_rate":        ratio(mispredicts, branches),
		"cache.miss_ratio":             ratio(misses, accesses),
		"core.coverage":                ratio(covered, pifMisses),
		"core.prefetch_accuracy":       ratio(pifHits, pifFills),
		"prefetch.accuracy":            ratio(baseHits, baseFills),
		"sim.uipc":                     ratio(instrs, cycles),
	}
}
