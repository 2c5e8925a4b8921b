package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The design-space sweep artifacts frame prefetcher evaluation the way the
// follow-up literature does (MANA, Ansari et al.): instead of one
// configuration per figure, a storage-budget or cache-geometry axis is
// swept end to end and every (workload × engine × setting) cell is a
// simulation job. The cells run over the XL suite by default
// (Options.SweepWorkloads overrides), whose footprints keep the axes
// differentiating where the standard six saturate.

// Per-entry storage accounting for history-budget sweeps, re-exported
// from the engines that declare them (the schemas' budget_kb derivations
// divide by these). The paper's PIF history holds spatial region records
// (a ~34-bit region-aligned trigger address plus a 7-bit neighbor bit
// vector, ~41 bits ≈ 6 bytes rounded to the next byte with
// valid/replacement state); TIFS logs raw block pointers (~36-bit block
// address ≈ 5 bytes). Budgets divide by these, so a grid column compares
// the engines at equal history storage, not equal entry counts.
const (
	PIFBytesPerRegion = core.PIFBytesPerRegion
	TIFSBytesPerBlock = prefetch.TIFSBytesPerBlock
)

// SweepHistoryBudgetsKB is the swept history storage budget. The paper's
// 32K-region PIF knee sits at 32K * 6B = 192KB, inside the sweep's upper
// half; the low end starves both engines visibly.
var SweepHistoryBudgetsKB = []int{8, 32, 128, 512, 2048}

// budgetAxis builds the history storage-budget axis: each value overlays
// budget_kb on the cell's engine spec, and the engine's own schema
// derives its history sizing from it (or ignores it, for history-less
// baselines).
func budgetAxis(kbs []int) sweep.Axis {
	return sweep.EngineParamAxis("budget", "budget_kb",
		func(v int) string { return fmt.Sprintf("%dkb", v) },
		func(v int) string { return fmt.Sprintf("%dKB", v) },
		kbs)
}

// l1Axis builds the L1-I capacity axis (sizes in bytes): each value
// mutates the cell's config.System. Shared by the sweep-l1 artifact and
// the CLI's "l1" axis so both produce identical cell keys for the same
// design point — per-job diffs across artifact and ad-hoc runs depend on
// the key format agreeing.
func l1Axis(sizesBytes []int) sweep.Axis {
	ax := sweep.Axis{Name: "l1"}
	for _, n := range sizesBytes {
		n := n
		ax.Values = append(ax.Values, sweep.Value{
			Key:  fmt.Sprintf("%dkb", n>>10),
			Name: fmt.Sprintf("%dKB", n>>10),
			Apply: func(s *sweep.Settings) {
				s.Config.System.L1ISizeBytes = n
			},
		})
	}
	return ax
}

// SweepHistoryResult holds the MANA-style storage-budget sweep: PIF and
// TIFS coverage and speedup per workload as the history budget grows.
type SweepHistoryResult struct {
	Workloads []string `json:"workloads"`
	BudgetsKB []int    `json:"budgets_kb"`
	// Coverage of the no-prefetch baseline's correct-path misses,
	// [workload][budget index].
	PIFCov  [][]float64 `json:"pif_cov"`
	TIFSCov [][]float64 `json:"tifs_cov"`
	// Speedups over the no-prefetch baseline, [workload][budget index].
	PIFSpeedup  [][]float64 `json:"pif_speedup"`
	TIFSSpeedup [][]float64 `json:"tifs_speedup"`
}

// SweepHistory regenerates the history storage-budget design-space sweep:
// a no-prefetch baseline grid (one cell per workload) plus a
// (workload × engine × budget) grid, projected into per-engine coverage
// and speedup curves. Both grids' raw per-job results are persisted by
// `experiments -out` for per-cell diffing.
func SweepHistory(e *Env) (SweepHistoryResult, error) {
	wls := e.SweepWorkloads()
	scfg := e.Options().SimConfig()
	res := SweepHistoryResult{BudgetsKB: SweepHistoryBudgetsKB}

	baseGrid, err := e.RunGrid(sweep.Spec{
		Name:       "sweep-history-base",
		Base:       scfg,
		BaseEngine: prefetch.Spec{Name: "none"},
		Axes:       []sweep.Axis{sweep.WorkloadAxis("workload", wls)},
	})
	if err != nil {
		return res, err
	}
	g, err := e.RunGrid(sweep.Spec{
		Name: "sweep-history",
		Base: scfg,
		Axes: []sweep.Axis{
			sweep.WorkloadAxis("workload", wls),
			sweep.EngineAxis("engine", "pif", "tifs"),
			budgetAxis(SweepHistoryBudgetsKB),
		},
	})
	if err != nil {
		return res, err
	}

	nb := len(SweepHistoryBudgetsKB)
	for wi, wl := range wls {
		base := baseGrid.SimAt(wi)
		pifCov := make([]float64, nb)
		tifsCov := make([]float64, nb)
		pifSpd := make([]float64, nb)
		tifsSpd := make([]float64, nb)
		for bi := range SweepHistoryBudgetsKB {
			pif, tifs := g.SimAt(wi, 0, bi), g.SimAt(wi, 1, bi)
			pifCov[bi] = coverageVs(base, pif)
			tifsCov[bi] = coverageVs(base, tifs)
			pifSpd[bi] = speedupVs(base, pif)
			tifsSpd[bi] = speedupVs(base, tifs)
		}
		res.Workloads = append(res.Workloads, wl.Name)
		res.PIFCov = append(res.PIFCov, pifCov)
		res.TIFSCov = append(res.TIFSCov, tifsCov)
		res.PIFSpeedup = append(res.PIFSpeedup, pifSpd)
		res.TIFSSpeedup = append(res.TIFSSpeedup, tifsSpd)
	}
	return res, nil
}

// coverageVs returns the fraction of the baseline's correct-path misses a
// run eliminated (clamped at zero, as in Figure 10).
func coverageVs(base, r sim.Result) float64 {
	if base.CorrectMisses == 0 {
		return 0
	}
	c := 1 - float64(r.CorrectMisses)/float64(base.CorrectMisses)
	if c < 0 {
		c = 0
	}
	return c
}

// speedupVs returns the run's UIPC relative to the baseline's.
func speedupVs(base, r sim.Result) float64 {
	if base.UIPC == 0 {
		return 0
	}
	return r.UIPC / base.UIPC
}

// Render formats the budget sweep as coverage and speedup tables with one
// engine/budget column pair per swept point.
func (r SweepHistoryResult) Render() string {
	var covCols, spdCols []string
	for _, eng := range []string{"PIF", "TIFS"} {
		for _, kb := range r.BudgetsKB {
			covCols = append(covCols, fmt.Sprintf("%s/%dK", eng, kb))
			spdCols = append(spdCols, fmt.Sprintf("%s/%dK", eng, kb))
		}
	}
	cov := &stats.Table{
		Title:   "sweep-history: miss coverage vs history storage budget (KB)",
		ColName: covCols,
	}
	spd := &stats.Table{
		Title:   "sweep-history: speedup vs history storage budget (KB)",
		ColName: spdCols,
	}
	for i, w := range r.Workloads {
		cov.AddRow(w, append(append([]float64{}, r.PIFCov[i]...), r.TIFSCov[i]...)...)
		spd.AddRow(w, append(append([]float64{}, r.PIFSpeedup[i]...), r.TIFSSpeedup[i]...)...)
	}
	return cov.Render(true) + "\n" + spd.Render(false)
}

// SweepL1SizesKB is the swept L1-I capacity (the paper's Table I size,
// 64KB, sits mid-sweep).
var SweepL1SizesKB = []int{16, 32, 64, 128, 256}

// SweepL1Result holds the cache-geometry sweep: baseline and PIF UIPC per
// workload as the L1-I grows.
type SweepL1Result struct {
	Workloads []string `json:"workloads"`
	SizesKB   []int    `json:"sizes_kb"`
	// UIPC at each size, [workload][size index].
	BaseUIPC [][]float64 `json:"base_uipc"`
	PIFUIPC  [][]float64 `json:"pif_uipc"`
	// PIFSpeedup is PIF UIPC over the same-size no-prefetch baseline.
	PIFSpeedup [][]float64 `json:"pif_speedup"`
}

// SweepL1 regenerates the L1-I size design-space sweep: a
// (workload × engine × L1-I size) grid whose size axis mutates the
// config.System machine description, projected into UIPC curves. The
// interesting read is PIF compensating for capacity: PIF at a small L1-I
// approaches (or beats) the no-prefetch baseline at several times the
// size.
func SweepL1(e *Env) (SweepL1Result, error) {
	wls := e.SweepWorkloads()
	scfg := e.Options().SimConfig()
	res := SweepL1Result{SizesKB: SweepL1SizesKB}

	sizesBytes := make([]int, len(SweepL1SizesKB))
	for i, kb := range SweepL1SizesKB {
		sizesBytes[i] = kb << 10
	}
	g, err := e.RunGrid(sweep.Spec{
		Name: "sweep-l1",
		Base: scfg,
		Axes: []sweep.Axis{
			sweep.WorkloadAxis("workload", wls),
			sweep.EngineAxis("engine", "none", "pif"),
			l1Axis(sizesBytes),
		},
	})
	if err != nil {
		return res, err
	}

	for wi, wl := range wls {
		baseRow := make([]float64, len(SweepL1SizesKB))
		pifRow := make([]float64, len(SweepL1SizesKB))
		spdRow := make([]float64, len(SweepL1SizesKB))
		for si := range SweepL1SizesKB {
			base, pif := g.SimAt(wi, 0, si), g.SimAt(wi, 1, si)
			baseRow[si] = base.UIPC
			pifRow[si] = pif.UIPC
			spdRow[si] = speedupVs(base, pif)
		}
		res.Workloads = append(res.Workloads, wl.Name)
		res.BaseUIPC = append(res.BaseUIPC, baseRow)
		res.PIFUIPC = append(res.PIFUIPC, pifRow)
		res.PIFSpeedup = append(res.PIFSpeedup, spdRow)
	}
	return res, nil
}

// Render formats the L1-I size sweep.
func (r SweepL1Result) Render() string {
	var cols []string
	for _, eng := range []string{"base", "PIF"} {
		for _, kb := range r.SizesKB {
			cols = append(cols, fmt.Sprintf("%s/%dK", eng, kb))
		}
	}
	uipc := &stats.Table{
		Title:   "sweep-l1: UIPC vs L1-I size (KB), no-prefetch baseline and PIF",
		ColName: cols,
	}
	spdCols := make([]string, len(r.SizesKB))
	for i, kb := range r.SizesKB {
		spdCols[i] = fmt.Sprintf("%dK", kb)
	}
	spd := &stats.Table{
		Title:   "sweep-l1: PIF speedup over same-size baseline",
		ColName: spdCols,
	}
	for i, w := range r.Workloads {
		uipc.AddRow(w, append(append([]float64{}, r.BaseUIPC[i]...), r.PIFUIPC[i]...)...)
		spd.AddRow(w, r.PIFSpeedup[i]...)
	}
	return uipc.Render(false) + "\n" + spd.Render(false)
}

func init() {
	register("sweep-history", func(e *Env) (Report, error) {
		r, err := SweepHistory(e)
		if err != nil {
			return Report{}, err
		}
		return Report{
			ID:    "sweep-history",
			Title: "Coverage and speedup vs history storage budget (design-space sweep)",
			Text:  r.Render(),
			Data:  r,
		}, nil
	})
	register("sweep-l1", func(e *Env) (Report, error) {
		r, err := SweepL1(e)
		if err != nil {
			return Report{}, err
		}
		return Report{
			ID:    "sweep-l1",
			Title: "UIPC vs L1-I size (design-space sweep)",
			Text:  r.Render(),
			Data:  r,
		}, nil
	})
}

// axisErr builds the usage error for one malformed -axis token: every
// axis-spec failure names the exact flag value the user typed, so a long
// command line pinpoints its offending token instead of reporting a
// generic failure.
func axisErr(token, format string, args ...any) error {
	return fmt.Errorf("experiments: -axis %q: %s", token, fmt.Sprintf(format, args...))
}

// BuildSweep constructs an ad-hoc sweep spec from CLI axis specifications
// of the form "name=v1,v2,...", applied in flag order, plus optional
// engine specs from repeated -engine flags. Supported axes:
//
//   - workload=<suite or names>: "std" (the standard six), "xl" (the XL
//     suite), "all" (both), or comma-separated profile names ("OLTP DB2").
//   - engine=<engine specs>: prefetch engines ("none", "nextline",
//     "tifs", "pif", "pif-unlimited", ...), each optionally
//     parameterized against its schema ("pif:history=64K"). Defaults to
//     "pif" when absent. Specs with several parameters contain commas,
//     so they arrive through repeated -engine flags (engineSpecs)
//     instead; the two spellings build the same axis and may not be
//     combined.
//   - history=<entry counts>: history capacity in entries, with an
//     optional K/M suffix ("32K"); overlays the history param on each
//     cell's engine spec (PIF regions, TIFS blocks; history-less
//     engines ignore it by schema).
//   - budget=<KB values>: history storage budget in KB, with an optional
//     K/M suffix meaning KB multiples; overlays budget_kb, which each
//     engine's schema derives its history sizing from. Mutually
//     exclusive with history (the schemas reject the combination).
//   - l1=<sizes>: L1-I capacity with an optional K/M suffix in bytes
//     ("32K", "64K"); bare numbers mean KB.
//   - source=<record sources>: where each cell's instruction stream
//     comes from — "live" (execute the workload), "store" (replay the
//     workload's recorded stream: the spilled store when the options
//     name a store pool, the cached in-memory stream otherwise —
//     byte-identical either way), "slice@off:len"
//     (replay one window of it, K/M suffixes allowed), or either of the
//     latter with an explicit store directory appended ("store@DIR",
//     "slice@off:len@DIR", e.g. a store recorded by tracegen). A slice
//     cell replays its whole window from a cold start — warmup 0, the
//     window length as the measured interval — so several windows of one
//     recorded trace are comparable regardless of the run's
//     warmup/measure split (the sweep-window artifact's convention).
//   - shards=<counts>: how many window-shard jobs each cell's replay fans
//     out into (see sweep.ShardsAxis); cells on this axis need a
//     replayable source (a source axis value other than "live", or the
//     -shards flag's store requirements). "1" means unsharded. To shard
//     every cell without changing cell keys, use the -shards flag
//     (Spec.BaseShards) instead.
//
// The resulting spec validates each cell's engine parameters and system
// configuration at build/expansion time, so a bad parameter or an
// impossible geometry fails before any simulation starts. Malformed axis
// specs are usage errors quoting the offending -axis or -engine token.
func BuildSweep(e *Env, name string, axisSpecs, engineSpecs []string) (sweep.Spec, error) {
	opts := e.Options()
	if len(axisSpecs) == 0 && len(engineSpecs) == 0 {
		return sweep.Spec{}, fmt.Errorf("experiments: sweep needs at least one -axis or -engine")
	}
	// The name doubles as the stored grid-summary artifact ID; reject a
	// name that would only fail at persistence time, after the whole grid
	// has already simulated.
	if !report.ValidArtifactID(name) {
		return sweep.Spec{}, fmt.Errorf("experiments: sweep name %q is not a valid artifact ID (alphanumeric start, then [A-Za-z0-9._-], at most 64 bytes, not \"run\")", name)
	}
	spec := sweep.Spec{
		Name:       name,
		Base:       opts.SimConfig(),
		BaseEngine: prefetch.Spec{Name: "pif"},
	}
	seen := map[string]bool{}
	for _, as := range axisSpecs {
		axName, vals, err := splitAxisSpec(as)
		if err != nil {
			return sweep.Spec{}, err
		}
		if seen[axName] {
			return sweep.Spec{}, axisErr(as, "duplicate axis %q (each axis may appear once)", axName)
		}
		seen[axName] = true
		var ax sweep.Axis
		switch axName {
		case "workload":
			wls, err := resolveWorkloads(vals)
			if err != nil {
				return sweep.Spec{}, axisErr(as, "%v", err)
			}
			ax = sweep.WorkloadAxis("workload", wls)
		case "engine":
			ax, err = engineSpecAxis(vals, func(err error) error {
				return axisErr(as, "%v", err)
			})
			if err != nil {
				return sweep.Spec{}, err
			}
		case "history":
			ints, err := parseSizes(vals, 1)
			if err != nil {
				return sweep.Spec{}, axisErr(as, "%v", err)
			}
			ax = sweep.EngineParamAxis("history", "history",
				func(v int) string { return strconv.Itoa(v) }, nil, ints)
		case "budget":
			ints, err := parseSizes(vals, 1)
			if err != nil {
				return sweep.Spec{}, axisErr(as, "%v", err)
			}
			ax = budgetAxis(ints)
		case "l1":
			// Bare numbers mean KB; suffixed values are bytes ("64K").
			ints, err := parseSizes(vals, 1024)
			if err != nil {
				return sweep.Spec{}, axisErr(as, "%v", err)
			}
			// The Finish hook used to validate each cell's system after
			// axis mutation; with cells now validated through engine
			// schemas instead, check the swept geometries here so an
			// impossible size still fails before any simulation starts.
			for _, n := range ints {
				sys := opts.SimConfig().System
				sys.L1ISizeBytes = n
				if err := sys.Validate(); err != nil {
					return sweep.Spec{}, axisErr(as, "%v", err)
				}
			}
			ax = l1Axis(ints)
		case "source":
			choices := make([]sweep.SourceChoice, 0, len(vals))
			for _, v := range vals {
				c, err := e.sourceChoice(v)
				if err != nil {
					return sweep.Spec{}, axisErr(as, "%v", err)
				}
				choices = append(choices, c)
			}
			ax = sweep.SourceAxis("source", choices)
		case "shards":
			counts := make([]int, 0, len(vals))
			for _, v := range vals {
				n, err := strconv.Atoi(strings.TrimSpace(v))
				if err != nil || n < 1 {
					return sweep.Spec{}, axisErr(as, "bad shard count %q (want a positive integer)", v)
				}
				counts = append(counts, n)
			}
			ax = sweep.ShardsAxis("shards", counts)
		default:
			return sweep.Spec{}, axisErr(as, "unknown axis %q (have workload, engine, history, budget, l1, source, shards)", axName)
		}
		spec.Axes = append(spec.Axes, ax)
	}
	if len(engineSpecs) > 0 {
		if seen["engine"] {
			return sweep.Spec{}, fmt.Errorf("experiments: -engine and -axis engine are mutually exclusive (both build the engine axis)")
		}
		ax, err := engineSpecAxis(engineSpecs, func(err error) error {
			return fmt.Errorf("experiments: -engine: %v", err)
		})
		if err != nil {
			return sweep.Spec{}, err
		}
		spec.Axes = append(spec.Axes, ax)
	}
	if !seen["workload"] {
		// Default the workload axis (first, so it is the slow axis and
		// rendered rows group by workload) to the sweep suite.
		spec.Axes = append([]sweep.Axis{sweep.WorkloadAxis("workload", opts.SweepSuite())}, spec.Axes...)
	}
	if err := spec.Base.System.Validate(); err != nil {
		return sweep.Spec{}, fmt.Errorf("experiments: sweep base system: %w", err)
	}
	return spec, nil
}

// engineSpecAxis builds the engine axis from CLI engine-spec strings
// ("pif", "tifs", "pif:history=64K", "pif:sabs=2,window=9"): each value
// merges its parsed spec into the cell, keyed by the sanitized spec
// string so a plain name keys identically to the pre-spec CLI. wrapErr
// decorates a bad value's error with the offending flag token.
func engineSpecAxis(vals []string, wrapErr func(error) error) (sweep.Axis, error) {
	ax := sweep.Axis{Name: "engine"}
	for _, v := range vals {
		spec, err := prefetch.ParseSpec(v)
		if err != nil {
			return sweep.Axis{}, wrapErr(err)
		}
		ax.Values = append(ax.Values, sweep.Value{
			Key:   sweep.KeyOf(v),
			Name:  v,
			Apply: func(s *sweep.Settings) { s.MergeEngine(spec) },
		})
	}
	return ax, nil
}

// sourceChoice parses one value of the CLI source axis ("live", "store",
// "slice@off:len", "store@DIR", "slice@off:len@DIR") into a keyed sweep
// source. Env-backed sources ("store", "slice@off:len") replay the
// cell's workload from the environment (Env.SourceFor, Env.WindowSource);
// the sweep binds them once the cell's workload is final, so the source
// axis composes with the workload axis in either flag order.
// Explicit-directory sources replay the given store (its recorded
// workload must match the cell's — the simulator enforces it).
func (e *Env) sourceChoice(v string) (sweep.SourceChoice, error) {
	key := sweep.KeyOf(v)
	parts := strings.Split(v, "@")
	switch parts[0] {
	case "live":
		if len(parts) > 1 {
			return sweep.SourceChoice{}, fmt.Errorf("source %q: live takes no arguments", v)
		}
		return sweep.SourceChoice{Key: key, Name: v}, nil
	case "store":
		if len(parts) > 2 {
			return sweep.SourceChoice{}, fmt.Errorf("source %q is not store or store@DIR", v)
		}
		if len(parts) == 2 {
			dir := parts[1]
			return sweep.SourceChoice{Key: key, Name: v, New: func(s *sweep.Settings) sim.Source {
				return sim.StoreSource(dir)
			}}, nil
		}
		return sweep.SourceChoice{Key: key, Name: v, New: func(s *sweep.Settings) sim.Source {
			return e.SourceFor(s.Workload)
		}}, nil
	case "slice":
		if len(parts) < 2 || len(parts) > 3 {
			return sweep.SourceChoice{}, fmt.Errorf("source %q is not slice@off:len or slice@off:len@DIR", v)
		}
		w, err := trace.ParseWindow(parts[1])
		if err != nil {
			return sweep.SourceChoice{}, fmt.Errorf("source %q: %v", v, err)
		}
		// A slice cell measures its whole window from a cold start: the
		// window, not the run's warmup/measure split, defines the
		// interval, so any number of windows of one trace fit one grid.
		return sweep.SourceChoice{Key: key, Name: v, New: func(s *sweep.Settings) sim.Source {
			s.Config.WarmupInstrs = 0
			s.Config.MeasureInstrs = w.Len
			if len(parts) == 3 {
				return sim.SliceSource(parts[2], w)
			}
			return e.WindowSource(s.Workload, w)
		}}, nil
	default:
		return sweep.SourceChoice{}, fmt.Errorf("unknown source %q (have live, store, slice@off:len, each optionally @DIR)", v)
	}
}

// splitAxisSpec parses "name=v1,v2" into its parts.
func splitAxisSpec(s string) (string, []string, error) {
	name, rest, ok := strings.Cut(s, "=")
	if !ok || name == "" || rest == "" {
		return "", nil, axisErr(s, "not of the form name=v1,v2,...")
	}
	var vals []string
	for _, v := range strings.Split(rest, ",") {
		v = strings.TrimSpace(v)
		if v == "" {
			return "", nil, axisErr(s, "empty value in list %q", rest)
		}
		vals = append(vals, v)
	}
	return strings.TrimSpace(name), vals, nil
}

// resolveWorkloads maps workload axis values (suite aliases or profile
// names) to profiles, deduplicated by name in first-mention order.
func resolveWorkloads(vals []string) ([]workload.Profile, error) {
	var out []workload.Profile
	seen := map[string]bool{}
	add := func(wls ...workload.Profile) {
		for _, wl := range wls {
			if !seen[wl.Name] {
				seen[wl.Name] = true
				out = append(out, wl)
			}
		}
	}
	for _, v := range vals {
		switch strings.ToLower(v) {
		case "std", "standard":
			add(workload.StandardSuite()...)
		case "xl":
			add(workload.XLSuite()...)
		case "all":
			add(workload.StandardSuite()...)
			add(workload.XLSuite()...)
		default:
			wl, err := workload.ByName(v)
			if err != nil {
				names := make([]string, 0)
				for _, p := range append(workload.StandardSuite(), workload.XLSuite()...) {
					names = append(names, p.Name)
				}
				sort.Strings(names)
				return nil, fmt.Errorf("experiments: -axis workload: %w (have std, xl, all, %s)", err, strings.Join(names, ", "))
			}
			add(wl)
		}
	}
	return out, nil
}

// parseSizes parses integer axis values with optional K/M suffixes
// (multipliers of 1024); bare numbers are scaled by bareUnit.
func parseSizes(vals []string, bareUnit int) ([]int, error) {
	out := make([]int, 0, len(vals))
	for _, v := range vals {
		mult := bareUnit
		s := strings.ToUpper(strings.TrimSpace(v))
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1024, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1024*1024, strings.TrimSuffix(s, "M")
		}
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad size %q", v)
		}
		out = append(out, n*mult)
	}
	return out, nil
}
