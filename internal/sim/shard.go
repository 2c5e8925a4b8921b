// Sharded replay: splitting one recorded trace's measured interval into
// K contiguous windows that replay in parallel, and stitching the
// per-window results back into one whole-run Result. The split and merge
// rules live here, next to the simulator state they reason about; the
// only driver is internal/sweep, which plans a sharded cell's jobs with
// SplitReplay and folds their results with MergeShardResults.
// See DESIGN.md §10 for the stitching-rule derivation.

package sim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/trace"
)

// ShardPlan describes one shard of a sharded single-trace replay: the
// store window the shard pulls (its warmup prefix plus its measured
// span) and the warmup/offset/measure split to replay it under.
type ShardPlan struct {
	// Window is the absolute record range the shard reads.
	Window trace.Window
	// WarmupInstrs is the prefix replayed before statistics reset.
	WarmupInstrs uint64
	// MeasureOffsetInstrs is replayed between the reset and the measured
	// span with statistics accumulating (exact mode only; see
	// Config.MeasureOffsetInstrs). Zero in approximate mode.
	MeasureOffsetInstrs uint64
	// MeasureInstrs is the shard's measured span.
	MeasureInstrs uint64
}

// Config returns base with the plan's warmup/offset/measure split
// applied — the per-shard job configuration.
func (p ShardPlan) Config(base Config) Config {
	base.WarmupInstrs = p.WarmupInstrs
	base.MeasureOffsetInstrs = p.MeasureOffsetInstrs
	base.MeasureInstrs = p.MeasureInstrs
	return base
}

// SplitReplay plans a K-way shard of one trace replay under cfg's
// warmup/measure interval. The measured interval is tiled contiguously
// (earlier shards take the remainder records, so spans differ by at most
// one).
//
// In exact mode every shard replays the full trace prefix [0, start):
// the configured warmup (reset at the same boundary as the sequential
// run) followed by a measure offset that accumulates statistics up to
// the shard's span, which is then reported as counter deltas (see
// Config.MeasureOffsetInstrs). Each shard's simulator therefore reaches
// its span with byte-identical state AND clock to the sequential run,
// so everything — event counters, Cycles, StallCycles, UIPC — merges
// losslessly (MergeShardResults). The prefix re-replay makes total work
// quadratic-ish in K and leaves the last shard replaying the whole
// trace, so exact mode buys bit-exact parity, not wall-clock speedup;
// use approximate mode when throughput is the point.
//
// In approximate mode every shard warms with a fixed-length prefix of
// cfg.WarmupInstrs records immediately preceding its span — the same
// cache/predictor warming the sweep-window artifact measures — so work
// scales linearly with the trace and shards parallelize fully, while
// merged metrics land within that artifact's window-position
// tolerances rather than exactly.
func SplitReplay(cfg Config, shards int, exact bool) ([]ShardPlan, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("sim: shard count %d, want >= 1", shards)
	}
	if cfg.MeasureInstrs == 0 {
		return nil, fmt.Errorf("sim: zero measurement interval")
	}
	if uint64(shards) > cfg.MeasureInstrs {
		return nil, fmt.Errorf("sim: %d shards over a %d-record measured interval", shards, cfg.MeasureInstrs)
	}
	base := cfg.MeasureInstrs / uint64(shards)
	rem := cfg.MeasureInstrs % uint64(shards)
	plans := make([]ShardPlan, shards)
	start := cfg.WarmupInstrs
	for k := range plans {
		n := base
		if uint64(k) < rem {
			n++
		}
		if exact {
			plans[k] = ShardPlan{
				Window:              trace.Window{Off: 0, Len: start + n},
				WarmupInstrs:        cfg.WarmupInstrs,
				MeasureOffsetInstrs: start - cfg.WarmupInstrs,
				MeasureInstrs:       n,
			}
		} else {
			warm := cfg.WarmupInstrs
			if warm > start {
				warm = start
			}
			plans[k] = ShardPlan{
				Window:        trace.Window{Off: start - warm, Len: warm + n},
				WarmupInstrs:  warm,
				MeasureInstrs: n,
			}
		}
		start += n
	}
	return plans, nil
}

// MergeShardResults stitches per-shard results (in shard order) into one
// whole-run Result. The stitching rules follow from what the simulator
// resets at the warmup boundary (see DESIGN.md §10):
//
//   - Event counters — Instructions, CorrectAccesses, CorrectMisses,
//     CoveredMisses, PrefetchesIssued, and every L1 field — are counts of
//     measured-interval events. Under exact (full-prefix) sharding each
//     shard observes exactly the sequential run's events over its span,
//     so the sums equal the sequential counters bit for bit.
//   - FE statistics are never reset at the warmup boundary (they span the
//     whole feed), so the last shard — whose feed is the full prefix plus
//     the final span, i.e. the whole trace — carries the sequential run's
//     FE stats verbatim. Merge takes them from it, not a sum.
//   - Timing — Cycles, StallCycles, and therefore UIPC — is exact under
//     exact sharding: each shard reports delta-of-clock over its span
//     against the sequential run's own clock (the reset sits at the
//     same warmup boundary, and offsets accumulate rather than
//     re-resetting; see Config.MeasureOffsetInstrs), so the per-shard
//     deltas telescope to the sequential totals bit for bit. Under
//     approximate sharding each shard rounds instrs/width and
//     data-stall cycles from its own reset, so sums land within
//     tolerance of sequential, not exactly.
//
// UIPC is recomputed from the merged totals.
func MergeShardResults(shards []Result) (Result, error) {
	if len(shards) == 0 {
		return Result{}, fmt.Errorf("sim: no shard results to merge")
	}
	m := shards[len(shards)-1] // Workload, Prefetcher, FE (whole-trace feed)
	m.Instructions, m.Cycles, m.UIPC = 0, 0, 0
	m.CorrectAccesses, m.CorrectMisses, m.CoveredMisses = 0, 0, 0
	m.StallCycles, m.PrefetchesIssued = 0, 0
	m.L1 = cache.Stats{}
	for _, r := range shards {
		if r.Workload != m.Workload || r.Prefetcher != m.Prefetcher {
			return Result{}, fmt.Errorf("sim: merging shard results from different runs (%s/%s vs %s/%s)",
				r.Workload, r.Prefetcher, m.Workload, m.Prefetcher)
		}
		m.Instructions += r.Instructions
		m.Cycles += r.Cycles
		m.StallCycles += r.StallCycles
		m.CorrectAccesses += r.CorrectAccesses
		m.CorrectMisses += r.CorrectMisses
		m.CoveredMisses += r.CoveredMisses
		m.PrefetchesIssued += r.PrefetchesIssued
		m.L1.Add(r.L1)
	}
	if m.Cycles > 0 {
		m.UIPC = float64(m.Instructions) / float64(m.Cycles)
	}
	return m, nil
}
