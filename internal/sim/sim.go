// Package sim is the trace-driven timing and coverage simulator: it drives
// a workload's retire-order stream through the front-end model, the L1-I
// cache, and a pluggable prefetcher, and accounts fetch-stall cycles to
// produce the UIPC-proportional throughput metric of the paper's
// performance comparison (Figure 10 right) and the miss-coverage metric of
// the competitive comparison (Figure 10 left).
//
// The timing model charges each retired instruction 1/width cycles plus the
// exposed latency of correct-path instruction fetch misses (L2 hit or
// memory fill, reduced by prefetch timeliness), which is the first-order
// bottleneck the paper attacks; see DESIGN.md §4 for the substitution
// rationale.
package sim

import (
	"context"

	"repro/internal/blocktab"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/frontend"
	"repro/internal/isa"
	"repro/internal/prefetch"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config parameterizes one simulation run.
type Config struct {
	// System is the Table I machine description.
	System config.System
	// PerfectL1 makes every fetch complete with hit latency (the paper's
	// perfect-latency cache upper bound); the cache and prefetcher still
	// operate normally so externally observable behavior matches.
	PerfectL1 bool
	// WarmupInstrs executes before statistics are reset (checkpoint
	// warming in the paper's methodology).
	WarmupInstrs uint64
	// MeasureOffsetInstrs executes after the warmup reset but before the
	// measured interval, with statistics accumulating: the run snapshots
	// its counters after the offset and reports the measured interval as
	// deltas against that snapshot. Because the reset still happens at
	// the warmup boundary — the same point as an offset-free run — the
	// simulator's clock and state at every instruction are byte-identical
	// to the sequential run's, which is what lets sharded replay
	// (SplitReplay exact mode) reconstruct the sequential counters
	// exactly, timing included. Zero for ordinary runs.
	MeasureOffsetInstrs uint64
	// MeasureInstrs is the measured instruction count.
	MeasureInstrs uint64
}

// DefaultConfig returns a laptop-scale analog of the paper's methodology:
// warmed structures, then a measured interval.
func DefaultConfig() Config {
	return Config{
		System:        config.Default(),
		WarmupInstrs:  2_000_000,
		MeasureInstrs: 2_000_000,
	}
}

// Result is the outcome of one run. The JSON field names are stable
// snake_case: raw per-job results are persisted schema-versioned by the
// results store (internal/report, results/<run-id>/jobs/<key>.json) and
// diffed across commits, so renaming a field is a schema change.
type Result struct {
	Workload   string `json:"workload"`
	Prefetcher string `json:"prefetcher"`

	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
	// UIPC is user instructions committed per cycle (the paper's
	// throughput metric).
	UIPC float64 `json:"uipc"`

	L1 cache.Stats    `json:"l1"`
	FE frontend.Stats `json:"fe"`

	// Correct-path demand fetch accounting (wrong-path excluded).
	CorrectAccesses uint64 `json:"correct_accesses"`
	CorrectMisses   uint64 `json:"correct_misses"`
	CoveredMisses   uint64 `json:"covered_misses"` // demand hits on prefetched lines
	// StallCycles is the exposed fetch latency.
	StallCycles uint64 `json:"stall_cycles"`
	// PrefetchesIssued counts issuer fills.
	PrefetchesIssued uint64 `json:"prefetches_issued"`
}

// Coverage returns the fraction of would-be misses eliminated by
// prefetching: covered / (covered + residual misses).
func (r Result) Coverage() float64 {
	denom := r.CoveredMisses + r.CorrectMisses
	if denom == 0 {
		return 0
	}
	return float64(r.CoveredMisses) / float64(denom)
}

// MissRatio returns correct-path misses per correct-path access.
func (r Result) MissRatio() float64 {
	if r.CorrectAccesses == 0 {
		return 0
	}
	return float64(r.CorrectMisses) / float64(r.CorrectAccesses)
}

// Simulator couples the models for one run.
type Simulator struct {
	cfg Config
	l1  *cache.Cache
	fe  *frontend.Frontend
	pf  prefetch.Prefetcher

	instrs     uint64
	stall      uint64
	everFilled blocktab.Table[struct{}] // L2-resident approximation
	readyAt    blocktab.Table[uint64]   // in-flight prefetch completion times
	polluter   *cache.Polluter

	correctAccesses uint64
	correctMisses   uint64
	coveredMisses   uint64
	prefIssued      uint64

	lastTagged bool

	// iss and accessFn are the issuer interface value and the access
	// callback, boxed once at construction: handing issuer{s} or s.access
	// to an interface/func parameter at every event would allocate on the
	// hot path (two escapes per retired instruction), which the
	// steady-state alloc benchmarks in bench_test.go pin at zero.
	iss      prefetch.Issuer
	accessFn func(frontend.Access)
}

// New builds a simulator; it panics on invalid system configuration.
func New(cfg Config, pf prefetch.Prefetcher, feSeed int64) *Simulator {
	if err := cfg.System.Validate(); err != nil {
		panic(err)
	}
	s := &Simulator{
		cfg:        cfg,
		l1:         cache.New(cfg.System.L1I()),
		fe:         frontend.New(cfg.System.Frontend(feSeed)),
		pf:         pf,
		lastTagged: true,
		polluter: cache.NewPolluter(
			cfg.System.CtxSwitchEveryInstrs, cfg.System.CtxSwitchBlocks, feSeed^0x706f6c),
	}
	s.iss = issuer{s}
	s.accessFn = s.access
	return s
}

// now returns the current cycle count: issue cycles at the machine width,
// plus modeled data-side stalls, plus exposed instruction-fetch stalls.
func (s *Simulator) now() uint64 {
	base := s.instrs / uint64(s.cfg.System.FetchWidth)
	data := uint64(float64(s.instrs) * s.cfg.System.DataStallCPI)
	return base + data + s.stall
}

// fillLatency returns the fill time for block b: L2 hit for previously
// touched blocks (the multi-megabyte working set is L2 resident), memory
// for cold blocks.
func (s *Simulator) fillLatency(b isa.Block) uint64 {
	if s.everFilled.Has(b) {
		return uint64(s.cfg.System.L2HitCycles)
	}
	return uint64(s.cfg.System.MemCycles())
}

// issuer is the prefetch.Issuer the simulator hands to prefetchers.
type issuer struct{ s *Simulator }

// Evictions implements prefetch.Issuer with the L1-I's departure count.
func (i issuer) Evictions() uint64 { return i.s.l1.Evictions() }

// Prefetch implements prefetch.Issuer: an absent block is installed
// immediately (behavioral) with a completion time used to charge partial
// stalls when demand arrives before the fill; a resident block is left
// alone.
func (i issuer) Prefetch(b isa.Block) {
	s := i.s
	if s.l1.Contains(b) {
		return
	}
	lat := s.fillLatency(b)
	s.l1.Fill(b, true)
	s.everFilled.Put(b, struct{}{})
	s.readyAt.Put(b, s.now()+lat)
	s.prefIssued++
}

// access processes one front-end access.
func (s *Simulator) access(a frontend.Access) {
	hit, wasPrefetched := s.l1.Access(a.Block)

	if !a.WrongPath {
		s.correctAccesses++
		if hit && wasPrefetched {
			s.coveredMisses++
		}
		if !hit {
			s.correctMisses++
		}
		s.lastTagged = !(hit && wasPrefetched)
	}

	// Timing: exposed latency on correct-path fetches only (wrong-path
	// fills overlap with recovery).
	if !s.cfg.PerfectL1 && !a.WrongPath {
		if !hit {
			s.stall += s.fillLatency(a.Block)
		} else if wasPrefetched {
			if ready, ok := s.readyAt.Get(a.Block); ok {
				if now := s.now(); ready > now {
					s.stall += ready - now // prefetch in flight: partial stall
				}
			}
		}
	}
	// Only a hit on a prefetched line reads its completion time, and only
	// issuer.Prefetch sets the prefetched bit, writing a fresh time as it
	// does. An entry a plain hit leaves behind is overwritten before
	// anything reads it, so a plain hit need not delete it.
	if hit && wasPrefetched {
		s.readyAt.Delete(a.Block)
	}

	if !hit {
		s.l1.Fill(a.Block, false)
		s.everFilled.Put(a.Block, struct{}{})
		s.readyAt.Delete(a.Block)
	}

	s.pf.OnAccess(prefetch.AccessEvent{
		Block:         a.Block,
		TL:            a.TL,
		WrongPath:     a.WrongPath,
		Hit:           hit,
		WasPrefetched: wasPrefetched,
	}, s.iss)
}

// StepBatch consumes a batch of retired instructions in retire order, one
// same-block run at a time (trace.BlockRun). A run's first record takes
// the full step. Its continuations emit no L1-I access and resolve no
// branch, and every engine ignores them (prefetch.Prefetcher.OnRetire),
// so the whole tail costs one front-end Feed of its last record — which
// leaves the predecessor where one Feed per record would — plus the
// instruction count and the polluter's ticks. The Result is identical to
// stepping every record; a run cut by the batch boundary only costs
// speed.
func (s *Simulator) StepBatch(rs []trace.Record) {
	for i := 0; i < len(rs); {
		s.step(rs[i])
		k := trace.BlockRun(rs[i:])
		if k > 0 {
			i += k
			s.fe.Feed(rs[i], s.accessFn)
			s.instrs += uint64(k)
			s.polluter.TickN(s.l1, k)
		}
		i++
	}
}

// step consumes one retired instruction.
func (s *Simulator) step(r trace.Record) {
	s.fe.Feed(r, s.accessFn)
	s.pf.OnRetire(r, s.lastTagged, s.iss)
	s.instrs++
	s.polluter.Tick(s.l1)
}

// resetStats clears measurement state after warmup. The prefetch
// completion times are keyed to the cycle counter, so in-flight prefetches
// are considered complete at the measurement boundary.
func (s *Simulator) resetStats() {
	s.l1.ResetStats()
	s.readyAt.Clear()
	s.instrs = 0
	s.stall = 0
	s.correctAccesses = 0
	s.correctMisses = 0
	s.coveredMisses = 0
	s.prefIssued = 0
}

// result snapshots the measured interval.
func (s *Simulator) result(workload string) Result {
	r := Result{
		Workload:         workload,
		Prefetcher:       s.pf.Name(),
		Instructions:     s.instrs,
		Cycles:           s.now(),
		L1:               s.l1.Stats(),
		FE:               s.fe.Stats(),
		CorrectAccesses:  s.correctAccesses,
		CorrectMisses:    s.correctMisses,
		CoveredMisses:    s.coveredMisses,
		StallCycles:      s.stall,
		PrefetchesIssued: s.prefIssued,
	}
	if r.Cycles > 0 {
		r.UIPC = float64(r.Instructions) / float64(r.Cycles)
	}
	return r
}

// deltaFrom subtracts an earlier snapshot of the same run from r,
// leaving the counters of the interval between the two snapshot points
// (Config.MeasureOffsetInstrs support). Every subtracted field is a
// monotone counter since the warmup reset, so the difference is exact.
// FE statistics are whole-feed by convention — never reset at the
// warmup boundary — so they pass through untouched; UIPC is recomputed
// over the interval.
func (r Result) deltaFrom(prev Result) Result {
	r.Instructions -= prev.Instructions
	r.Cycles -= prev.Cycles
	r.StallCycles -= prev.StallCycles
	r.CorrectAccesses -= prev.CorrectAccesses
	r.CorrectMisses -= prev.CorrectMisses
	r.CoveredMisses -= prev.CoveredMisses
	r.PrefetchesIssued -= prev.PrefetchesIssued
	r.L1.Sub(prev.L1)
	r.UIPC = 0
	if r.Cycles > 0 {
		r.UIPC = float64(r.Instructions) / float64(r.Cycles)
	}
	return r
}

// Run executes the full methodology for one workload/prefetcher pair:
// build program, warm up, measure. It is a serial convenience over
// RunWith; the engine instance pf must not be shared with concurrent
// runs.
func Run(cfg Config, wl workload.Profile, pf prefetch.Prefetcher) (Result, error) {
	return RunWith(context.Background(), Job{Config: cfg, Workload: wl}, pf)
}
