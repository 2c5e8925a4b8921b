// Package prefetch defines the prefetcher interface shared by all engines
// in the repository and implements the paper's comparison baselines: the
// aggressive next-line prefetcher and TIFS (Temporal Instruction Fetch
// Streaming), which records and replays the L1-I *miss* stream. TIFS runs
// on Temporal, the record-and-replay kernel it shares with the Section 2
// predictor of Figures 2 and 7 (internal/experiments).
//
// Proactive Instruction Fetch itself lives in internal/core and implements
// the same interface; the perfect-L1 upper bound is handled by the timing
// simulator (it is a property of the cache, not a prefetch engine).
package prefetch

import (
	"repro/internal/isa"
	"repro/internal/trace"
)

// AccessEvent describes one L1-I demand probe observed by a prefetcher.
type AccessEvent struct {
	// Block is the probed instruction block.
	Block isa.Block
	// TL is the trap level of the fetch.
	TL isa.TrapLevel
	// WrongPath marks accesses later squashed by misprediction recovery.
	WrongPath bool
	// Hit reports whether the probe hit in the L1-I.
	Hit bool
	// WasPrefetched reports whether the hit line had been brought in by a
	// prefetch and not yet demanded.
	WasPrefetched bool
}

// Prefetched reports whether the fetch was served by a prefetch — the
// complement of the paper's "tagged" (not explicitly prefetched) property.
func (e AccessEvent) Prefetched() bool { return e.Hit && e.WasPrefetched }

// Issuer is the channel through which prefetchers inject blocks into the
// L1-I. Implementations (the simulator) model fill latency and pollution.
type Issuer interface {
	// Prefetch makes b resident: it queues a prefetch fill when b is
	// absent and does nothing when b is resident, so engines call it
	// without probing first.
	Prefetch(b isa.Block)
	// Evictions returns a count of the lines that have left the cache.
	// After Prefetch(b), b is resident; while the count is unchanged, no
	// resident line has left. An engine may therefore skip re-issuing
	// blocks it issued after reading an unchanged count. An issuer that
	// cannot promise this returns a new value on every call.
	Evictions() uint64
}

// Prefetcher is a pluggable instruction prefetch engine.
type Prefetcher interface {
	// Name labels the engine in result tables.
	Name() string
	// OnAccess observes a front-end demand probe and may issue prefetches.
	OnAccess(ev AccessEvent, iss Issuer)
	// OnRetire observes a retired instruction. tagged reports that the
	// instruction's fetch was not served by a prefetch (the paper's tag
	// bit carried down the pipeline).
	//
	// The simulator does not deliver continuations (trace.BlockRun): a
	// record in its predecessor's block and trap level that neither
	// follows a branch nor starts a call, return or trap. A block-grain
	// retire stream drops them, and every engine must ignore them: PIF
	// collapses same-block retirements per trap level, and the baselines
	// observe no retirement at all.
	OnRetire(r trace.Record, tagged bool, iss Issuer)
}

// None is the no-prefetch baseline.
type None struct{}

// Name implements Prefetcher.
func (None) Name() string { return "None" }

// OnAccess implements Prefetcher.
func (None) OnAccess(AccessEvent, Issuer) {}

// OnRetire implements Prefetcher.
func (None) OnRetire(trace.Record, bool, Issuer) {}

// NextLine is the aggressive next-line prefetcher [Smith 1978; Jouppi 1990]:
// on every demand access it prefetches the next Degree sequential blocks.
type NextLine struct {
	// Degree is the number of sequential successors fetched per access.
	Degree int
}

// NewNextLine returns a next-line prefetcher with the given degree
// (degree 4 matches the "aggressive" configuration of the evaluation).
func NewNextLine(degree int) *NextLine {
	if degree <= 0 {
		degree = 1
	}
	return &NextLine{Degree: degree}
}

// Name implements Prefetcher.
func (n *NextLine) Name() string { return "Next-Line" }

// OnAccess implements Prefetcher.
func (n *NextLine) OnAccess(ev AccessEvent, iss Issuer) {
	for i := 1; i <= n.Degree; i++ {
		iss.Prefetch(ev.Block.Add(i))
	}
}

// OnRetire implements Prefetcher.
func (n *NextLine) OnRetire(trace.Record, bool, Issuer) {}
