// Package config centralizes the simulated system parameters of the
// paper's Table I and converts them into the component configurations used
// across the repository. Experiments that sweep a parameter start from
// Default() and override one field, so every deviation from the paper's
// setup is explicit at the call site.
package config

import (
	"fmt"
	"strings"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/frontend"
	"repro/internal/isa"
)

// System mirrors Table I (left): the processing node, I-fetch unit, cache
// hierarchy, and memory parameters. Only the fields that affect this
// repository's models are represented; purely descriptive entries (mesh
// topology, coherence unit) are retained as documentation fields.
type System struct {
	// Cores is the CMP core count (16 in the paper). The timing model is
	// per-core; Cores documents the system the workloads represent.
	Cores int
	// ClockGHz is the core clock (2 GHz).
	ClockGHz float64
	// FetchWidth is dispatch/retirement width (3-wide).
	FetchWidth int
	// ROBEntries is the reorder buffer size (96).
	ROBEntries int
	// LSQEntries is the load/store queue size (64).
	LSQEntries int

	// L1ISizeBytes, L1IAssoc, BlockBytes: 64KB, 2-way, 64B blocks.
	L1ISizeBytes int
	L1IAssoc     int
	BlockBytes   int
	// L1ILoadToUse is the L1-I hit latency in cycles (2).
	L1ILoadToUse int
	// L1IMSHRs bounds outstanding instruction fills (32; 0 means
	// unlimited). Table I documentation only: prefetch fills are
	// behavioral (DESIGN.md §4), so no model consumes it.
	L1IMSHRs int

	// L2SizeBytesPerCore, L2Assoc, L2HitCycles: 512KB/core, 16-way, 15.
	L2SizeBytesPerCore int
	L2Assoc            int
	L2HitCycles        int

	// MemAccessNanos is main memory latency (45 ns → 90 cycles at 2 GHz).
	MemAccessNanos float64

	// Branch predictor (hybrid 16K gShare + 16K bimodal).
	Predictor bpred.Config
	// MaxWrongPathBlocks bounds wrong-path fetch per misprediction.
	MaxWrongPathBlocks int
	// DataStallCPI is the average non-fetch stall per instruction
	// (data-cache misses, dependency chains, resource stalls). It dilutes
	// instruction-fetch stalls so their share of execution time matches
	// the paper's server-workload characterization (~40%).
	DataStallCPI float64
	// CtxSwitchEveryInstrs is the mean interval between context-switch
	// events that pollute the L1-I with another thread's footprint
	// (OS scheduling, kernel daemons — the full-system randomness the
	// paper's traces contain). 0 disables pollution.
	CtxSwitchEveryInstrs int
	// CtxSwitchBlocks is the number of foreign blocks filled per event.
	CtxSwitchBlocks int
}

// Default returns the paper's Table I configuration.
func Default() System {
	return System{
		Cores:                16,
		ClockGHz:             2.0,
		FetchWidth:           3,
		ROBEntries:           96,
		LSQEntries:           64,
		L1ISizeBytes:         64 << 10,
		L1IAssoc:             2,
		BlockBytes:           64,
		L1ILoadToUse:         2,
		L1IMSHRs:             32,
		L2SizeBytesPerCore:   512 << 10,
		L2Assoc:              16,
		L2HitCycles:          15,
		MemAccessNanos:       45,
		Predictor:            bpred.DefaultConfig(),
		MaxWrongPathBlocks:   6,
		DataStallCPI:         0.3,
		CtxSwitchEveryInstrs: 40_000,
		CtxSwitchBlocks:      320,
	}
}

// MemCycles converts the memory latency to core cycles.
func (s System) MemCycles() int {
	return int(s.MemAccessNanos * s.ClockGHz)
}

// L1I returns the L1 instruction cache geometry.
func (s System) L1I() cache.Config {
	return cache.Config{
		SizeBytes:  s.L1ISizeBytes,
		Assoc:      s.L1IAssoc,
		BlockBytes: s.BlockBytes,
	}
}

// Frontend returns the fetch-engine model configuration.
func (s System) Frontend(seed int64) frontend.Config {
	return frontend.Config{
		Predictor:          s.Predictor,
		MaxWrongPathBlocks: s.MaxWrongPathBlocks,
		Seed:               seed,
	}
}

// Validate checks the composite configuration.
func (s System) Validate() error {
	if err := s.L1I().Validate(); err != nil {
		return err
	}
	// The whole pipeline converts PCs to blocks with isa.BlockShift, so a
	// cache model with any other line size would silently mis-index.
	if s.BlockBytes != isa.BlockBytes {
		return fmt.Errorf("config: BlockBytes = %d, model requires %d (isa.BlockBytes)", s.BlockBytes, isa.BlockBytes)
	}
	if err := s.Predictor.Validate(); err != nil {
		return err
	}
	if s.L1IMSHRs < 0 {
		return fmt.Errorf("config: L1IMSHRs = %d", s.L1IMSHRs)
	}
	if s.FetchWidth <= 0 {
		return fmt.Errorf("config: FetchWidth = %d", s.FetchWidth)
	}
	if s.L2HitCycles <= 0 || s.MemCycles() <= s.L2HitCycles {
		return fmt.Errorf("config: latencies inverted (L2 %d, mem %d)", s.L2HitCycles, s.MemCycles())
	}
	if s.MaxWrongPathBlocks <= 0 {
		return fmt.Errorf("config: MaxWrongPathBlocks = %d", s.MaxWrongPathBlocks)
	}
	if s.DataStallCPI < 0 {
		return fmt.Errorf("config: DataStallCPI = %f", s.DataStallCPI)
	}
	if s.CtxSwitchEveryInstrs < 0 || s.CtxSwitchBlocks < 0 {
		return fmt.Errorf("config: context switch parameters negative")
	}
	return nil
}

// TableI renders the configuration in the shape of the paper's Table I.
func (s System) TableI() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I. System parameters\n")
	fmt.Fprintf(&b, "  Processing Nodes   %d x %.1f GHz OoO cores, %d-wide dispatch/retire\n",
		s.Cores, s.ClockGHz, s.FetchWidth)
	fmt.Fprintf(&b, "                     %d-entry ROB, %d-entry LSQ\n", s.ROBEntries, s.LSQEntries)
	fmt.Fprintf(&b, "  I-Fetch Unit       %dKB %d-way L1-I, %dB blocks, %d-cycle load-to-use, %d MSHRs\n",
		s.L1ISizeBytes>>10, s.L1IAssoc, s.BlockBytes, s.L1ILoadToUse, s.L1IMSHRs)
	fmt.Fprintf(&b, "                     hybrid branch predictor (%dK gShare + %dK bimodal)\n",
		s.Predictor.GShareEntries>>10, s.Predictor.BimodalEntries>>10)
	fmt.Fprintf(&b, "  L2 NUCA Cache      %dKB per core, %d-way, %d-cycle hit latency\n",
		s.L2SizeBytesPerCore>>10, s.L2Assoc, s.L2HitCycles)
	fmt.Fprintf(&b, "  Main Memory        %.0f ns access latency (%d cycles)\n",
		s.MemAccessNanos, s.MemCycles())
	return b.String()
}
