// Package workload generates the synthetic server workloads that stand in
// for the paper's commercial benchmark suite (Table I: OLTP on DB2 and
// Oracle, TPC-H DSS queries 2 and 17, and SPECweb99 on Apache and Zeus).
//
// A Profile parameterizes a randomly constructed but deterministic program
// image (function call graph, loop nests, conditional skip branches, a
// shared-library region, and trap-handler code) and an Executor walks that
// image, emitting the exact correct-path retire-order instruction stream —
// the stream the paper identifies as the right prefetcher training input.
// Spontaneous interrupts switch execution to trap-level-1 handler code at
// Poisson-distributed points, reproducing the stream fragmentation of
// Section 2.3.
//
// The profiles differ in instruction footprint, call-graph shape, loop
// behaviour, branch entropy, and interrupt rate so that the six workloads
// reproduce the relative figure shapes of the paper: Web workloads suffer
// the most cache filtering, OLTP the most wrong-path noise, and DSS the
// least of both (small hot loops).
package workload

import (
	"fmt"
	"math"
)

// Profile describes one synthetic workload.
type Profile struct {
	// Name labels the workload in tables ("OLTP DB2", ...).
	Name string
	// Suite groups workloads ("OLTP", "DSS", "Web").
	Suite string
	// Seed fixes both program construction and execution randomness.
	Seed int64

	// Funcs is the number of application functions.
	Funcs int
	// FuncBlocksMin/Max bound function sizes in instruction blocks.
	FuncBlocksMin, FuncBlocksMax int
	// SharedFuncs is the number of shared-library functions, which every
	// application function may call (models libc/OS hot paths).
	SharedFuncs int
	// TxTypes is the number of distinct top-level transaction types; each
	// execution repeatedly dispatches one according to TxSkew.
	TxTypes int
	// TxSkew in (0,1]: probability mass of the hottest transaction type
	// relative to a uniform mix (1 = uniform; smaller = more skewed mix,
	// which raises cross-transaction cache interference).
	TxSkew float64
	// TxVariants is the number of distinct path variants per transaction:
	// polymorphic call sites resolve deterministically per variant, so
	// control flow is repetitive within a variant and varies across them.
	TxVariants int

	// CallFanout is the number of static call targets at a polymorphic
	// call site (indirect calls, dispatch tables).
	CallFanout int
	// MonoCallFrac is the fraction of call sites that are monomorphic
	// (direct calls with a single target) — the common case in compiled
	// server code; the rest dispatch among CallFanout targets.
	MonoCallFrac float64
	// CallSitesPerFunc is the expected number of call sites in a function.
	CallSitesPerFunc float64
	// SharedCallBias in [0,1] is the probability a call site targets the
	// shared-library region instead of an application function.
	SharedCallBias float64
	// MaxCallDepth bounds dynamic call nesting.
	MaxCallDepth int

	// LoopsPerFunc is the expected number of loops per function.
	LoopsPerFunc float64
	// LoopBodyBlocksMax bounds loop body footprint in blocks.
	LoopBodyBlocksMax int
	// LoopIterMin/Max bound the data-dependent iteration count.
	LoopIterMin, LoopIterMax int

	// CondSkipsPerFunc is the expected number of conditional forward-skip
	// branches per function (e.g. rarely-taken error handling).
	CondSkipsPerFunc float64
	// SkipTakenProb is the per-visit probability a skip branch is taken;
	// values near 0.5 maximize branch-predictor noise.
	SkipTakenProb float64
	// SkipBlocksMax bounds the number of blocks a taken skip jumps over.
	SkipBlocksMax int

	// InterruptEvery is the mean number of retired instructions between
	// spontaneous hardware interrupts (0 disables interrupts).
	InterruptEvery int
	// HandlerFuncs is the number of distinct trap-handler functions.
	HandlerFuncs int
	// HandlerBlocksMax bounds handler size in blocks.
	HandlerBlocksMax int
}

// Validate rejects inconsistent profiles. Every float field must be
// finite: a NaN would pass the range checks below, and it would make the
// profile unequal to itself, so no cache keyed by it could find it again.
func (p Profile) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"TxSkew", p.TxSkew}, {"MonoCallFrac", p.MonoCallFrac},
		{"CallSitesPerFunc", p.CallSitesPerFunc}, {"SharedCallBias", p.SharedCallBias},
		{"LoopsPerFunc", p.LoopsPerFunc}, {"CondSkipsPerFunc", p.CondSkipsPerFunc},
		{"SkipTakenProb", p.SkipTakenProb},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("workload %s: %s = %v is not finite", p.Name, f.name, f.v)
		}
	}
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: empty name")
	case p.Funcs <= 0:
		return fmt.Errorf("workload %s: Funcs = %d", p.Name, p.Funcs)
	case p.FuncBlocksMin <= 0 || p.FuncBlocksMax < p.FuncBlocksMin:
		return fmt.Errorf("workload %s: bad function size range [%d,%d]", p.Name, p.FuncBlocksMin, p.FuncBlocksMax)
	case p.TxTypes <= 0 || p.TxTypes > p.Funcs:
		return fmt.Errorf("workload %s: TxTypes = %d with %d funcs", p.Name, p.TxTypes, p.Funcs)
	case p.TxSkew <= 0 || p.TxSkew > 1:
		return fmt.Errorf("workload %s: TxSkew = %f out of (0,1]", p.Name, p.TxSkew)
	case p.TxVariants < 1:
		return fmt.Errorf("workload %s: TxVariants = %d", p.Name, p.TxVariants)
	case p.CallFanout <= 0:
		return fmt.Errorf("workload %s: CallFanout = %d", p.Name, p.CallFanout)
	case p.MonoCallFrac < 0 || p.MonoCallFrac > 1:
		return fmt.Errorf("workload %s: MonoCallFrac = %f", p.Name, p.MonoCallFrac)
	case p.MaxCallDepth <= 0:
		return fmt.Errorf("workload %s: MaxCallDepth = %d", p.Name, p.MaxCallDepth)
	case p.LoopIterMin < 1 || p.LoopIterMax < p.LoopIterMin:
		return fmt.Errorf("workload %s: bad loop iteration range [%d,%d]", p.Name, p.LoopIterMin, p.LoopIterMax)
	case p.SkipTakenProb < 0 || p.SkipTakenProb > 1:
		return fmt.Errorf("workload %s: SkipTakenProb = %f", p.Name, p.SkipTakenProb)
	case p.InterruptEvery < 0:
		return fmt.Errorf("workload %s: InterruptEvery = %d", p.Name, p.InterruptEvery)
	case p.InterruptEvery > 0 && (p.HandlerFuncs <= 0 || p.HandlerBlocksMax <= 0):
		return fmt.Errorf("workload %s: interrupts enabled but no handlers", p.Name)
	}
	return nil
}

// The six standard workloads. Footprints are scaled to laptop-runnable
// sizes while remaining several multiples of the 64KB L1-I (the property
// the paper needs: instruction working sets far exceeding L1 capacity).
//
// OLTP: big footprints, deep call chains through shared code, frequent
// interrupts, noisy data-dependent branches (transaction logic).
// DSS: scan/join loops — smaller hot code, long tight loops, few interrupts.
// Web: very many small request-handler functions with a skewed dispatch
// mix — maximal cache-replacement fragmentation.

// OLTPDB2 models TPC-C on IBM DB2.
func OLTPDB2() Profile {
	return Profile{
		Name: "OLTP DB2", Suite: "OLTP", Seed: 101,
		Funcs: 6000, FuncBlocksMin: 1, FuncBlocksMax: 8,
		SharedFuncs: 130, TxTypes: 5, TxSkew: 0.45, TxVariants: 6,
		CallFanout: 5, MonoCallFrac: 0.78, CallSitesPerFunc: 2.1, SharedCallBias: 0.32, MaxCallDepth: 6,
		LoopsPerFunc: 0.5, LoopBodyBlocksMax: 4, LoopIterMin: 2, LoopIterMax: 12,
		CondSkipsPerFunc: 1.7, SkipTakenProb: 0.34, SkipBlocksMax: 3,
		InterruptEvery: 9000, HandlerFuncs: 10, HandlerBlocksMax: 7,
	}
}

// OLTPOracle models TPC-C on Oracle; deeper call chains and noisier
// branches than DB2 (the paper observes the largest wrong-path loss here).
func OLTPOracle() Profile {
	return Profile{
		Name: "OLTP Oracle", Suite: "OLTP", Seed: 102,
		Funcs: 7000, FuncBlocksMin: 1, FuncBlocksMax: 7,
		SharedFuncs: 140, TxTypes: 5, TxSkew: 0.5, TxVariants: 7,
		CallFanout: 6, MonoCallFrac: 0.72, CallSitesPerFunc: 2.2, SharedCallBias: 0.3, MaxCallDepth: 6,
		LoopsPerFunc: 0.45, LoopBodyBlocksMax: 4, LoopIterMin: 2, LoopIterMax: 10,
		CondSkipsPerFunc: 2.0, SkipTakenProb: 0.30, SkipBlocksMax: 3,
		InterruptEvery: 8000, HandlerFuncs: 12, HandlerBlocksMax: 8,
	}
}

// DSSQry2 models TPC-H query 2 on DB2: loop-dominated scan code.
func DSSQry2() Profile {
	return Profile{
		Name: "DSS Qry2", Suite: "DSS", Seed: 103,
		Funcs: 2600, FuncBlocksMin: 2, FuncBlocksMax: 12,
		SharedFuncs: 100, TxTypes: 4, TxSkew: 0.8, TxVariants: 4,
		CallFanout: 4, MonoCallFrac: 0.88, CallSitesPerFunc: 2.2, SharedCallBias: 0.25, MaxCallDepth: 5,
		LoopsPerFunc: 0.9, LoopBodyBlocksMax: 6, LoopIterMin: 3, LoopIterMax: 16,
		CondSkipsPerFunc: 1.0, SkipTakenProb: 0.2, SkipBlocksMax: 2,
		InterruptEvery: 20000, HandlerFuncs: 8, HandlerBlocksMax: 6,
	}
}

// DSSQry17 models TPC-H query 17: like Qry2 with a different join kernel
// (longer loops over a slightly larger footprint).
func DSSQry17() Profile {
	return Profile{
		Name: "DSS Qry17", Suite: "DSS", Seed: 104,
		Funcs: 3000, FuncBlocksMin: 2, FuncBlocksMax: 11,
		SharedFuncs: 110, TxTypes: 4, TxSkew: 0.7, TxVariants: 4,
		CallFanout: 4, MonoCallFrac: 0.85, CallSitesPerFunc: 2.2, SharedCallBias: 0.25, MaxCallDepth: 5,
		LoopsPerFunc: 0.9, LoopBodyBlocksMax: 7, LoopIterMin: 4, LoopIterMax: 24,
		CondSkipsPerFunc: 1.1, SkipTakenProb: 0.22, SkipBlocksMax: 2,
		InterruptEvery: 22000, HandlerFuncs: 8, HandlerBlocksMax: 6,
	}
}

// WebApache models SPECweb99 on Apache: many small handlers, skewed URL
// mix, heavy OS interaction.
func WebApache() Profile {
	return Profile{
		Name: "Web Apache", Suite: "Web", Seed: 105,
		Funcs: 8000, FuncBlocksMin: 1, FuncBlocksMax: 5,
		SharedFuncs: 150, TxTypes: 8, TxSkew: 0.35, TxVariants: 8,
		CallFanout: 7, MonoCallFrac: 0.70, CallSitesPerFunc: 2.0, SharedCallBias: 0.38, MaxCallDepth: 6,
		LoopsPerFunc: 0.35, LoopBodyBlocksMax: 3, LoopIterMin: 2, LoopIterMax: 8,
		CondSkipsPerFunc: 1.5, SkipTakenProb: 0.3, SkipBlocksMax: 3,
		InterruptEvery: 6000, HandlerFuncs: 14, HandlerBlocksMax: 8,
	}
}

// WebZeus models SPECweb99 on Zeus: like Apache with an event-driven
// (rather than worker-thread) dispatch shape — fewer but hotter handlers.
func WebZeus() Profile {
	return Profile{
		Name: "Web Zeus", Suite: "Web", Seed: 106,
		Funcs: 7000, FuncBlocksMin: 1, FuncBlocksMax: 6,
		SharedFuncs: 140, TxTypes: 7, TxSkew: 0.4, TxVariants: 8,
		CallFanout: 6, MonoCallFrac: 0.74, CallSitesPerFunc: 2.0, SharedCallBias: 0.36, MaxCallDepth: 6,
		LoopsPerFunc: 0.4, LoopBodyBlocksMax: 3, LoopIterMin: 2, LoopIterMax: 9,
		CondSkipsPerFunc: 1.4, SkipTakenProb: 0.28, SkipBlocksMax: 3,
		InterruptEvery: 6500, HandlerFuncs: 12, HandlerBlocksMax: 8,
	}
}

// StandardSuite returns the six workloads in the paper's presentation order.
func StandardSuite() []Profile {
	return []Profile{
		OLTPDB2(), OLTPOracle(),
		DSSQry2(), DSSQry17(),
		WebApache(), WebZeus(),
	}
}

// The XL suite: two synthetic profiles with instruction footprints at
// least 4x the largest of the standard six (several megabytes against a
// 64KB L1-I), sized for the MANA-style design-space sweeps — history
// budgets and cache geometries that look saturated under the standard
// footprints keep differentiating when the working set grows by another
// factor of four.

// OLTPXL models a consolidated OLTP install (many schemas and stored
// procedures resident in one server image): the DB2 shape scaled to a
// ~7MB footprint with a broader transaction mix.
func OLTPXL() Profile {
	return Profile{
		Name: "OLTP XL", Suite: "OLTP", Seed: 107,
		Funcs: 26000, FuncBlocksMin: 1, FuncBlocksMax: 8,
		SharedFuncs: 260, TxTypes: 9, TxSkew: 0.45, TxVariants: 8,
		CallFanout: 5, MonoCallFrac: 0.78, CallSitesPerFunc: 2.1, SharedCallBias: 0.32, MaxCallDepth: 6,
		LoopsPerFunc: 0.5, LoopBodyBlocksMax: 4, LoopIterMin: 2, LoopIterMax: 12,
		CondSkipsPerFunc: 1.7, SkipTakenProb: 0.34, SkipBlocksMax: 3,
		InterruptEvery: 9000, HandlerFuncs: 14, HandlerBlocksMax: 7,
	}
}

// WebXL models a large consolidated web tier (one image serving many
// virtual hosts): the Apache shape scaled to a ~7MB footprint of very many
// small handlers with a long-tailed URL mix.
func WebXL() Profile {
	return Profile{
		Name: "Web XL", Suite: "Web", Seed: 108,
		Funcs: 40000, FuncBlocksMin: 1, FuncBlocksMax: 5,
		SharedFuncs: 300, TxTypes: 12, TxSkew: 0.35, TxVariants: 10,
		CallFanout: 7, MonoCallFrac: 0.70, CallSitesPerFunc: 2.0, SharedCallBias: 0.38, MaxCallDepth: 6,
		LoopsPerFunc: 0.35, LoopBodyBlocksMax: 3, LoopIterMin: 2, LoopIterMax: 8,
		CondSkipsPerFunc: 1.5, SkipTakenProb: 0.3, SkipBlocksMax: 3,
		InterruptEvery: 6000, HandlerFuncs: 18, HandlerBlocksMax: 8,
	}
}

// XLSuite returns the extended-footprint workloads exercised by the
// design-space sweep artifacts (sweep-history, sweep-l1).
func XLSuite() []Profile {
	return []Profile{OLTPXL(), WebXL()}
}

// ByName returns the standard or XL profile with the given name.
func ByName(name string) (Profile, error) {
	for _, p := range append(StandardSuite(), XLSuite()...) {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown profile %q", name)
}
