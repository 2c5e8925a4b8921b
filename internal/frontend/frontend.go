// Package frontend models the processor fetch engine: it replays the
// correct-path retire-order trace through the branch predictor and
// synthesizes the L1-I *access* stream, including the wrong-path noise the
// paper blames for corrupting access-stream-trained prefetchers
// (Section 2.2, Figure 1 right).
//
// For every conditional branch in the retire stream the predictor is
// consulted and trained. On a misprediction the fetch engine runs down the
// wrong path — sequential fall-through blocks when the branch was actually
// taken, or the stale BTB target when it was actually not taken — for a
// data-dependent number of blocks (the unpredictable misprediction
// resolution delay), then squashes and refetches the correct path.
package frontend

import (
	"math/rand"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/trace"
)

// Access is one L1-I access issued by the fetch engine.
type Access struct {
	// Block is the accessed instruction block.
	Block isa.Block
	// TL is the trap level of the fetch.
	TL isa.TrapLevel
	// WrongPath marks accesses later squashed by misprediction recovery.
	WrongPath bool
	// Transfer marks the first access of a new fetch group (the previous
	// group ended in a taken control transfer or a squash refetch).
	Transfer bool
}

// Config parameterizes the wrong-path model.
type Config struct {
	// Predictor sizes the branch predictor tables.
	Predictor bpred.Config
	// MaxWrongPathBlocks bounds the wrong-path fetch depth per
	// misprediction; the actual depth is data-dependent (uniform in
	// [1, MaxWrongPathBlocks]), modeling variable resolution latency.
	MaxWrongPathBlocks int
	// Seed drives the data-dependent resolution delays.
	Seed int64
}

// DefaultConfig matches the paper's Table I core (96-entry ROB, 3-wide):
// a handful of wrong-path blocks per misprediction.
func DefaultConfig() Config {
	return Config{
		Predictor:          bpred.DefaultConfig(),
		MaxWrongPathBlocks: 6,
		Seed:               1,
	}
}

// Stats counts front-end events.
type Stats struct {
	// JSON names are stable snake_case: Stats is embedded in sim.Result,
	// which the results store persists and diffs across commits.
	Fetches          uint64 `json:"fetches"` // correct-path accesses emitted
	WrongPathFetches uint64 `json:"wrong_path_fetches"`
	Mispredicts      uint64 `json:"mispredicts"`
	Branches         uint64 `json:"branches"`
}

// Frontend converts retire-order records into the fetch access stream.
type Frontend struct {
	cfg   Config
	bp    *bpred.Predictor
	rng   *rand.Rand
	stats Stats

	prev      trace.Record
	havePrev  bool
	lastBlock isa.Block
	haveLast  bool
	refetch   bool
}

// New builds a front-end model.
func New(cfg Config) *Frontend {
	return &Frontend{
		cfg: cfg,
		bp:  bpred.New(cfg.Predictor),
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Stats returns a copy of the counters.
func (f *Frontend) Stats() Stats { return f.stats }

// Feed consumes the next retired instruction and emits the access stream
// produced while fetching it: wrong-path accesses injected by resolving
// the previous instruction's branch, followed by the demand access for
// this instruction's block when it opens a new fetch group.
func (f *Frontend) Feed(r trace.Record, emit func(Access)) {
	transfer := false
	if f.havePrev {
		transfer = f.resolvePrev(r, emit)
	}
	if r.Flags.Has(trace.FlagCallTarget | trace.FlagReturnTarget) {
		transfer = true
	}
	if r.Flags.Has(trace.FlagTrapEntry) || r.Flags.Has(trace.FlagTrapReturn) {
		transfer = true
	}

	b := r.Block()
	if !f.haveLast || b != f.lastBlock || transfer || f.refetch {
		emit(Access{Block: b, TL: r.TL, Transfer: transfer || f.refetch})
		f.stats.Fetches++
		f.lastBlock, f.haveLast = b, true
	}
	f.refetch = false
	f.prev, f.havePrev = r, true
}

// resolvePrev trains the predictor on the previous record (whose successor
// is now known) and injects wrong-path accesses on a misprediction. It
// reports whether a taken control transfer ended the previous fetch group.
func (f *Frontend) resolvePrev(next trace.Record, emit func(Access)) (transfer bool) {
	p := f.prev
	if p.Flags.Has(trace.FlagBranchTaken) {
		transfer = true
	}
	if !p.Flags.Has(trace.FlagCondBranch) {
		if p.Flags.Has(trace.FlagBranchTaken) {
			// Unconditional transfer (call): record its target.
			f.bp.BTBUpdate(p.PC, next.PC)
		}
		return transfer
	}

	f.stats.Branches++
	actualTaken := p.Flags.Has(trace.FlagBranchTaken)
	mis := f.bp.UpdateCond(p.PC, actualTaken)
	if actualTaken {
		f.bp.BTBUpdate(p.PC, next.PC)
	}
	if !mis {
		return transfer
	}
	f.stats.Mispredicts++

	// Wrong-path fetch: where did the front-end *think* it was going?
	var wrongStart isa.Addr
	haveWrong := false
	if actualTaken {
		// Predicted not-taken: fetched the fall-through path.
		wrongStart = p.PC.Plus(1)
		haveWrong = true
	} else if target, ok := f.bp.BTBLookup(p.PC); ok {
		// Predicted taken: fetched the stale BTB target.
		wrongStart = target
		haveWrong = true
	}
	if !haveWrong {
		// Predicted taken with no BTB target: fetch stalls, no noise.
		f.refetch = true
		return transfer
	}

	depth := 1 + f.rng.Intn(f.cfg.MaxWrongPathBlocks)
	wb := isa.BlockOf(wrongStart)
	for i := 0; i < depth; i++ {
		emit(Access{Block: wb.Add(i), TL: p.TL, WrongPath: true, Transfer: i == 0})
		f.stats.WrongPathFetches++
	}
	f.refetch = true // squash forces a refetch of the correct path
	return transfer
}
