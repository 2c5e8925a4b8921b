package sim

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/prefetch"
	"repro/internal/trace"
	"repro/internal/workload"
)

const (
	// fuzzRecords is each input's stream length: more than two
	// 4096-record batches, so block runs cross batch boundaries.
	fuzzRecords = 12_000
	// maxFuzzOps caps the decoded ops so minimization stays fast.
	maxFuzzOps = 256
)

// fuzzConfig derives a run configuration from a header byte: bit 0 adds a
// measure offset, bit 1 makes the L1 perfect, bit 2 turns on
// context-switch pollution frequent enough to fire inside block runs, and
// bit 3 shrinks the L1-I to 512 bytes of 2 ways, 4 sets, so the blocks of
// one PIF region share sets and evict each other.
func fuzzConfig(h byte) Config {
	cfg := Config{System: config.Default(), WarmupInstrs: 3_001}
	if h&1 != 0 {
		cfg.MeasureOffsetInstrs = 2_500
	}
	cfg.MeasureInstrs = fuzzRecords - cfg.WarmupInstrs - cfg.MeasureOffsetInstrs
	cfg.PerfectL1 = h&2 != 0
	if h&4 != 0 {
		cfg.System.CtxSwitchEveryInstrs = 97
		cfg.System.CtxSwitchBlocks = 48
	}
	if h&8 != 0 {
		cfg.System.L1ISizeBytes, cfg.System.L1IAssoc = 512, 2
	}
	return cfg
}

// fuzzStream decodes ops into a record pattern and repeats it, restarting
// at base, until the stream holds n records, so the history-based engines
// see recurring streams. Each op is three bytes: a PC move, its argument,
// and the record's flags (bits 0-5) and trap level (bits 6-7, so levels
// past TL1 appear too). Any flag mix is allowed: trap-level flips inside a
// block with no trap flag, not-taken conditional branches mid-block, and
// runs of one PC thousands of records long.
func fuzzStream(base isa.Addr, ops []byte, n int) []trace.Record {
	var pattern []trace.Record
	pc := base
	for i := 0; i+2 < len(ops) && len(pattern) < n; i += 3 {
		move, arg := ops[i]%8, ops[i+1]
		reps := 1
		switch move {
		case 0, 1, 2: // the next instruction
			pc = pc.Plus(1)
		case 3: // the same instruction again
		case 4: // another instruction of the same block
			pc = isa.BlockOf(pc).BlockBase() + isa.Addr(arg%isa.InstrsPerBlock)*isa.InstrBytes
		case 5: // a short jump, either way
			pc = pc.Plus(int(int8(arg)))
		case 6: // a far jump
			pc = base + isa.Addr(arg)<<14
		case 7: // a long run of the same record
			reps += int(arg) * 32
		}
		r := trace.Record{PC: pc, TL: isa.TrapLevel(ops[i+2] >> 6), Flags: trace.Flags(ops[i+2] & 0x3f)}
		for ; reps > 0 && len(pattern) < n; reps-- {
			pattern = append(pattern, r)
		}
	}
	if len(pattern) == 0 {
		pattern = []trace.Record{{PC: base}}
	}
	out := make([]trace.Record, n)
	for i := range out {
		out[i] = pattern[i%len(pattern)]
	}
	return out
}

// fuzzBases are the stream origins a header selects: block 0, an
// ordinary address, and the top of the address space, where PCs wrap.
var fuzzBases = [...]isa.Addr{0, 0x4000_0000, ^isa.Addr(0) &^ (1<<16 - 1)}

// checkCounterLaws asserts the laws every measured Result obeys, whatever
// the stream.
func checkCounterLaws(t *testing.T, cfg Config, engine string, r Result) {
	t.Helper()
	w := uint64(cfg.System.FetchWidth)
	for _, law := range []struct {
		name string
		ok   bool
	}{
		{"instructions = measured interval", r.Instructions == cfg.MeasureInstrs},
		{"covered + residual misses ≤ correct-path accesses", r.CoveredMisses+r.CorrectMisses <= r.CorrectAccesses},
		{"correct-path accesses ≤ L1 accesses", r.CorrectAccesses <= r.L1.Accesses},
		{"correct-path misses ≤ L1 misses", r.CorrectMisses <= r.L1.Misses},
		{"covered misses ≤ L1 prefetch hits", r.CoveredMisses <= r.L1.PrefetchHits},
		{"L1 hits + misses = accesses", r.L1.Hits+r.L1.Misses == r.L1.Accesses},
		{"L1 misses ≤ demand fills", r.L1.Misses <= r.L1.DemandFills},
		{"prefetches issued = L1 prefetch fills", r.PrefetchesIssued == r.L1.PrefetchFills},
		{"unused prefetches ≤ evictions", r.L1.PrefetchUnused <= r.L1.Evictions},
		{"instructions/width + stalls ≤ cycles", r.Instructions/w+r.StallCycles <= r.Cycles},
		{"a perfect L1 never stalls", !cfg.PerfectL1 || r.StallCycles == 0},
		{"UIPC = instructions / cycles", r.UIPC == float64(r.Instructions)/float64(r.Cycles)},
		{"mispredicts ≤ branches", r.FE.Mispredicts <= r.FE.Branches},
		{"no engine, no prefetches", engine != "none" || r.PrefetchesIssued == 0 && r.CoveredMisses == 0},
	} {
		if !law.ok {
			t.Errorf("%s: law %q broken: %+v", engine, law.name, r)
		}
	}
}

// FuzzSimulatorStep: on arbitrary record streams, RunJob's replay path
// reports exactly the reference simulator's Result for every engine the
// oracle covers, and so does one row of all of them over the shared
// stream; every Result obeys the counter laws. data[0] picks
// the configuration (fuzzConfig) and data[1] the stream origin; the rest
// are stream ops (fuzzStream).
func FuzzSimulatorStep(f *testing.F) {
	op := func(move, arg byte, tl isa.TrapLevel, fl trace.Flags) []byte {
		return []byte{move, arg, byte(tl)<<6 | byte(fl)}
	}
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	seq := op(0, 0, 0, 0)
	f.Add(cat([]byte{0, 1}, op(6, 1, 0, trace.FlagCallTarget), seq, seq, seq, op(0, 0, 0, trace.FlagCondBranch),
		seq, seq, op(5, 0xf0, 0, trace.FlagCondBranch|trace.FlagBranchTaken), seq, op(6, 9, 0, trace.FlagBranchTaken)))
	f.Add(cat([]byte{4, 0}, seq, op(3, 0, isa.TL1, 0), op(0, 0, isa.TL1, 0), op(3, 0, 0, 0), seq,
		op(6, 3, isa.TL1, trace.FlagTrapEntry), seq, op(6, 4, 0, trace.FlagTrapReturn)))
	f.Add(cat([]byte{5, 1}, seq, op(7, 200, 0, 0), op(4, 3, 0, trace.FlagReturnTarget), op(7, 40, 2, 0),
		op(6, 7, 0, trace.FlagBranchTaken)))
	f.Add(cat([]byte{2, 2}, seq, seq, op(5, 0x7f, 3, trace.FlagCondBranch), seq, op(0, 0, 0, 0x3f), seq,
		op(6, 0, 0, trace.FlagCallTarget|trace.FlagBranchTaken)))
	f.Add(cat([]byte{7, 1}, op(7, 255, 0, 0), op(0, 0, 0, trace.FlagCondBranch), op(7, 255, 0, 0)))
	f.Add(cat([]byte{0, 1}, seq, op(0, 0, 0, trace.FlagTrapEntry), seq, op(3, 0, 0, trace.FlagTrapReturn), seq,
		op(0, 0, 0, trace.FlagCallTarget|trace.FlagReturnTarget), seq, op(6, 2, 0, trace.FlagBranchTaken)))
	// A tiny, polluted L1-I under a recurring loop of short jumps.
	f.Add(cat([]byte{12, 1}, seq, seq, seq, op(5, 0x30, 0, trace.FlagBranchTaken), seq, seq,
		op(5, 0x50, 0, trace.FlagCallTarget|trace.FlagBranchTaken), seq, seq, seq, seq,
		op(5, 0xe0, 0, trace.FlagReturnTarget|trace.FlagBranchTaken), seq, op(6, 3, 0, trace.FlagBranchTaken),
		seq, seq, op(6, 1, 0, trace.FlagBranchTaken)))
	// A tiny, polluted L1-I where a region's own issue evicts one of its
	// resident blocks and no other line leaves before the next claim: the
	// re-probe must run and refill it.
	f.Add(cat([]byte{12, 0}, seq, op(5, 0x9b, 2, 0x1d), op(7, 0xe4, 0, 0), op(5, 0x37, 2, 0x03), seq,
		op(5, 0x32, 0, 0), op(0, 0, 3, 0x3f), op(0, 0, 0, 0x3e)))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ops := data[2:]
		if len(ops) > 3*maxFuzzOps {
			ops = ops[:3*maxFuzzOps]
		}
		cfg := fuzzConfig(data[0])
		recs := fuzzStream(fuzzBases[int(data[1])%len(fuzzBases)], ops, fuzzRecords)
		wl := workload.Profile{Name: "fuzz", Seed: int64(data[0])}
		src := openerSource(func() (trace.BatchIterator, error) {
			return trace.Stream(recs).Iter(), nil
		})
		jobs := make([]Job, len(referenceEngines))
		wants := make([]Result, len(referenceEngines))
		for i, e := range referenceEngines {
			wants[i] = refRun(cfg, wl, resolve(t, e), recs)
			jobs[i] = Job{Config: cfg, Workload: wl, From: src, Engine: prefetch.Spec{Name: e}}
			got, err := RunJob(context.Background(), jobs[i])
			if err != nil {
				t.Fatal(err)
			}
			if got != wants[i] {
				t.Fatalf("%s:\n got  %+v\n want %+v", e, got, wants[i])
			}
			checkCounterLaws(t, cfg, e, got)
		}
		checkRowAgainst(t, "fuzz", jobs, wants)
	})
}
