package workload

import (
	"math/rand"
	"slices"

	"repro/internal/isa"
	"repro/internal/trace"
)

// Executor walks a Program and emits its correct-path retire-order
// instruction stream. Construction randomness (the program image) and
// execution randomness (data-dependent branch outcomes, loop trip counts,
// transaction mix, interrupt arrivals) use independent deterministic
// streams, so the same Profile always yields the same trace.
type Executor struct {
	prog *Program
	rng  *rand.Rand

	// buf and flush are the consumer's batch and its hand-off, set for
	// the duration of one RunBatches call.
	buf     []trace.Record
	flush   func([]trace.Record) []trace.Record
	tl      isa.TrapLevel
	pending trace.Flags
	variant int // current transaction's path variant

	emitted     uint64
	budget      uint64
	stopped     bool
	intrEnabled bool
	intrIn      int // instructions until next interrupt
}

// NewExecutor prepares an executor over prog.
func NewExecutor(prog *Program) *Executor {
	e := &Executor{
		prog:        prog,
		rng:         rand.New(rand.NewSource(prog.Profile.Seed ^ 0x5f5f_5f5f)),
		intrEnabled: prog.Profile.InterruptEvery > 0 && prog.HandlerEnd > prog.SharedEnd,
	}
	if e.intrEnabled {
		e.intrIn = e.nextInterruptGap()
	}
	return e
}

func (e *Executor) nextInterruptGap() int {
	gap := int(e.rng.ExpFloat64() * float64(e.prog.Profile.InterruptEvery))
	if gap < 1 {
		gap = 1
	}
	return gap
}

// RunBatches emits at least n instructions (stopping at the first
// instruction at or past the budget) by appending their records to buf.
// Each time buf fills, it calls flush with the full batch; flush consumes
// it and returns the slice to keep appending to — typically buf[:0], or
// buf itself with more capacity for a consumer that keeps every record.
// RunBatches returns the unflushed tail (never full), so a consumer can
// carry one batch across calls. buf must have spare capacity, and so must
// every slice flush returns.
//
// Straight-line runs are written in one loop: only the instruction that
// can stop the run or fire an interrupt takes the per-instruction path.
// The stream is the same whatever the buffer's capacity.
func (e *Executor) RunBatches(n uint64, buf []trace.Record, flush func([]trace.Record) []trace.Record) []trace.Record {
	e.buf, e.flush = buf, flush
	e.budget = e.emitted + n
	e.stopped = false
	for !e.stopped {
		entry := e.pickEntry()
		e.variant = e.pickVariant()
		e.pending |= trace.FlagCallTarget
		e.execFunc(&e.prog.Funcs[entry], 0)
	}
	buf = e.buf
	e.buf, e.flush = nil, nil
	return buf
}

// runBatch is the batch size of Run's adapter.
const runBatch = 256

// Run emits at least n instructions through emit, one call per record,
// and returns the total number emitted across calls. It is an adapter
// over RunBatches.
func (e *Executor) Run(n uint64, emit func(trace.Record)) uint64 {
	flush := func(b []trace.Record) []trace.Record {
		for _, r := range b {
			emit(r)
		}
		return b[:0]
	}
	flush(e.RunBatches(n, make([]trace.Record, 0, runBatch), flush))
	return e.emitted
}

// Emitted returns the total instructions emitted across runs.
func (e *Executor) Emitted() uint64 { return e.emitted }

// Abort stops the in-progress run before its budget: no further
// instructions are emitted and RunBatches returns once the current call
// stack unwinds. It is intended to be called from within the flush callback
// (e.g. on context cancellation; from Run's emit it takes effect at the
// end of the current batch); the executor's stream state is unspecified
// afterwards, so an aborted run's output must be discarded.
func (e *Executor) Abort() { e.stopped = true }

// pickVariant draws the transaction's path variant: the hottest variant
// takes a large share and the rest split the remainder, so every variant's
// path is exercised regularly (steady state) while the mix still perturbs
// the cache (Section 2.1's filtering effect).
func (e *Executor) pickVariant() int {
	v := e.prog.Profile.TxVariants
	if v <= 1 {
		return 0
	}
	if e.rng.Float64() < 0.4 {
		return 0
	}
	return 1 + e.rng.Intn(v-1)
}

// pickEntry draws a transaction type according to the skewed entry weights.
func (e *Executor) pickEntry() int {
	total := 0
	for _, w := range e.prog.EntryWeights {
		total += w
	}
	r := e.rng.Intn(total)
	for i, w := range e.prog.EntryWeights {
		if r < w {
			return e.prog.Entries[i]
		}
		r -= w
	}
	return e.prog.Entries[len(e.prog.Entries)-1]
}

// emitInstr emits the instruction at offset cursor within f, consuming any
// pending entry/return flags, and fires due interrupts.
func (e *Executor) emitInstr(f *Func, cursor int, extra trace.Flags) {
	e.buf = append(e.buf, trace.Record{
		PC:    f.Base.Plus(cursor),
		TL:    e.tl,
		Flags: e.pending | extra,
	})
	e.pending = 0
	if len(e.buf) == cap(e.buf) {
		e.buf = e.flush(e.buf)
	}
	e.emitted++
	if e.emitted >= e.budget {
		e.stopped = true
		return
	}
	if e.intrEnabled && e.tl == isa.TL0 {
		e.intrIn--
		if e.intrIn <= 0 {
			e.runInterrupt()
			e.intrIn = e.nextInterruptGap()
		}
	}
}

// runInterrupt executes a randomly chosen trap handler at TL1.
func (e *Executor) runInterrupt() {
	h := e.prog.SharedEnd + e.rng.Intn(e.prog.HandlerEnd-e.prog.SharedEnd)
	e.tl = isa.TL1
	e.pending |= trace.FlagTrapEntry | trace.FlagCallTarget
	// Handlers run with little headroom for nested calls: interrupt
	// service is short by construction.
	depth := e.prog.Profile.MaxCallDepth - 2
	if depth < 0 {
		depth = 0
	}
	e.execFunc(&e.prog.Funcs[h], depth)
	e.tl = isa.TL0
	e.pending |= trace.FlagTrapReturn
}

// execFunc runs one function body.
func (e *Executor) execFunc(f *Func, depth int) {
	ops := e.prog.ops[f.lo:f.hi]
	cursor := 0 // instruction offset of the current op within f
	for i := 0; i < len(ops) && !e.stopped; i++ {
		o := &ops[i]
		switch o.kind {
		case opRun:
			e.emitRun(f, cursor, int(o.n))
		case opCall:
			e.call(f, cursor, o, depth, depth+1)
		case opCondSkip:
			prob := e.prog.Profile.SkipTakenProb
			if f.Handler {
				prob = 0.5 // handler jumps are strongly data-dependent
			}
			taken := e.rng.Float64() < prob
			fl := trace.FlagCondBranch
			if taken {
				fl |= trace.FlagBranchTaken
			}
			e.emitInstr(f, cursor, fl)
			if taken {
				// Jump over the laid-out skip region (the next run op).
				cursor += int(o.n)
				if i+1 < len(ops) && ops[i+1].kind == opRun && ops[i+1].n == o.n {
					i++ // consume the skipped op
				}
			}
		case opLoop:
			p := &e.prog.Profile
			iters := p.LoopIterMin
			if p.LoopIterMax > p.LoopIterMin {
				iters += e.rng.Intn(p.LoopIterMax - p.LoopIterMin + 1)
			}
			backEdge := cursor + opLen(o) - 1
			for it := 0; it < iters && !e.stopped; it++ {
				e.emitRun(f, cursor, int(o.n))
				if o.tLen > 0 && !e.stopped {
					// Inner-loop helpers execute as leaves.
					e.call(f, cursor+int(o.n), o, depth, p.MaxCallDepth)
				}
				if e.stopped {
					break
				}
				fl := trace.FlagCondBranch
				if it < iters-1 {
					fl |= trace.FlagBranchTaken // loop back
				}
				e.emitInstr(f, backEdge, fl)
			}
		}
		cursor += opLen(o)
	}
}

// emitRun emits the n sequential instructions starting at offset cursor
// within f, stopping early at the budget. It writes the longest prefix
// that can neither reach the budget nor fire an interrupt, capped by the
// batch's free space, in one loop, and hands the instruction that can
// to emitInstr.
func (e *Executor) emitRun(f *Func, cursor, n int) {
	for end := cursor + n; cursor < end && !e.stopped; {
		k := min(end-cursor, cap(e.buf)-len(e.buf))
		if e.emitted+uint64(k) >= e.budget {
			k = 0
			if e.budget > e.emitted {
				k = int(e.budget - e.emitted - 1)
			}
		}
		ticks := e.intrEnabled && e.tl == isa.TL0
		if ticks {
			k = min(k, e.intrIn-1)
		}
		if k == 0 {
			e.emitInstr(f, cursor, 0)
			cursor++
			continue
		}
		lo := len(e.buf)
		e.buf = e.buf[:lo+k]
		run := e.buf[lo:]
		pc := f.Base.Plus(cursor)
		run[0] = trace.Record{PC: pc, TL: e.tl, Flags: e.pending}
		e.pending = 0
		for i := 1; i < k; i++ {
			run[i] = trace.Record{PC: pc.Plus(i), TL: e.tl}
		}
		cursor += k
		e.emitted += uint64(k)
		if ticks {
			e.intrIn -= k
		}
		if len(e.buf) == cap(e.buf) {
			e.buf = e.flush(e.buf)
		}
	}
}

// call emits call site o's call instruction at offset cursor within f
// and, unless the budget stops the run or the caller's depth has reached
// MaxCallDepth, runs the callee the site resolves to at childDepth.
func (e *Executor) call(f *Func, cursor int, o *op, depth, childDepth int) {
	e.emitInstr(f, cursor, trace.FlagBranchTaken)
	if e.stopped || depth >= e.prog.Profile.MaxCallDepth {
		return
	}
	e.pending |= trace.FlagCallTarget
	e.execFunc(&e.prog.Funcs[e.prog.target(o, e.variant)], childDepth)
	e.pending |= trace.FlagReturnTarget
}

// GenerateStream builds the program for p, runs n instructions, and
// returns the retire-order stream in memory. Only tests call it; the
// simulator and the experiments drive an Executor directly.
func GenerateStream(p Profile, n uint64) (trace.Stream, error) {
	prog, err := ProgramFor(p)
	if err != nil {
		return nil, err
	}
	return Collect(prog, n), nil
}

// Collect runs a fresh executor over prog for n instructions and returns
// the stream in memory. The stream itself is the executor's batch, so
// records are written once, straight into it.
func Collect(prog *Program, n uint64) trace.Stream {
	grow := func(b []trace.Record) []trace.Record { return slices.Grow(b, len(b)+1) }
	return NewExecutor(prog).RunBatches(n, make(trace.Stream, 0, n+1), grow)
}
