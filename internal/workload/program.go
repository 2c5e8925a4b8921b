package workload

import (
	"math/rand"

	"repro/internal/isa"
)

// opKind discriminates the statements inside a synthetic function body.
type opKind uint8

const (
	// opRun executes n sequential instructions.
	opRun opKind = iota
	// opCall executes a call instruction and transfers to a callee chosen
	// from the site's weighted target list.
	opCall
	// opCondSkip executes a conditional branch that, when taken, jumps
	// forward over n instructions.
	opCondSkip
	// opLoop executes a body of n sequential instructions, optionally
	// followed by a helper call, a data-dependent number of times, with a
	// taken back-edge branch after each iteration but the last.
	opLoop
)

// op is one statement of a function body. Offsets are in instructions from
// the function base; the builder lays ops out contiguously so execution can
// compute every PC from the function base address. An op holds no pointer,
// so a program's ops share one arena the garbage collector never scans.
type op struct {
	kind opKind
	// n is the run length (opRun), the number of instructions a taken
	// branch skips (opCondSkip), or the loop body's run length (opLoop).
	n int32
	// A call site (opCall, or an opLoop with a helper call) resolves among
	// Program.targets[tOff:tOff+tLen], the candidate callee indices into
	// Program.Funcs. Monomorphic sites have one target; polymorphic sites
	// resolve deterministically from (site, transaction variant), so a
	// transaction variant always takes the same path — control-flow
	// variation is coarse-grained, as in real transaction code. A loop
	// without a helper call has tLen 0.
	site, tOff, tLen int32
}

// opLen returns the laid-out instruction length of an op: a loop lays out
// its body run, its helper call if it has one, and its back edge.
func opLen(o *op) int {
	switch o.kind {
	case opRun:
		return int(o.n)
	case opLoop:
		if o.tLen > 0 {
			return int(o.n) + 2
		}
		return int(o.n) + 1
	}
	return 1
}

// Func is one synthetic function.
type Func struct {
	// Base is the address of the first instruction (block aligned).
	Base isa.Addr
	// Instrs is the total instruction count (body layout length).
	Instrs int
	// Handler marks trap-handler functions (executed at TL1).
	Handler bool
	// lo and hi bound the function's body in Program.ops.
	lo, hi int32
}

// Blocks returns the function footprint in instruction blocks.
func (f *Func) Blocks() int {
	return int(isa.BlockOf(f.Base.Plus(f.Instrs-1))-isa.BlockOf(f.Base)) + 1
}

// Program is a complete synthetic program image. Its functions, their
// bodies and their call targets are three flat, pointer-free arrays.
type Program struct {
	Profile Profile
	// Funcs holds application functions, then shared-library functions,
	// then trap handlers (indices partitioned by the ranges below).
	Funcs []Func
	// AppFuncs, SharedFuncs, HandlerFuncs give the index ranges.
	AppEnd     int // Funcs[0:AppEnd] are application functions
	SharedEnd  int // Funcs[AppEnd:SharedEnd] are shared library
	HandlerEnd int // Funcs[SharedEnd:HandlerEnd] are trap handlers
	// Entries are the transaction entry function indices with dispatch
	// weights (skewed per Profile.TxSkew).
	Entries       []int
	EntryWeights  []int
	FootprintBlks int
	ops           []op    // every function body, in Funcs order
	targets       []int32 // every call site's candidate callees
}

// builder carries one build's state that the image does not keep.
type builder struct {
	prog      *Program
	rng       *rand.Rand
	callSites int32    // site ID allocator
	events    []opKind // the current body's events, reused across bodies
}

// BuildProgram deterministically constructs a fresh program image for a
// profile. Code on the job path takes images from ProgramFor instead,
// which shares one image among every caller holding it.
func BuildProgram(p Profile) (*Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return build(p), nil
}

// build constructs the image for a validated profile.
func build(p Profile) *Program {
	// Size the arenas from the profile's expected event counts: each event
	// lays out a prelude run and its op (a skip also its skipped run), each
	// body ends in a run and the return, and three loops in ten embed a
	// helper call. Bodies too short for all their events make the guess
	// high by 5-20%; a low guess would cost one grow.
	nf := p.Funcs + p.SharedFuncs + p.HandlerFuncs
	perFunc := 2 + 2*(p.CallSitesPerFunc+p.LoopsPerFunc) + 3*p.CondSkipsPerFunc
	sites := p.CallSitesPerFunc + 0.3*p.LoopsPerFunc
	fanout := p.MonoCallFrac + (1-p.MonoCallFrac)*float64(p.CallFanout)
	prog := &Program{
		Profile:      p,
		Funcs:        make([]Func, 0, nf),
		Entries:      make([]int, 0, p.TxTypes),
		EntryWeights: make([]int, 0, p.TxTypes),
		ops:          make([]op, 0, int(float64(nf)*perFunc)),
		targets:      make([]int32, 0, int(float64(nf)*sites*fanout)),
	}
	b := &builder{prog: prog, rng: rand.New(rand.NewSource(p.Seed))}
	rng := b.rng

	// Lay out functions: application code at 0x100000, shared library at
	// a distant segment, handlers in a high "kernel" segment — mirroring
	// the multi-megabyte spread of server binaries the paper describes.
	next := isa.Addr(0x0010_0000)
	addFunc := func(minB, maxB int, handler bool) {
		blocks := minB
		if maxB > minB {
			blocks += rng.Intn(maxB - minB + 1)
		}
		instrs := blocks*isa.InstrsPerBlock - rng.Intn(isa.InstrsPerBlock)
		if instrs < 1 {
			instrs = 1
		}
		prog.Funcs = append(prog.Funcs, Func{Base: next, Instrs: instrs, Handler: handler})
		// Functions start on fresh blocks; occasionally leave a hole so
		// spatial adjacency is not an artifact of dense packing.
		nb := isa.BlockOf(next.Plus(instrs-1)) + 1
		if rng.Intn(4) == 0 {
			nb += isa.Block(1 + rng.Intn(3))
		}
		next = nb.BlockBase()
	}

	for i := 0; i < p.Funcs; i++ {
		addFunc(p.FuncBlocksMin, p.FuncBlocksMax, false)
	}
	prog.AppEnd = len(prog.Funcs)
	next = 0x0200_0000 // shared library segment
	for i := 0; i < p.SharedFuncs; i++ {
		addFunc(p.FuncBlocksMin, p.FuncBlocksMax, false)
	}
	prog.SharedEnd = len(prog.Funcs)
	next = 0x0400_0000 // trap handler segment
	for i := 0; i < p.HandlerFuncs; i++ {
		addFunc(1, p.HandlerBlocksMax, true)
	}
	prog.HandlerEnd = len(prog.Funcs)

	// Build bodies. Call targets are biased: most call sites reference the
	// shared library or "nearby" application functions, producing the
	// hub-and-spoke call graphs of server software.
	for i := range prog.Funcs {
		b.buildBody(&prog.Funcs[i], i)
	}

	// Transaction entry points with skewed dispatch weights: weight of
	// type k is proportional to skew^k (normalized to integers).
	perm := rng.Perm(prog.AppEnd)
	w := 1000.0
	for i := 0; i < p.TxTypes; i++ {
		prog.Entries = append(prog.Entries, perm[i])
		prog.EntryWeights = append(prog.EntryWeights, int(w)+1)
		w *= p.TxSkew
	}

	for i := range prog.Funcs {
		prog.FootprintBlks += prog.Funcs[i].Blocks()
	}
	return prog
}

// buildBody appends the ops of function fi to the image's arena.
func (b *builder) buildBody(f *Func, fi int) {
	prog, rng := b.prog, b.rng
	p := &prog.Profile
	f.lo = int32(len(prog.ops))
	// Reserve the final instruction as a plain run (the return): every
	// conditional branch in the body then has a laid-out fall-through.
	remaining := f.Instrs - 1

	// Decide event counts from profile expectations.
	calls := poissonish(rng, p.CallSitesPerFunc)
	if f.Handler {
		calls = rng.Intn(2) // handlers make at most one nested call
	}
	loops := poissonish(rng, p.LoopsPerFunc)
	skips := poissonish(rng, p.CondSkipsPerFunc)
	if f.Handler {
		// Handlers are compact code with data-dependent jumps crafted to
		// skip entire blocks (Section 5.2's explanation for the strong
		// TL1 benefit of larger regions).
		loops = 0
		skips = 1 + rng.Intn(2)
	}

	// Interleave events between straight-line runs. Consume instructions
	// as we emit ops; each event costs at least one instruction.
	events := b.events[:0]
	for i := 0; i < calls; i++ {
		events = append(events, opCall)
	}
	for i := 0; i < loops; i++ {
		events = append(events, opLoop)
	}
	for i := 0; i < skips; i++ {
		events = append(events, opCondSkip)
	}
	b.events = events
	rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })

	emitRun := func(n int) {
		if n > remaining {
			n = remaining
		}
		if n <= 0 {
			return
		}
		prog.ops = append(prog.ops, op{kind: opRun, n: int32(n)})
		remaining -= n
	}

	for _, ev := range events {
		if remaining <= 2 {
			break
		}
		// Straight-line prelude before the event.
		emitRun(1 + rng.Intn(maxInt(1, remaining/(len(events)+1))))
		if remaining <= 1 {
			break
		}
		switch ev {
		case opCall:
			prog.ops = append(prog.ops, b.newCallOp(opCall, 0, fi))
			remaining-- // the call instruction
		case opCondSkip:
			maxSkip := p.SkipBlocksMax * isa.InstrsPerBlock
			if maxSkip > remaining-1 {
				maxSkip = remaining - 1
			}
			if maxSkip < 1 {
				continue
			}
			skip := 1 + rng.Intn(maxSkip)
			if f.Handler && maxSkip >= isa.InstrsPerBlock {
				// Handler jumps skip at least a whole block.
				skip = isa.InstrsPerBlock + rng.Intn(maxSkip-isa.InstrsPerBlock+1)
			} else if !f.Handler && rng.Float64() < 0.7 {
				// Most application skips are short forward branches that
				// stay within the current block, leaving the block-grain
				// retire stream unchanged whichever way they resolve.
				skip = 1 + rng.Intn(minInt(8, maxSkip))
			}
			prog.ops = append(prog.ops, op{kind: opCondSkip, n: int32(skip)})
			remaining-- // the branch instruction
			// The skippable instructions are laid out as a run that the
			// executor may jump over.
			emitRun(skip)
		case opLoop:
			bodyLen := 1 + rng.Intn(maxInt(1, minInt(p.LoopBodyBlocksMax*isa.InstrsPerBlock, remaining-1)))
			loop := op{kind: opLoop, n: int32(bodyLen)}
			// Loops may embed a helper call (tight loop calling a helper,
			// the case Section 3.1 calls out). The helper runs as a leaf
			// (its own call sites do not expand), keeping per-iteration
			// footprints small like real inner-loop helpers.
			if rng.Float64() < 0.3 && !f.Handler {
				loop = b.newCallOp(opLoop, bodyLen, fi)
			}
			prog.ops = append(prog.ops, loop)
			remaining -= bodyLen + 1 // body + back-edge branch
		}
	}
	emitRun(remaining)
	prog.ops = append(prog.ops, op{kind: opRun, n: 1}) // the reserved return
	f.hi = int32(len(prog.ops))
}

// newCallOp builds one call-site op of the given kind and length. Most
// call sites are monomorphic (direct calls); the remainder dispatch among
// CallFanout targets selected by the transaction variant, modeling
// indirect calls and dispatch tables whose outcome is data-dependent but
// stable for a given request shape.
func (b *builder) newCallOp(kind opKind, n, fi int) op {
	fanout := b.prog.Profile.CallFanout
	if b.rng.Float64() < b.prog.Profile.MonoCallFrac {
		fanout = 1
	}
	b.callSites++
	tOff := int32(len(b.prog.targets))
	b.pickTargets(fi, fanout)
	return op{kind: kind, n: int32(n), site: b.callSites, tOff: tOff, tLen: int32(fanout)}
}

// target resolves call site o for a transaction variant: a fixed hash of
// (site, variant) so the same variant always takes the same path.
func (prog *Program) target(o *op, variant int) int {
	ts := prog.targets[o.tOff : o.tOff+o.tLen]
	if len(ts) == 1 {
		return int(ts[0])
	}
	h := uint64(o.site)*2654435761 ^ uint64(variant)*0x9e3779b9
	return int(ts[h%uint64(len(ts))])
}

// pickTargets appends fanout callee indices for a call site in fi to the
// image's target arena. Handler call sites only target other handlers so
// that interrupt service stays short and confined to the TL1 code segment.
func (b *builder) pickTargets(fi, fanout int) {
	prog, rng := b.prog, b.rng
	p := &prog.Profile
	end := len(prog.targets) + fanout
	if fi >= prog.SharedEnd {
		for len(prog.targets) < end {
			t := prog.SharedEnd + rng.Intn(prog.HandlerEnd-prog.SharedEnd)
			if t != fi || prog.HandlerEnd-prog.SharedEnd == 1 {
				prog.targets = append(prog.targets, int32(t))
			}
		}
		return
	}
	for len(prog.targets) < end {
		var t int
		if prog.SharedEnd > prog.AppEnd && rng.Float64() < p.SharedCallBias {
			t = prog.AppEnd + rng.Intn(prog.SharedEnd-prog.AppEnd)
		} else if rng.Intn(2) == 0 {
			// Locality: call a function "near" this one in layout order.
			d := rng.Intn(41) - 20
			t = (fi + d + prog.AppEnd) % prog.AppEnd
		} else {
			t = rng.Intn(prog.AppEnd)
		}
		if t != fi {
			prog.targets = append(prog.targets, int32(t))
		}
	}
}

// poissonish draws a small non-negative count with the given mean using a
// simple geometric-style sampler (adequate for body construction).
func poissonish(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	n := int(mean)
	frac := mean - float64(n)
	if rng.Float64() < frac {
		n++
	}
	// Add ±1 jitter to avoid every function having an identical shape.
	switch rng.Intn(4) {
	case 0:
		if n > 0 {
			n--
		}
	case 1:
		n++
	}
	return n
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
