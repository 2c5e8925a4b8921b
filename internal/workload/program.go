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
	// forward over skipInstrs instructions.
	opCondSkip
	// opLoop executes its body a data-dependent number of times with a
	// taken back-edge branch after each iteration but the last.
	opLoop
)

// op is one statement of a function body. Offsets are in instructions from
// the function base; the builder lays ops out contiguously so execution can
// compute every PC from the function base address.
type op struct {
	kind opKind

	// opRun
	runLen int

	// opCall: candidate callee indices into Program.Funcs. Monomorphic
	// sites have one target; polymorphic sites resolve deterministically
	// from (siteID, transaction variant), so a transaction variant always
	// takes the same path — control-flow variation is coarse-grained, as
	// in real transaction code.
	targets []int
	siteID  int
	// loopLeaf marks loop-embedded helper calls: the callee runs as a
	// leaf (its own call sites do not expand), keeping per-iteration
	// footprints small like real inner-loop helpers.
	loopLeaf bool

	// opCondSkip
	skipInstrs int

	// opLoop
	body    []op
	iterMin int
	iterMax int
}

// Func is one synthetic function.
type Func struct {
	// Index is the function's position in Program.Funcs.
	Index int
	// Base is the address of the first instruction (block aligned).
	Base isa.Addr
	// Instrs is the total instruction count (body layout length).
	Instrs int
	// Handler marks trap-handler functions (executed at TL1).
	Handler bool
	body    []op
}

// Blocks returns the function footprint in instruction blocks.
func (f *Func) Blocks() int {
	return int(isa.BlockOf(f.Base.Plus(f.Instrs-1))-isa.BlockOf(f.Base)) + 1
}

// Program is a complete synthetic program image.
type Program struct {
	Profile Profile
	// Funcs holds application functions, then shared-library functions,
	// then trap handlers (indices partitioned by the ranges below).
	Funcs []*Func
	// AppFuncs, SharedFuncs, HandlerFuncs give the index ranges.
	AppEnd     int // Funcs[0:AppEnd] are application functions
	SharedEnd  int // Funcs[AppEnd:SharedEnd] are shared library
	HandlerEnd int // Funcs[SharedEnd:HandlerEnd] are trap handlers
	// Entries are the transaction entry function indices with dispatch
	// weights (skewed per Profile.TxSkew).
	Entries       []int
	EntryWeights  []int
	FootprintBlks int
	callSites     int // total call-site count (siteID allocator)
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
	rng := rand.New(rand.NewSource(p.Seed))
	prog := &Program{Profile: p}

	// Lay out functions: application code at 0x100000, shared library at
	// a distant segment, handlers in a high "kernel" segment — mirroring
	// the multi-megabyte spread of server binaries the paper describes.
	next := isa.Addr(0x0010_0000)
	addFunc := func(minB, maxB int, handler bool) *Func {
		blocks := minB
		if maxB > minB {
			blocks += rng.Intn(maxB - minB + 1)
		}
		instrs := blocks*isa.InstrsPerBlock - rng.Intn(isa.InstrsPerBlock)
		if instrs < 1 {
			instrs = 1
		}
		f := &Func{Index: len(prog.Funcs), Base: next, Instrs: instrs, Handler: handler}
		prog.Funcs = append(prog.Funcs, f)
		// Functions start on fresh blocks; occasionally leave a hole so
		// spatial adjacency is not an artifact of dense packing.
		nb := isa.BlockOf(next.Plus(instrs-1)) + 1
		if rng.Intn(4) == 0 {
			nb += isa.Block(1 + rng.Intn(3))
		}
		next = nb.BlockBase()
		return f
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
	for i, f := range prog.Funcs {
		prog.buildBody(rng, f, i)
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

	for _, f := range prog.Funcs {
		prog.FootprintBlks += f.Blocks()
	}
	return prog
}

// buildBody fills in the op list for function fi.
func (prog *Program) buildBody(rng *rand.Rand, f *Func, fi int) {
	p := prog.Profile
	// Reserve the final instruction as a plain run (the return): every
	// conditional branch in the body then has a laid-out fall-through.
	remaining := f.Instrs - 1
	var body []op

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
	type event struct{ kind opKind }
	var events []event
	for i := 0; i < calls; i++ {
		events = append(events, event{opCall})
	}
	for i := 0; i < loops; i++ {
		events = append(events, event{opLoop})
	}
	for i := 0; i < skips; i++ {
		events = append(events, event{opCondSkip})
	}
	rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })

	emitRun := func(n int) {
		if n <= 0 {
			return
		}
		if n > remaining {
			n = remaining
		}
		if n <= 0 {
			return
		}
		body = append(body, op{kind: opRun, runLen: n})
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
		switch ev.kind {
		case opCall:
			body = append(body, prog.newCallOp(rng, fi, false))
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
			body = append(body, op{kind: opCondSkip, skipInstrs: skip})
			remaining-- // the branch instruction
			// The skippable instructions are laid out as a run that the
			// executor may jump over.
			emitRun(skip)
		case opLoop:
			bodyLen := 1 + rng.Intn(maxInt(1, minInt(p.LoopBodyBlocksMax*isa.InstrsPerBlock, remaining-1)))
			inner := []op{{kind: opRun, runLen: bodyLen}}
			// Loops may embed a helper call (tight loop calling a helper,
			// the case Section 3.1 calls out).
			if rng.Float64() < 0.3 && !f.Handler {
				inner = append(inner, prog.newCallOp(rng, fi, true))
			}
			body = append(body, op{
				kind: opLoop, body: inner,
				iterMin: p.LoopIterMin, iterMax: p.LoopIterMax,
			})
			remaining -= bodyLen + 1 // body + back-edge branch
		}
	}
	emitRun(remaining)
	body = append(body, op{kind: opRun, runLen: 1}) // the reserved return
	f.body = body
}

// newCallOp builds one call-site op. Most call sites are monomorphic
// (direct calls); the remainder dispatch among CallFanout targets selected
// by the transaction variant, modeling indirect calls and dispatch tables
// whose outcome is data-dependent but stable for a given request shape.
func (prog *Program) newCallOp(rng *rand.Rand, fi int, loopLeaf bool) op {
	fanout := prog.Profile.CallFanout
	if rng.Float64() < prog.Profile.MonoCallFrac {
		fanout = 1
	}
	prog.callSites++
	return op{
		kind:     opCall,
		targets:  prog.pickTargets(rng, fi, fanout),
		siteID:   prog.callSites,
		loopLeaf: loopLeaf,
	}
}

// TargetFor resolves a call site for a transaction variant: a fixed hash
// of (siteID, variant) so the same variant always takes the same path.
func (o *op) TargetFor(variant int) int {
	if len(o.targets) == 1 {
		return o.targets[0]
	}
	h := uint64(o.siteID)*2654435761 ^ uint64(variant)*0x9e3779b9
	return o.targets[h%uint64(len(o.targets))]
}

// pickTargets selects fanout callee indices for a call site in fi.
// Handler call sites only target other handlers so that interrupt service
// stays short and confined to the TL1 code segment.
func (prog *Program) pickTargets(rng *rand.Rand, fi, fanout int) []int {
	p := prog.Profile
	out := make([]int, 0, fanout)
	if fi >= prog.SharedEnd {
		for len(out) < fanout {
			t := prog.SharedEnd + rng.Intn(prog.HandlerEnd-prog.SharedEnd)
			if t != fi || prog.HandlerEnd-prog.SharedEnd == 1 {
				out = append(out, t)
			}
		}
		return out
	}
	for len(out) < fanout {
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
			out = append(out, t)
		}
	}
	return out
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
