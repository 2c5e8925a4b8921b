package sim

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/frontend"
	"repro/internal/isa"
	"repro/internal/prefetch"
	"repro/internal/trace"
	"repro/internal/workload"
)

// refSim is the reference simulator: Simulator's accounting written the
// plain way, with Go maps for the per-block state, a fresh issuer value
// and access callback on every call, one step per record, a completion
// time deleted on every hit, and an issuer that lets no engine skip a
// re-issue. It drives the same cache, front-end, polluter and engine
// models, so any difference from Simulator's Result is a fault in the
// optimized simulator's own bookkeeping or in an engine's skipping.
type refSim struct {
	cfg      Config
	l1       *cache.Cache
	fe       *frontend.Frontend
	pf       prefetch.Prefetcher
	polluter *cache.Polluter

	instrs     uint64
	stall      uint64
	everFilled map[isa.Block]struct{}
	readyAt    map[isa.Block]uint64

	correctAccesses uint64
	correctMisses   uint64
	coveredMisses   uint64
	prefIssued      uint64
	lastTagged      bool
	evictionReads   uint64
}

func newRefSim(cfg Config, pf prefetch.Prefetcher, feSeed int64) *refSim {
	return &refSim{
		cfg:        cfg,
		l1:         cache.New(cfg.System.L1I()),
		fe:         frontend.New(cfg.System.Frontend(feSeed)),
		pf:         pf,
		polluter:   cache.NewPolluter(cfg.System.CtxSwitchEveryInstrs, cfg.System.CtxSwitchBlocks, feSeed^0x706f6c),
		everFilled: map[isa.Block]struct{}{},
		readyAt:    map[isa.Block]uint64{},
		lastTagged: true,
	}
}

func (s *refSim) now() uint64 {
	return s.instrs/uint64(s.cfg.System.FetchWidth) +
		uint64(float64(s.instrs)*s.cfg.System.DataStallCPI) + s.stall
}

func (s *refSim) fillLatency(b isa.Block) uint64 {
	if _, ok := s.everFilled[b]; ok {
		return uint64(s.cfg.System.L2HitCycles)
	}
	return uint64(s.cfg.System.MemCycles())
}

// refIssuer is the naive issuer: its eviction count changes on every
// read, so an engine under the reference re-issues every block it would
// have skipped, and Prefetch probes the cache itself.
type refIssuer struct{ s *refSim }

func (i refIssuer) Evictions() uint64 {
	i.s.evictionReads++
	return i.s.evictionReads
}

func (i refIssuer) Prefetch(b isa.Block) {
	s := i.s
	if s.l1.Contains(b) {
		return
	}
	lat := s.fillLatency(b)
	s.l1.Fill(b, true)
	s.everFilled[b] = struct{}{}
	s.readyAt[b] = s.now() + lat
	s.prefIssued++
}

func (s *refSim) access(a frontend.Access) {
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
	if !s.cfg.PerfectL1 && !a.WrongPath {
		if !hit {
			s.stall += s.fillLatency(a.Block)
		} else if wasPrefetched {
			if ready, ok := s.readyAt[a.Block]; ok {
				if now := s.now(); ready > now {
					s.stall += ready - now
				}
			}
		}
	}
	if hit {
		delete(s.readyAt, a.Block)
	}
	if !hit {
		s.l1.Fill(a.Block, false)
		s.everFilled[a.Block] = struct{}{}
		delete(s.readyAt, a.Block)
	}
	s.pf.OnAccess(prefetch.AccessEvent{
		Block: a.Block, TL: a.TL, WrongPath: a.WrongPath, Hit: hit, WasPrefetched: wasPrefetched,
	}, refIssuer{s})
}

func (s *refSim) step(r trace.Record) {
	s.fe.Feed(r, func(a frontend.Access) { s.access(a) })
	s.pf.OnRetire(r, s.lastTagged, refIssuer{s})
	s.instrs++
	s.polluter.Tick(s.l1)
}

// reset clears the measured counters at the warmup boundary; in-flight
// prefetches count as complete.
func (s *refSim) reset() {
	s.l1.ResetStats()
	s.readyAt = map[isa.Block]uint64{}
	s.instrs, s.stall = 0, 0
	s.correctAccesses, s.correctMisses, s.coveredMisses, s.prefIssued = 0, 0, 0, 0
}

// refCounters is a snapshot of every counter a Result reports.
type refCounters struct {
	instrs, cycles, stall, accesses, misses, covered, issued uint64
	l1                                                       cache.Stats
}

func (s *refSim) counters() refCounters {
	return refCounters{
		instrs: s.instrs, cycles: s.now(), stall: s.stall,
		accesses: s.correctAccesses, misses: s.correctMisses,
		covered: s.coveredMisses, issued: s.prefIssued, l1: s.l1.Stats(),
	}
}

// refRun replays recs through a reference simulator in cfg's phases:
// warmup, then the counter reset, then the measure offset, then the
// measured interval, reported as the counters at its end minus those at
// its start.
func refRun(cfg Config, wl workload.Profile, pf prefetch.Prefetcher, recs []trace.Record) Result {
	if need := cfg.WarmupInstrs + cfg.MeasureOffsetInstrs + cfg.MeasureInstrs; uint64(len(recs)) != need {
		panic(fmt.Sprintf("refRun: %d records for %d instructions", len(recs), need))
	}
	s := newRefSim(cfg, pf, wl.Seed)
	next := 0
	feed := func(n uint64) {
		for ; n > 0; n-- {
			s.step(recs[next])
			next++
		}
	}
	if cfg.WarmupInstrs > 0 {
		feed(cfg.WarmupInstrs)
		s.reset()
	}
	feed(cfg.MeasureOffsetInstrs)
	a := s.counters()
	feed(cfg.MeasureInstrs)
	b := s.counters()

	l1 := b.l1
	l1.Sub(a.l1)
	r := Result{
		Workload:         wl.Name,
		Prefetcher:       pf.Name(),
		Instructions:     b.instrs - a.instrs,
		Cycles:           b.cycles - a.cycles,
		L1:               l1,
		FE:               s.fe.Stats(),
		CorrectAccesses:  b.accesses - a.accesses,
		CorrectMisses:    b.misses - a.misses,
		CoveredMisses:    b.covered - a.covered,
		StallCycles:      b.stall - a.stall,
		PrefetchesIssued: b.issued - a.issued,
	}
	if r.Cycles > 0 {
		r.UIPC = float64(r.Instructions) / float64(r.Cycles)
	}
	return r
}

// referenceEngines are the engines the oracle covers: the baselines, and
// PIF with and without per-trap-level histories.
var referenceEngines = []string{"none", "nextline", "tifs", "pif", "pif-nosep"}

// resolve builds a fresh engine instance for spec name.
func resolve(t *testing.T, name string) prefetch.Prefetcher {
	t.Helper()
	pf, err := prefetch.Resolve(prefetch.Spec{Name: name})
	if err != nil {
		t.Fatal(err)
	}
	return pf
}

// randomRecords generates a seeded retire-order stream. Routines sit
// above a random base, or above address 0 on a third of the seeds, and
// the hottest one starts at the base itself, so block 0 is simulated.
// Routine bodies recur, so the history-based engines have streams to
// learn. Straight-line runs are broken by conditional branches of
// per-routine bias, each routine ends in a transfer to the next, and
// trap-level-1 routines run as handler excursions.
func randomRecords(seed int64, n int) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	type routine struct {
		start isa.Addr
		instr int
		bias  int // percent of conditional branches taken
		tl    isa.TrapLevel
	}
	base := isa.Addr(0)
	if rng.Intn(3) > 0 {
		base = isa.Addr(rng.Int63n(1<<34)) &^ (isa.BlockBytes - 1)
	}
	routines := make([]routine, 8+rng.Intn(400))
	for i := range routines {
		routines[i] = routine{
			start: base + isa.Addr(rng.Intn(1<<22))&^(isa.InstrBytes-1),
			instr: 4 + rng.Intn(200),
			bias:  rng.Intn(101),
		}
		if rng.Intn(8) == 0 {
			routines[i].tl = isa.TL1
		}
	}
	routines[0].start, routines[0].tl = base, isa.TL0
	pick := rand.NewZipf(rng, 1.1, 4, uint64(len(routines)-1))

	out := make([]trace.Record, 0, n)
	pending := trace.FlagCallTarget
	for len(out) < n {
		r := routines[pick.Uint64()]
		if r.tl == isa.TL1 {
			pending = trace.FlagTrapEntry
		}
		pc := r.start
		for i := 0; i < r.instr && len(out) < n; i++ {
			rec := trace.Record{PC: pc, TL: r.tl, Flags: pending}
			pending = 0
			pc = pc.Plus(1)
			if rng.Intn(10) == 0 {
				rec.Flags |= trace.FlagCondBranch
				if rng.Intn(100) < r.bias {
					rec.Flags |= trace.FlagBranchTaken
					pc = pc.Plus(rng.Intn(48) - 8)
				}
			}
			out = append(out, rec)
		}
		// The routine ends in a transfer to the next one.
		out[len(out)-1].Flags |= trace.FlagBranchTaken
		switch {
		case r.tl == isa.TL1:
			pending = trace.FlagTrapReturn
		case rng.Intn(2) == 0:
			pending = trace.FlagReturnTarget
		default:
			pending = trace.FlagCallTarget
		}
	}
	return out
}

// TestReferenceRandomStreams: on seeded random record streams the
// optimized Simulator, driven through RunJob's replay path, reports
// exactly the reference simulator's Result for every engine — with a
// measure offset, with a perfect L1, and with heavy context-switch
// pollution.
func TestReferenceRandomStreams(t *testing.T) {
	base := Config{System: config.Default(), WarmupInstrs: 60_000, MeasureInstrs: 40_000}
	offset := base
	offset.MeasureOffsetInstrs = 25_000
	perfect := base
	perfect.PerfectL1 = true
	polluted := base
	polluted.System.CtxSwitchEveryInstrs = 3_000
	polluted.System.CtxSwitchBlocks = 700
	cfgs := map[string]Config{"base": base, "offset": offset, "perfect": perfect, "polluted": polluted}

	for seed := int64(1); seed <= 6; seed++ {
		for name, cfg := range cfgs {
			n := int(cfg.WarmupInstrs + cfg.MeasureOffsetInstrs + cfg.MeasureInstrs)
			recs := randomRecords(seed, n)
			wl := workload.Profile{Name: "random", Seed: seed}
			for _, e := range referenceEngines {
				want := refRun(cfg, wl, resolve(t, e), recs)
				got, err := RunJob(context.Background(), Job{
					Config:   cfg,
					Workload: wl,
					From: openerSource(func() (trace.BatchIterator, error) {
						return trace.Stream(recs).Iter(), nil
					}),
					Engine: prefetch.Spec{Name: e},
				})
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("seed %d, %s, %s:\n got  %+v\n want %+v", seed, name, e, got, want)
				}
			}
		}
	}
}

// TestReferenceStandardProfiles: on every standard workload profile,
// executed live, the optimized Simulator reports exactly the reference
// simulator's Result for every engine, run alone and as one row of all
// of them; one profile also runs with a measure offset.
func TestReferenceStandardProfiles(t *testing.T) {
	cfg := replayConfig()
	for i, wl := range workload.StandardSuite() {
		cfg := cfg
		if i == 0 {
			cfg.MeasureOffsetInstrs = 30_000
		}
		prog, err := workload.BuildProgram(wl)
		if err != nil {
			t.Fatal(err)
		}
		// The records liveRow's executor emits, phase by phase.
		var recs []trace.Record
		ex := workload.NewExecutor(prog)
		for _, n := range []uint64{cfg.WarmupInstrs, cfg.MeasureOffsetInstrs, cfg.MeasureInstrs} {
			if n > 0 {
				ex.Run(n, func(r trace.Record) { recs = append(recs, r) })
			}
		}
		jobs := make([]Job, len(referenceEngines))
		wants := make([]Result, len(referenceEngines))
		for i, e := range referenceEngines {
			wants[i] = refRun(cfg, wl, resolve(t, e), recs)
			jobs[i] = Job{Config: cfg, Workload: wl, Program: prog, Engine: prefetch.Spec{Name: e}}
			got, err := RunJob(context.Background(), jobs[i])
			if err != nil {
				t.Fatal(err)
			}
			if got != wants[i] {
				t.Errorf("%s, %s (offset %d):\n got  %+v\n want %+v", wl.Name, e, cfg.MeasureOffsetInstrs, got, wants[i])
			}
		}
		checkRowAgainst(t, wl.Name, jobs, wants)
	}
}

// checkRowAgainst runs jobs as one row and requires the reference
// simulator's result for each.
func checkRowAgainst(t *testing.T, name string, jobs []Job, wants []Result) {
	t.Helper()
	rows, errs := RunRow(context.Background(), jobs)
	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatalf("%s: row member %s: %v", name, j.Engine.Name, errs[i])
		}
		if rows[i] != wants[i] {
			t.Errorf("%s: row member %s:\n got  %+v\n want %+v", name, j.Engine.Name, rows[i], wants[i])
		}
	}
}
