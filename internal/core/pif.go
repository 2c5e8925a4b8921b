package core

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/prefetch"
	"repro/internal/trace"
)

// Config parameterizes a PIF instance (Section 4, Figure 4).
type Config struct {
	// Geometry is the spatial region shape (paper: 2 preceding + trigger
	// + 5 succeeding blocks).
	Geometry Geometry
	// TemporalDepth is the temporal compactor MRU depth (0 disables).
	TemporalDepth int
	// TemporalDepthTL1 is the MRU depth for the trap-level-1 engine
	// (0 means use TemporalDepth). Handler records are few but must stay
	// resident across invocations so the index keeps pointing at
	// superset bit vectors; a deeper MRU is nearly free at TL1 rates.
	TemporalDepthTL1 int
	// HistoryRegions is the history buffer capacity (paper knee: 32K).
	HistoryRegions int
	// IndexEntries is the index table capacity.
	IndexEntries int
	// NumSABs is the number of stream address buffers (paper: 4).
	NumSABs int
	// SABWindow is the regions tracked per SAB (paper: 7).
	SABWindow int
	// SeparateTrapLevels records TL0 and TL1 into separate histories
	// (the paper's RetireSep configuration, on by default).
	SeparateTrapLevels bool
}

// DefaultConfig is the paper's configuration.
func DefaultConfig() Config {
	return Config{
		Geometry:           DefaultGeometry(),
		TemporalDepth:      4,
		TemporalDepthTL1:   16,
		HistoryRegions:     32 << 10,
		IndexEntries:       8 << 10,
		NumSABs:            4,
		SABWindow:          7,
		SeparateTrapLevels: true,
	}
}

// Validate rejects inconsistent configurations.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if c.HistoryRegions < 1 {
		return fmt.Errorf("core: HistoryRegions = %d", c.HistoryRegions)
	}
	if c.IndexEntries < 1 {
		return fmt.Errorf("core: IndexEntries = %d", c.IndexEntries)
	}
	if c.NumSABs < 1 || c.SABWindow < 1 {
		return fmt.Errorf("core: NumSABs = %d, SABWindow = %d", c.NumSABs, c.SABWindow)
	}
	if c.TemporalDepth < 0 || c.TemporalDepthTL1 < 0 {
		return fmt.Errorf("core: TemporalDepth = %d, TL1 = %d", c.TemporalDepth, c.TemporalDepthTL1)
	}
	return nil
}

// Stats counts PIF events.
type Stats struct {
	RetiredBlocks   uint64 // block-grain retire events
	RegionsEmitted  uint64 // spatial compactor outputs
	RegionsAdmitted uint64 // past the temporal compactor, into history
	IndexInserts    uint64
	Triggers        uint64 // SAB allocations from index hits
	Advances        uint64 // SAB window advances
}

// engine is the per-trap-level recording and replay machinery.
type engine struct {
	spatial  *SpatialCompactor
	temporal *TemporalCompactor
	history  *HistoryBuffer
	index    *IndexTable
	sabs     *sabFile

	lastBlock isa.Block
	haveLast  bool
}

// PIF is the Proactive Instruction Fetch prefetcher. It implements
// prefetch.Prefetcher: OnRetire feeds the compaction/recording pipeline and
// OnAccess drives triggering and SAB advancement.
type PIF struct {
	cfg     Config
	engines [isa.NumTrapLevels]*engine
	stats   Stats
}

// SetStreamEndHook registers a callback invoked with the number of demand
// fetches each stream served before its SAB was replaced (Figure 9 left).
func (p *PIF) SetStreamEndHook(fn func(advances uint64)) {
	for _, e := range p.engines {
		if e != nil {
			e.sabs.onStreamEnd = fn
		}
	}
}

// New builds a PIF; it panics on an invalid configuration.
func New(cfg Config) *PIF {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &PIF{cfg: cfg}
	n := 1
	if cfg.SeparateTrapLevels {
		n = isa.NumTrapLevels
	}
	for i := 0; i < n; i++ {
		depth := cfg.TemporalDepth
		if i == int(isa.TL1) && cfg.TemporalDepthTL1 > 0 {
			depth = cfg.TemporalDepthTL1
		}
		p.engines[i] = &engine{
			spatial:  NewSpatialCompactor(cfg.Geometry),
			temporal: NewTemporalCompactor(depth),
			history:  NewHistoryBuffer(cfg.HistoryRegions),
			index:    NewIndexTable(cfg.IndexEntries),
			sabs:     newSABFile(cfg.NumSABs, cfg.SABWindow, cfg.Geometry),
		}
	}
	return p
}

// Name implements prefetch.Prefetcher.
func (p *PIF) Name() string { return "PIF" }

// Config returns the configuration.
func (p *PIF) Config() Config { return p.cfg }

// Stats returns a copy of the counters.
func (p *PIF) Stats() Stats { return p.stats }

// engineFor returns the recording engine for a trap level.
func (p *PIF) engineFor(tl isa.TrapLevel) *engine {
	if !p.cfg.SeparateTrapLevels || int(tl) >= len(p.engines) || p.engines[tl] == nil {
		return p.engines[0]
	}
	return p.engines[tl]
}

// OnAccess implements prefetch.Prefetcher. Demand accesses advance active
// streams; accesses that were not served by a prefetch probe the index and
// may trigger a new stream replay.
func (p *PIF) OnAccess(ev prefetch.AccessEvent, iss prefetch.Issuer) {
	e := p.engineFor(ev.TL)
	if e.sabs.advance(ev.Block, e.history, iss) {
		p.stats.Advances++
		return
	}
	// Trigger: a fetch not explicitly prefetched whose block heads a
	// recorded stream starts a replay (Section 4.3). Stream heads may hit
	// in the cache — triggering is not conditioned on a miss.
	if ev.Prefetched() {
		return
	}
	if pos, ok := e.index.Get(ev.Block); ok {
		e.sabs.allocate(pos, e.history, iss)
		p.stats.Triggers++
	}
}

// OnRetire implements prefetch.Prefetcher: the retire-order recording path.
// Consecutive same-block retirements collapse to one block-grain event
// before spatial compaction (Section 4.1).
func (p *PIF) OnRetire(r trace.Record, tagged bool, iss prefetch.Issuer) {
	e := p.engineFor(r.TL)
	b := r.Block()
	if e.haveLast && b == e.lastBlock {
		return
	}
	p.stats.RetiredBlocks++
	e.lastBlock, e.haveLast = b, true

	region, emitted := e.spatial.Observe(b, r.TL, tagged)
	if !emitted {
		return
	}
	p.recordRegion(e, region)
}

// recordRegion runs a closed spatial region through the temporal compactor
// and, when admitted, appends it to the history buffer and (for tagged
// triggers) the index table.
func (p *PIF) recordRegion(e *engine, region Region) {
	p.stats.RegionsEmitted++
	if !e.temporal.Filter(region) {
		return
	}
	p.stats.RegionsAdmitted++
	pos := e.history.Append(region)
	if region.TriggerTagged {
		e.index.Put(region.Trigger, pos)
		p.stats.IndexInserts++
	}
}

// Flush closes any open spatial regions into the history (end of trace).
func (p *PIF) Flush() {
	for _, e := range p.engines {
		if e == nil {
			continue
		}
		if region, ok := e.spatial.Flush(); ok {
			p.recordRegion(e, region)
		}
	}
}

// InWindow reports whether block b is inside a live SAB window at trap
// level tl (observability for tests and diagnostics).
func (p *PIF) InWindow(b isa.Block, tl isa.TrapLevel) bool {
	return p.engineFor(tl).sabs.covered(b)
}

// liveSABs returns the number of active stream address buffers across all
// trap levels.
func (p *PIF) liveSABs() int {
	n := 0
	for _, e := range p.engines {
		if e != nil {
			n += e.sabs.liveCount()
		}
	}
	return n
}
