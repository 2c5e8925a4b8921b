// Package bpred implements the hybrid branch predictor from the paper's
// Table I: a 16K-entry gshare and a 16K-entry bimodal predictor combined by
// a chooser table, plus a branch target buffer and a return address stack.
//
// In this repository the predictor's role is to produce realistic
// wrong-path noise: the front-end model (internal/frontend) consults it for
// every conditional branch of the retire stream, and a misprediction makes
// the fetch engine run down the wrong path for a data-dependent number of
// blocks before the pipeline squashes it — the exact effect the paper shows
// polluting access-stream history (Figure 1, right).
package bpred

import (
	"fmt"

	"repro/internal/isa"
)

// Config sizes the predictor tables.
type Config struct {
	// GShareEntries is the number of 2-bit gshare counters.
	GShareEntries int
	// BimodalEntries is the number of 2-bit bimodal counters.
	BimodalEntries int
	// ChooserEntries is the number of 2-bit chooser counters.
	ChooserEntries int
	// BTBEntries is the number of branch-target-buffer entries.
	BTBEntries int
	// RASDepth is the return-address-stack depth.
	RASDepth int
	// HistoryBits is the global history length used by gshare.
	HistoryBits int
}

// DefaultConfig mirrors Table I: 16K gshare and 16K bimodal.
func DefaultConfig() Config {
	return Config{
		GShareEntries:  16 << 10,
		BimodalEntries: 16 << 10,
		ChooserEntries: 16 << 10,
		BTBEntries:     4 << 10,
		RASDepth:       32,
		HistoryBits:    14,
	}
}

// Validate checks table sizes are positive powers of two where indexed.
func (c Config) Validate() error {
	for _, e := range []struct {
		name string
		n    int
	}{
		{"GShareEntries", c.GShareEntries},
		{"BimodalEntries", c.BimodalEntries},
		{"ChooserEntries", c.ChooserEntries},
		{"BTBEntries", c.BTBEntries},
	} {
		if e.n <= 0 || e.n&(e.n-1) != 0 {
			return fmt.Errorf("bpred: %s = %d must be a positive power of two", e.name, e.n)
		}
	}
	if c.RASDepth <= 0 {
		return fmt.Errorf("bpred: RASDepth = %d must be positive", c.RASDepth)
	}
	if c.HistoryBits <= 0 || c.HistoryBits > 30 {
		return fmt.Errorf("bpred: HistoryBits = %d out of range", c.HistoryBits)
	}
	return nil
}

// counter is a 2-bit saturating counter; values 0..1 predict not-taken,
// 2..3 predict taken.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) update(taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Stats counts predictor events.
type Stats struct {
	CondBranches   uint64
	Mispredictions uint64
	BTBLookups     uint64
	BTBHits        uint64
	RASPushes      uint64
	RASPops        uint64
}

// MispredictRate returns mispredictions per conditional branch.
func (s Stats) MispredictRate() float64 {
	if s.CondBranches == 0 {
		return 0
	}
	return float64(s.Mispredictions) / float64(s.CondBranches)
}

// btbEntry maps a branch PC to its most recent taken target.
type btbEntry struct {
	tag    uint64
	target isa.Addr
	valid  bool
}

// Predictor is the hybrid gshare/bimodal predictor with BTB and RAS.
type Predictor struct {
	cfg      Config
	gshare   []counter
	bimodal  []counter
	chooser  []counter // ≥2 selects gshare
	btb      []btbEntry
	ras      []isa.Addr
	history  uint64
	histMask uint64
	stats    Stats
}

// New builds a predictor with counters initialized weakly-not-taken and the
// chooser unbiased. It panics on invalid configuration.
func New(cfg Config) *Predictor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Predictor{
		cfg:      cfg,
		gshare:   make([]counter, cfg.GShareEntries),
		bimodal:  make([]counter, cfg.BimodalEntries),
		chooser:  make([]counter, cfg.ChooserEntries),
		btb:      make([]btbEntry, cfg.BTBEntries),
		ras:      make([]isa.Addr, 0, cfg.RASDepth),
		histMask: (1 << uint(cfg.HistoryBits)) - 1,
	}
	for i := range p.chooser {
		p.chooser[i] = 2 // weakly prefer gshare
	}
	for i := range p.bimodal {
		p.bimodal[i] = 1 // weakly not taken
	}
	for i := range p.gshare {
		p.gshare[i] = 1
	}
	return p
}

// Stats returns a copy of the event counters.
func (p *Predictor) Stats() Stats { return p.stats }

// ResetStats zeroes the event counters.
func (p *Predictor) ResetStats() { p.stats = Stats{} }

// The table indexes mask instead of taking a remainder: Validate
// requires every table size to be a power of two, so the two agree.
func (p *Predictor) gshareIndex(pc isa.Addr) int {
	h := (uint64(pc) >> 2) ^ (p.history & p.histMask)
	return int(h & uint64(p.cfg.GShareEntries-1))
}

func (p *Predictor) bimodalIndex(pc isa.Addr) int {
	return int((uint64(pc) >> 2) & uint64(p.cfg.BimodalEntries-1))
}

func (p *Predictor) chooserIndex(pc isa.Addr) int {
	return int((uint64(pc) >> 2) & uint64(p.cfg.ChooserEntries-1))
}

// predictCond predicts the direction of a conditional branch at pc.
func (p *Predictor) predictCond(pc isa.Addr) bool {
	if p.chooser[p.chooserIndex(pc)].taken() {
		return p.gshare[p.gshareIndex(pc)].taken()
	}
	return p.bimodal[p.bimodalIndex(pc)].taken()
}

// UpdateCond trains the predictor with the resolved direction of the branch
// at pc and returns whether the earlier prediction was wrong. It updates
// the component predictors, the chooser (toward the component that was
// right when they disagreed), and the global history register.
func (p *Predictor) UpdateCond(pc isa.Addr, taken bool) (mispredicted bool) {
	gi, bi, ci := p.gshareIndex(pc), p.bimodalIndex(pc), p.chooserIndex(pc)
	gPred := p.gshare[gi].taken()
	bPred := p.bimodal[bi].taken()
	useG := p.chooser[ci].taken()
	pred := bPred
	if useG {
		pred = gPred
	}
	mispredicted = pred != taken

	p.stats.CondBranches++
	if mispredicted {
		p.stats.Mispredictions++
	}
	if gPred != bPred {
		p.chooser[ci] = p.chooser[ci].update(gPred == taken)
	}
	p.gshare[gi] = p.gshare[gi].update(taken)
	p.bimodal[bi] = p.bimodal[bi].update(taken)
	p.history = ((p.history << 1) | boolBit(taken)) & p.histMask
	return mispredicted
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// BTBLookup returns the predicted target for a taken control transfer at pc.
func (p *Predictor) BTBLookup(pc isa.Addr) (isa.Addr, bool) {
	p.stats.BTBLookups++
	e := &p.btb[p.btbIndex(pc)]
	if e.valid && e.tag == uint64(pc) {
		p.stats.BTBHits++
		return e.target, true
	}
	return 0, false
}

// BTBUpdate records the resolved target of the control transfer at pc.
func (p *Predictor) BTBUpdate(pc, target isa.Addr) {
	e := &p.btb[p.btbIndex(pc)]
	e.tag = uint64(pc)
	e.target = target
	e.valid = true
}

func (p *Predictor) btbIndex(pc isa.Addr) int {
	return int((uint64(pc) >> 2) & uint64(p.cfg.BTBEntries-1))
}

// RASPush records a call's return address.
func (p *Predictor) RASPush(ret isa.Addr) {
	p.stats.RASPushes++
	if len(p.ras) == p.cfg.RASDepth {
		// Overflow discards the oldest entry, like a hardware circular RAS.
		copy(p.ras, p.ras[1:])
		p.ras[len(p.ras)-1] = ret
		return
	}
	p.ras = append(p.ras, ret)
}

// RASPop predicts a return target; ok is false when the stack is empty.
func (p *Predictor) RASPop() (isa.Addr, bool) {
	p.stats.RASPops++
	if len(p.ras) == 0 {
		return 0, false
	}
	top := p.ras[len(p.ras)-1]
	p.ras = p.ras[:len(p.ras)-1]
	return top, true
}

// RASDepthNow returns the current stack depth (observability for tests).
func (p *Predictor) RASDepthNow() int { return len(p.ras) }
