package cache

import (
	"math/rand"

	"repro/internal/isa"
)

// foreignBase places pollution blocks far from any workload segment.
const foreignBase isa.Block = 0x7f00_0000 >> isa.BlockShift

// Polluter models context-switch pollution of a private L1-I: at
// exponentially distributed instruction intervals another thread runs and
// fills the cache with part of its own footprint, randomizing the resident
// set the way full-system scheduling does. The paper identifies exactly
// this microarchitectural randomness as a cause of miss-stream
// fragmentation; the retire-order stream is immune to it.
type Polluter struct {
	meanGap int
	blocks  int
	rng     *rand.Rand
	in      int
}

// NewPolluter builds a polluter; meanGap 0 or blocks 0 disables it.
func NewPolluter(meanGap, blocks int, seed int64) *Polluter {
	p := &Polluter{meanGap: meanGap, blocks: blocks, rng: rand.New(rand.NewSource(seed))}
	if p.enabled() {
		p.in = p.nextGap()
	}
	return p
}

func (p *Polluter) enabled() bool { return p.meanGap > 0 && p.blocks > 0 }

func (p *Polluter) nextGap() int {
	g := int(p.rng.ExpFloat64() * float64(p.meanGap))
	if g < 1 {
		g = 1
	}
	return g
}

// Tick advances the polluter by one retired instruction; when a context
// switch fires it fills foreign blocks into c and returns true.
func (p *Polluter) Tick(c *Cache) bool {
	if !p.enabled() {
		return false
	}
	p.in--
	if p.in > 0 {
		return false
	}
	p.fire(c)
	return true
}

// TickN advances the polluter by n retired instructions: exactly n Tick
// calls, with each context switch firing on the instruction it falls on
// and drawing the same gaps and foreign blocks.
func (p *Polluter) TickN(c *Cache, n int) {
	if !p.enabled() {
		return
	}
	for n >= p.in {
		n -= p.in
		p.fire(c)
	}
	p.in -= n
}

// fire runs one context switch: it fills the foreign thread's blocks into
// c and draws the gap to the next switch.
func (p *Polluter) fire(c *Cache) {
	p.in = p.nextGap()
	for i := 0; i < p.blocks; i++ {
		b := foreignBase + isa.Block(p.rng.Intn(1<<16))
		c.Fill(b, false)
	}
}
