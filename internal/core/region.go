// Package core implements Proactive Instruction Fetch — the paper's
// contribution: spatial/temporal compaction of the retire-order instruction
// stream into a history buffer, an index of stream heads, and stream
// address buffers that replay recorded streams to prefetch the L1-I.
package core

import (
	"fmt"

	"repro/internal/isa"
)

// Geometry describes a spatial region: Prec blocks preceding the trigger
// and Succ blocks succeeding it, Prec+1+Succ blocks in total (the paper's
// configuration is 2 preceding + trigger + 5 succeeding = 8 blocks).
type Geometry struct {
	Prec int
	Succ int
}

// DefaultGeometry is the paper's 8-block region (Section 5.2).
func DefaultGeometry() Geometry { return Geometry{Prec: 2, Succ: 5} }

// Validate rejects degenerate geometries.
func (g Geometry) Validate() error {
	if g.Prec < 0 || g.Succ < 0 {
		return fmt.Errorf("core: negative region geometry %+v", g)
	}
	if g.Size() > 64 {
		return fmt.Errorf("core: region size %d exceeds 64-bit vector", g.Size())
	}
	if g.Size() < 1 {
		return fmt.Errorf("core: empty region")
	}
	return nil
}

// Size returns the total number of blocks covered by a region.
func (g Geometry) Size() int { return g.Prec + 1 + g.Succ }

// Contains reports whether block b falls inside the region anchored at
// trigger under this geometry.
func (g Geometry) Contains(trigger, b isa.Block) bool {
	d := trigger.Distance(b)
	return d >= -g.Prec && d <= g.Succ
}

// BitFor returns the bit-vector position for block b in a region anchored
// at trigger: positions 0..Prec-1 are the preceding blocks (most distant
// first), position Prec is the trigger, Prec+1.. are the succeeding blocks.
func (g Geometry) BitFor(trigger, b isa.Block) (int, bool) {
	d := trigger.Distance(b)
	if d < -g.Prec || d > g.Succ {
		return 0, false
	}
	return d + g.Prec, true
}

// Region is one spatial region record: the unit stored in the history
// buffer. Bits holds one bit per block of the region (see Geometry.BitFor);
// the trigger bit is always set.
type Region struct {
	// Trigger is the block of the first access in the region.
	Trigger isa.Block
	// Bits is the accessed-block bit vector.
	Bits uint64
	// TL is the trap level the region was recorded at.
	TL isa.TrapLevel
	// TriggerTagged records whether the trigger instruction's fetch was
	// not served by a prefetch; only such regions enter the index table.
	TriggerTagged bool
}

// NewRegion starts a region at trigger with only the trigger bit set.
func NewRegion(g Geometry, trigger isa.Block, tl isa.TrapLevel, tagged bool) Region {
	return Region{
		Trigger:       trigger,
		Bits:          1 << uint(g.Prec),
		TL:            tl,
		TriggerTagged: tagged,
	}
}

// Set marks block b accessed; it reports whether b was inside the region.
func (r *Region) Set(g Geometry, b isa.Block) bool {
	bit, ok := g.BitFor(r.Trigger, b)
	if !ok {
		return false
	}
	r.Bits |= 1 << uint(bit)
	return true
}

// Has reports whether block b is marked accessed. It is Geometry.BitFor
// folded into one unsigned range check: d is b's bit position, and a
// block before the region wraps d past every valid position. Small
// enough to inline into the SAB window scan.
func (r Region) Has(g Geometry, b isa.Block) bool {
	d := uint64(b) - uint64(r.Trigger) + uint64(g.Prec)
	return d < uint64(g.Size()) && r.Bits>>d&1 != 0
}

// SubsetOf reports whether every block of r is also in s (same trigger).
// It is the temporal compactor's match condition.
func (r Region) SubsetOf(s Region) bool {
	return r.Trigger == s.Trigger && r.Bits&^s.Bits == 0
}

// PopCount returns the number of accessed blocks in the region.
func (r Region) PopCount() int {
	n := 0
	for v := r.Bits; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// Blocks appends the accessed block addresses in left-to-right bit order
// (preceding blocks, trigger, then succeeding blocks) — the order the SAB
// issues prefetches, which typically matches the core's demand order.
func (r Region) Blocks(g Geometry, dst []isa.Block) []isa.Block {
	for bit := 0; bit < g.Size(); bit++ {
		if r.Bits&(1<<uint(bit)) != 0 {
			dst = append(dst, r.Trigger.Add(bit-g.Prec))
		}
	}
	return dst
}

// SeqGroups returns the number of maximal runs of consecutive set bits —
// 1 means the accessed blocks are contiguous; ≥2 means the region was
// accessed discontinuously (Figure 3 right counts these).
func (r Region) SeqGroups() int {
	groups := 0
	prev := false
	for v, i := r.Bits, 0; i < 64; i++ {
		cur := v&(1<<uint(i)) != 0
		if cur && !prev {
			groups++
		}
		prev = cur
	}
	return groups
}

// String renders the region for diagnostics.
func (r Region) String() string {
	return fmt.Sprintf("region{%v bits=%#x %v}", r.Trigger, r.Bits, r.TL)
}
