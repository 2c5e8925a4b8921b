package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestGeometryValidate(t *testing.T) {
	if err := DefaultGeometry().Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
	if (Geometry{Prec: -1, Succ: 5}).Validate() == nil {
		t.Error("negative Prec accepted")
	}
	if (Geometry{Prec: 30, Succ: 40}).Validate() == nil {
		t.Error("oversized region accepted")
	}
}

func TestGeometrySize(t *testing.T) {
	g := DefaultGeometry()
	if g.Size() != 8 {
		t.Errorf("paper geometry size = %d, want 8", g.Size())
	}
}

func TestGeometryContains(t *testing.T) {
	g := Geometry{Prec: 2, Succ: 5}
	trig := isa.Block(100)
	for d := -4; d <= 8; d++ {
		want := d >= -2 && d <= 5
		if got := g.Contains(trig, trig.Add(d)); got != want {
			t.Errorf("Contains(d=%d) = %v, want %v", d, got, want)
		}
	}
}

func TestBitForRoundTrip(t *testing.T) {
	g := Geometry{Prec: 2, Succ: 5}
	trig := isa.Block(100)
	seen := map[int]bool{}
	for d := -2; d <= 5; d++ {
		bit, ok := g.BitFor(trig, trig.Add(d))
		if !ok {
			t.Fatalf("BitFor(d=%d) rejected", d)
		}
		if bit < 0 || bit >= g.Size() || seen[bit] {
			t.Fatalf("BitFor(d=%d) = %d invalid or duplicate", d, bit)
		}
		seen[bit] = true
	}
	if _, ok := g.BitFor(trig, trig.Add(-3)); ok {
		t.Error("out-of-region block accepted")
	}
}

func TestNewRegionTriggerBit(t *testing.T) {
	g := DefaultGeometry()
	r := NewRegion(g, 50, isa.TL0, true)
	if !r.Has(g, 50) {
		t.Error("trigger block not marked")
	}
	if r.PopCount() != 1 {
		t.Errorf("fresh region popcount = %d, want 1", r.PopCount())
	}
	if !r.TriggerTagged {
		t.Error("tag lost")
	}
}

func TestRegionSetHas(t *testing.T) {
	g := DefaultGeometry()
	r := NewRegion(g, 100, isa.TL0, false)
	if !r.Set(g, 101) || !r.Set(g, 98) || !r.Set(g, 105) {
		t.Fatal("in-region blocks rejected")
	}
	if r.Set(g, 97) || r.Set(g, 106) {
		t.Fatal("out-of-region blocks accepted")
	}
	for _, b := range []isa.Block{98, 100, 101, 105} {
		if !r.Has(g, b) {
			t.Errorf("block %v should be set", b)
		}
	}
	if r.Has(g, 99) || r.Has(g, 102) {
		t.Error("unset blocks reported")
	}
	if r.PopCount() != 4 {
		t.Errorf("popcount = %d, want 4", r.PopCount())
	}
}

func TestRegionBlocksOrdered(t *testing.T) {
	g := DefaultGeometry()
	r := NewRegion(g, 100, isa.TL0, false)
	r.Set(g, 98)
	r.Set(g, 103)
	blocks := r.Blocks(g, nil)
	want := []isa.Block{98, 100, 103}
	if len(blocks) != len(want) {
		t.Fatalf("Blocks = %v", blocks)
	}
	for i := range want {
		if blocks[i] != want[i] {
			t.Errorf("Blocks[%d] = %v, want %v", i, blocks[i], want[i])
		}
	}
}

func TestBlocksMatchesHasProperty(t *testing.T) {
	g := DefaultGeometry()
	f := func(trigRaw uint32, mask uint8) bool {
		trig := isa.Block(trigRaw) + 10
		r := NewRegion(g, trig, isa.TL0, false)
		for d := -2; d <= 5; d++ {
			if mask&(1<<uint(d+2)) != 0 {
				r.Set(g, trig.Add(d))
			}
		}
		blocks := r.Blocks(g, nil)
		if len(blocks) != r.PopCount() {
			return false
		}
		for _, b := range blocks {
			if !r.Has(g, b) {
				return false
			}
		}
		// Ordered ascending.
		for i := 1; i < len(blocks); i++ {
			if blocks[i] <= blocks[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSubsetOf(t *testing.T) {
	g := DefaultGeometry()
	big := NewRegion(g, 100, isa.TL0, false)
	big.Set(g, 101)
	big.Set(g, 102)
	small := NewRegion(g, 100, isa.TL0, false)
	small.Set(g, 101)
	if !small.SubsetOf(big) {
		t.Error("subset not detected")
	}
	if big.SubsetOf(small) {
		t.Error("superset wrongly detected as subset")
	}
	other := NewRegion(g, 200, isa.TL0, false)
	if other.SubsetOf(big) {
		t.Error("different trigger should never match")
	}
	if !big.SubsetOf(big) {
		t.Error("region should be subset of itself")
	}
}

func TestSeqGroups(t *testing.T) {
	g := DefaultGeometry()
	r := NewRegion(g, 100, isa.TL0, false)
	if r.SeqGroups() != 1 {
		t.Errorf("single bit groups = %d, want 1", r.SeqGroups())
	}
	r.Set(g, 101)
	if r.SeqGroups() != 1 {
		t.Errorf("contiguous groups = %d, want 1", r.SeqGroups())
	}
	r.Set(g, 104) // gap at 102,103
	if r.SeqGroups() != 2 {
		t.Errorf("discontinuous groups = %d, want 2", r.SeqGroups())
	}
	r.Set(g, 98) // another group before the trigger
	if r.SeqGroups() != 3 {
		t.Errorf("groups = %d, want 3", r.SeqGroups())
	}
}

func TestSeqGroupsRandomized(t *testing.T) {
	// SeqGroups must equal a straightforward scan over bit runs.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		r := Region{Bits: rng.Uint64() & 0xff}
		if r.Bits == 0 {
			continue
		}
		want, prev := 0, false
		for k := 0; k < 8; k++ {
			cur := r.Bits&(1<<uint(k)) != 0
			if cur && !prev {
				want++
			}
			prev = cur
		}
		if got := r.SeqGroups(); got != want {
			t.Fatalf("SeqGroups(%#x) = %d, want %d", r.Bits, got, want)
		}
	}
}

func TestRegionString(t *testing.T) {
	r := NewRegion(DefaultGeometry(), 5, isa.TL1, false)
	if r.String() == "" {
		t.Error("empty String()")
	}
}

// allGeometries lists every valid geometry: Prec, Succ >= 0 and at most
// 64 blocks in all.
func allGeometries() []Geometry {
	var gs []Geometry
	for prec := 0; prec < 64; prec++ {
		for succ := 0; prec+1+succ <= 64; succ++ {
			gs = append(gs, Geometry{Prec: prec, Succ: succ})
		}
	}
	return gs
}

// TestHasMatchesBitFor: for every valid geometry, Region.Has agrees with
// its definition through Geometry.BitFor on blocks inside, at the edges
// of, and far from the region, for triggers at both ends of the block
// space and random bit vectors.
func TestHasMatchesBitFor(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range allGeometries() {
		if err := g.Validate(); err != nil {
			t.Fatalf("geometry %+v: %v", g, err)
		}
		for _, trig := range []isa.Block{0, 1, 5, ^isa.Block(0), ^isa.Block(0) - 3, isa.Block(rng.Uint64())} {
			r := Region{Trigger: trig, Bits: rng.Uint64()}
			for d := -g.Prec - 3; d <= g.Succ+3; d++ {
				for _, b := range []isa.Block{trig.Add(d), trig.Add(d) ^ 1<<63, isa.Block(rng.Uint64())} {
					bit, ok := g.BitFor(r.Trigger, b)
					want := ok && r.Bits&(1<<uint(bit)) != 0
					if got := r.Has(g, b); got != want {
						t.Fatalf("%+v %v: Has(%v) = %v, BitFor says %v", g, r, b, got, want)
					}
				}
			}
		}
	}
}

// TestSABIssueOrderMatchesBlocks: for every valid geometry, the SAB's
// bit-vector walk issues exactly Region.Blocks, in the same order, for
// random bit vectors within the geometry.
func TestSABIssueOrderMatchesBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, g := range allGeometries() {
		f := newSABFile(1, 1, g)
		inGeom := ^uint64(0) >> (64 - g.Size())
		for i := 0; i < 8; i++ {
			r := Region{
				Trigger: isa.Block(rng.Uint64() >> uint(rng.Intn(64))),
				Bits:    rng.Uint64() >> uint(rng.Intn(64)) & inGeom,
			}
			iss := newFakeIssuer()
			f.issue(r, iss)
			want := r.Blocks(g, nil)
			if len(iss.prefetched) != len(want) {
				t.Fatalf("%+v %v: issued %v, Blocks %v", g, r, iss.prefetched, want)
			}
			for j := range want {
				if iss.prefetched[j] != want[j] {
					t.Fatalf("%+v %v: issued %v, Blocks %v", g, r, iss.prefetched, want)
				}
			}
		}
	}
}
