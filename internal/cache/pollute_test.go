package cache

import (
	"math/rand"
	"reflect"
	"testing"
)

// tickPair is two identically seeded polluters over two identical caches:
// one advanced by TickN, the reference by single Ticks.
type tickPair struct {
	batched, ref   *Polluter
	cBatched, cRef *Cache
}

func newTickPair(meanGap, blocks int) *tickPair {
	const seed = 42
	return &tickPair{
		batched: NewPolluter(meanGap, blocks, seed), ref: NewPolluter(meanGap, blocks, seed),
		cBatched: New(l1Config()), cRef: New(l1Config()),
	}
}

// advance moves both sides by n instructions and reports how many context
// switches the reference fired.
func (p *tickPair) advance(n int) (fired int) {
	p.batched.TickN(p.cBatched, n)
	for i := 0; i < n; i++ {
		if p.ref.Tick(p.cRef) {
			fired++
		}
	}
	return fired
}

// check asserts the two sides are indistinguishable: the same resident
// lines in the same LRU order, the same statistics, and the same countdown
// to the next switch.
func (p *tickPair) check(t *testing.T, what string) {
	t.Helper()
	if !reflect.DeepEqual(p.cBatched.sets, p.cRef.sets) {
		t.Fatalf("%s: resident set differs from single Ticks", what)
	}
	if g, w := p.cBatched.Stats(), p.cRef.Stats(); g != w {
		t.Fatalf("%s: stats %+v, want %+v", what, g, w)
	}
	if p.batched.in != p.ref.in {
		t.Fatalf("%s: next switch in %d instructions, want %d", what, p.batched.in, p.ref.in)
	}
}

// checkLaterFirings ticks both sides one instruction at a time and
// asserts they keep firing on the same instructions.
func (p *tickPair) checkLaterFirings(t *testing.T, what string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if g, w := p.batched.Tick(p.cBatched), p.ref.Tick(p.cRef); g != w {
			t.Fatalf("%s: tick %d after the batch fired=%v, want %v", what, i, g, w)
		}
	}
	p.check(t, what+", later ticks")
}

// TestPolluterTickNMatchesTicks: TickN(c, n) is exactly n Tick calls for
// n = 0, n below the gap, n landing on the switch, and n spanning several
// switches; each switch fills on the instruction it falls on.
func TestPolluterTickNMatchesTicks(t *testing.T) {
	p := newTickPair(50, 40)
	p.check(t, "fresh")
	p.advance(0)
	p.check(t, "n = 0")

	below := p.ref.in - 1
	if fired := p.advance(below); fired != 0 {
		t.Fatalf("n = %d below the gap fired %d switches", below, fired)
	}
	p.check(t, "n below the gap")

	if fired := p.advance(p.ref.in); fired != 1 {
		t.Fatalf("n landing on the switch fired %d switches, want 1", fired)
	}
	p.check(t, "n landing on the switch")

	if fired := p.advance(1000); fired < 5 {
		t.Fatalf("n = 1000 at mean gap 50 fired only %d switches", fired)
	}
	p.check(t, "n spanning several switches")
	p.checkLaterFirings(t, "n spanning several switches", 500)

	// Arbitrary batch sizes, interleaved with single ticks.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		p.advance(rng.Intn(300))
		p.check(t, "random batch")
		p.checkLaterFirings(t, "random batch", rng.Intn(3))
	}
}

// TestPolluterDisabled: a polluter with no gap or no blocks never fires,
// whether ticked singly or in batches, and leaves the cache untouched.
func TestPolluterDisabled(t *testing.T) {
	for _, pc := range []struct{ gap, blocks int }{{0, 320}, {40_000, 0}, {0, 0}} {
		c := New(l1Config())
		p := NewPolluter(pc.gap, pc.blocks, 1)
		p.TickN(c, 1_000_000)
		for i := 0; i < 1000; i++ {
			if p.Tick(c) {
				t.Fatalf("gap %d, blocks %d: disabled polluter fired", pc.gap, pc.blocks)
			}
		}
		if c.resident() != 0 || c.Stats() != (Stats{}) {
			t.Errorf("gap %d, blocks %d: disabled polluter touched the cache: %d resident, %+v",
				pc.gap, pc.blocks, c.resident(), c.Stats())
		}
	}
}
