package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func l1Config() Config {
	return Config{SizeBytes: 64 << 10, Assoc: 2, BlockBytes: 64}
}

func TestConfigValidate(t *testing.T) {
	if err := l1Config().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{SizeBytes: 0, Assoc: 2, BlockBytes: 64},
		{SizeBytes: 64 << 10, Assoc: 0, BlockBytes: 64},
		{SizeBytes: 64 << 10, Assoc: 2, BlockBytes: 0},
		{SizeBytes: 100, Assoc: 2, BlockBytes: 64},
		{SizeBytes: 3 * 64 * 2, Assoc: 2, BlockBytes: 64}, // 3 sets: not pow2
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestSets(t *testing.T) {
	if got := l1Config().Sets(); got != 512 {
		t.Errorf("Sets = %d, want 512 (64KB/2-way/64B)", got)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid config should panic")
		}
	}()
	New(Config{SizeBytes: 1, Assoc: 1, BlockBytes: 3})
}

func TestMissThenHit(t *testing.T) {
	c := New(l1Config())
	b := isa.Block(42)
	if hit, _ := c.Access(b); hit {
		t.Fatal("cold access should miss")
	}
	c.Fill(b, false)
	if hit, pf := c.Access(b); !hit || pf {
		t.Fatalf("hit=%v pf=%v after demand fill", hit, pf)
	}
	s := c.Stats()
	if s.Accesses != 2 || s.Hits != 1 || s.Misses != 1 || s.DemandFills != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestPrefetchHitTracking(t *testing.T) {
	c := New(l1Config())
	b := isa.Block(7)
	c.Fill(b, true)
	if !c.Contains(b) {
		t.Fatal("prefetched block should be resident")
	}
	hit, pf := c.Access(b)
	if !hit || !pf {
		t.Fatalf("first demand access: hit=%v pf=%v, want true,true", hit, pf)
	}
	// Second access: prefetched bit should have cleared.
	if _, pf := c.Access(b); pf {
		t.Error("prefetched bit should clear after first demand hit")
	}
	if c.Stats().PrefetchHits != 1 {
		t.Errorf("PrefetchHits = %d, want 1", c.Stats().PrefetchHits)
	}
}

func TestLRUReplacement(t *testing.T) {
	// Direct-mapped-free test: 2-way, blocks mapping to the same set.
	cfg := Config{SizeBytes: 2 * 64 * 4, Assoc: 2, BlockBytes: 64} // 4 sets
	c := New(cfg)
	sameSet := func(i int) isa.Block { return isa.Block(i * 4) } // stride = sets
	c.Fill(sameSet(0), false)
	c.Fill(sameSet(1), false)
	// Touch 0 so 1 is LRU.
	c.Access(sameSet(0))
	victim, evicted := c.Fill(sameSet(2), false)
	if !evicted || victim != sameSet(1) {
		t.Errorf("victim = %v (evicted=%v), want %v", victim, evicted, sameSet(1))
	}
	if !c.Contains(sameSet(0)) || !c.Contains(sameSet(2)) || c.Contains(sameSet(1)) {
		t.Error("wrong residency after eviction")
	}
}

func TestFillResidentRefreshesLRU(t *testing.T) {
	cfg := Config{SizeBytes: 2 * 64 * 4, Assoc: 2, BlockBytes: 64}
	c := New(cfg)
	sameSet := func(i int) isa.Block { return isa.Block(i * 4) }
	c.Fill(sameSet(0), false)
	c.Fill(sameSet(1), false) // MRU=1, LRU=0
	c.Fill(sameSet(0), false) // refresh 0 → MRU=0, LRU=1
	victim, evicted := c.Fill(sameSet(2), false)
	if !evicted || victim != sameSet(1) {
		t.Errorf("victim = %v, want %v", victim, sameSet(1))
	}
}

func TestPrefetchUnusedCounting(t *testing.T) {
	cfg := Config{SizeBytes: 1 * 64 * 2, Assoc: 1, BlockBytes: 64} // 2 sets, direct mapped
	c := New(cfg)
	b0, b2 := isa.Block(0), isa.Block(2) // same set
	c.Fill(b0, true)
	c.Fill(b2, false) // evicts b0 which was never used
	s := c.Stats()
	if s.PrefetchUnused != 1 {
		t.Errorf("PrefetchUnused = %d, want 1", s.PrefetchUnused)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(l1Config())
	b := isa.Block(9)
	c.Fill(b, false)
	if !c.Invalidate(b) {
		t.Error("Invalidate should find resident block")
	}
	if c.Contains(b) {
		t.Error("block still resident after Invalidate")
	}
	if c.Invalidate(b) {
		t.Error("second Invalidate should report absent")
	}
}

func TestFlushAndResident(t *testing.T) {
	c := New(l1Config())
	for i := 0; i < 100; i++ {
		c.Fill(isa.Block(i), false)
	}
	if got := c.resident(); got != 100 {
		t.Errorf("Resident = %d, want 100", got)
	}
	c.Flush()
	if got := c.resident(); got != 0 {
		t.Errorf("Resident after Flush = %d", got)
	}
}

// TestEvictionsCount: the departure count rises by one per eviction,
// whether a demand, prefetch or polluter fill causes it, by one per
// Invalidate of a resident block, and by the resident line count on
// Flush. Hits, misses, a Fill of a resident block and ResetStats leave
// it alone.
func TestEvictionsCount(t *testing.T) {
	c := New(Config{SizeBytes: 2 * 64 * 4, Assoc: 2, BlockBytes: 64}) // 4 sets
	sameSet := func(i int) isa.Block { return isa.Block(i * 4) }
	var want uint64
	step := func(what string, delta uint64, op func()) {
		t.Helper()
		op()
		want += delta
		if got := c.Evictions(); got != want {
			t.Fatalf("after %s: Evictions = %d, want %d", what, got, want)
		}
	}
	step("demand fill of a free way", 0, func() { c.Fill(sameSet(0), false) })
	step("prefetch fill of a free way", 0, func() { c.Fill(sameSet(1), true) })
	step("hit", 0, func() { c.Access(sameSet(0)) })
	step("miss", 0, func() { c.Access(sameSet(2)) })
	step("demand fill of a resident block", 0, func() { c.Fill(sameSet(1), false) })
	step("prefetch fill of a resident block", 0, func() { c.Fill(sameSet(1), true) })
	step("demand fill that evicts", 1, func() { c.Fill(sameSet(2), false) })
	step("prefetch fill that evicts", 1, func() { c.Fill(sameSet(3), true) })
	step("ResetStats", 0, c.ResetStats)
	step("Invalidate of a resident block", 1, func() { c.Invalidate(sameSet(3)) })
	step("Invalidate of an absent block", 0, func() { c.Invalidate(sameSet(3)) })

	// Polluter fills evict like any other fill: the count moves with the
	// eviction statistic.
	before := c.Stats().Evictions
	NewPolluter(1, 40, 7).TickN(c, 10)
	polluted := c.Stats().Evictions - before
	if polluted == 0 {
		t.Fatal("polluter evicted nothing; the check is vacuous")
	}
	step("polluter fills", polluted, func() {})

	step("Flush", uint64(c.resident()), c.Flush)
	step("Flush of an empty cache", 0, c.Flush)
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Error("zero-access hit rate should be 0")
	}
	s = Stats{Accesses: 4, Hits: 3}
	if s.HitRate() != 0.75 {
		t.Errorf("HitRate = %f", s.HitRate())
	}
}

func TestResetStats(t *testing.T) {
	c := New(l1Config())
	c.Access(isa.Block(1))
	c.ResetStats()
	if c.Stats().Accesses != 0 {
		t.Error("ResetStats should zero counters")
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	f := func(seed int64) bool {
		cfg := Config{SizeBytes: 4 * 64 * 8, Assoc: 4, BlockBytes: 64} // 8 sets, 32 lines
		c := New(cfg)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			b := isa.Block(rng.Intn(256))
			if hit, _ := c.Access(b); !hit {
				c.Fill(b, rng.Intn(2) == 0)
			}
		}
		return c.resident() <= 32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessAfterFillAlwaysHits(t *testing.T) {
	f := func(seed int64) bool {
		c := New(l1Config())
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			b := isa.Block(rng.Intn(4096))
			c.Fill(b, false)
			if hit, _ := c.Access(b); !hit {
				return false // fill immediately followed by access must hit
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsConservation(t *testing.T) {
	// hits + misses == accesses under arbitrary interleavings.
	f := func(seed int64) bool {
		c := New(l1Config())
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 300; i++ {
			b := isa.Block(rng.Intn(2048))
			switch rng.Intn(3) {
			case 0:
				if hit, _ := c.Access(b); !hit {
					c.Fill(b, false)
				}
			case 1:
				c.Fill(b, true)
			case 2:
				c.Invalidate(b)
			}
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestFillAllocatesNothing asserts Fill grows a warming set into the ways
// New preallocated: filling every way of every set, from New or after a
// Flush, makes no allocation.
func TestFillAllocatesNothing(t *testing.T) {
	cfg := Config{SizeBytes: 4 * 64 * 8, Assoc: 4, BlockBytes: 64} // 8 sets, 32 lines
	c := New(cfg)
	allocs := testing.AllocsPerRun(10, func() {
		c.Flush()
		for b := 0; b < 32; b++ {
			c.Fill(isa.Block(b), b%2 == 0)
		}
	})
	if allocs != 0 {
		t.Errorf("filling every way allocated %.1f times, want 0", allocs)
	}
	if got := c.resident(); got != 32 {
		t.Errorf("resident = %d after filling every way, want 32", got)
	}
}
