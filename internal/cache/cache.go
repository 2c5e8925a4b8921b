// Package cache implements the set-associative instruction cache model used
// throughout the simulator: a configurable geometry with true-LRU
// replacement and a per-line prefetched bit (PIF tags non-prefetched
// fetches to gate index-table insertion).
//
// The model is behavioural, not cycle-accurate: Probe/Fill mutate state
// immediately, and the timing simulator (internal/sim) accounts for
// latencies separately. This mirrors how the paper's trace-based analyses
// treat the cache (Section 2's studies "do not perturb the cache state").
package cache

import (
	"fmt"

	"repro/internal/isa"
)

// Config describes a cache geometry.
type Config struct {
	// SizeBytes is the total capacity in bytes.
	SizeBytes int
	// Assoc is the set associativity (ways).
	Assoc int
	// BlockBytes is the line size; must equal isa.BlockBytes for the L1-I.
	BlockBytes int
}

// Validate checks the geometry for consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 || c.BlockBytes <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.SizeBytes%(c.Assoc*c.BlockBytes) != 0 {
		return fmt.Errorf("cache: size %d not divisible by assoc*block %d", c.SizeBytes, c.Assoc*c.BlockBytes)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.Assoc * c.BlockBytes) }

// line is one cache way.
type line struct {
	tag        uint64
	valid      bool
	prefetched bool // filled by a prefetch and not yet demanded
}

// Stats counts cache events.
type Stats struct {
	// JSON names are stable snake_case: Stats is embedded in sim.Result,
	// which the results store persists and diffs across commits.
	Accesses       uint64 `json:"accesses"` // demand probes
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	PrefetchHits   uint64 `json:"prefetch_hits"` // demand hits on lines brought in by prefetch
	PrefetchFills  uint64 `json:"prefetch_fills"`
	DemandFills    uint64 `json:"demand_fills"`
	Evictions      uint64 `json:"evictions"`
	PrefetchUnused uint64 `json:"prefetch_unused"` // prefetched lines evicted without a demand hit
}

// HitRate returns hits/accesses.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Add accumulates o into s field by field. Every field is a pure event
// count, so adding disjoint measurement intervals composes losslessly —
// the property sharded replay's result stitching relies on
// (sim.MergeShardResults).
func (s *Stats) Add(o Stats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.PrefetchHits += o.PrefetchHits
	s.PrefetchFills += o.PrefetchFills
	s.DemandFills += o.DemandFills
	s.Evictions += o.Evictions
	s.PrefetchUnused += o.PrefetchUnused
}

// Sub removes o from s field by field — the inverse of Add, used to
// carve a measurement sub-interval out of cumulative counters (sharded
// replay's offset snapshots). Every field is monotone over a run, so o
// taken earlier in the same run never underflows s.
func (s *Stats) Sub(o Stats) {
	s.Accesses -= o.Accesses
	s.Hits -= o.Hits
	s.Misses -= o.Misses
	s.PrefetchHits -= o.PrefetchHits
	s.PrefetchFills -= o.PrefetchFills
	s.DemandFills -= o.DemandFills
	s.Evictions -= o.Evictions
	s.PrefetchUnused -= o.PrefetchUnused
}

// Cache is a set-associative cache with true LRU replacement.
// Lines are identified by isa.Block numbers.
type Cache struct {
	cfg     Config
	sets    [][]line // sets[i] ordered MRU..LRU
	setMask uint64
	stats   Stats
}

// New builds a cache; it panics on an invalid geometry (a configuration
// error is a programming bug, not a runtime condition).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := make([][]line, cfg.Sets())
	for i := range sets {
		sets[i] = make([]line, 0, cfg.Assoc)
	}
	return &Cache{
		cfg:     cfg,
		sets:    sets,
		setMask: uint64(cfg.Sets() - 1),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the event counters (used after warmup).
func (c *Cache) ResetStats() { c.stats = Stats{} }

func (c *Cache) setIndex(b isa.Block) uint64 { return uint64(b) & c.setMask }

// find returns the way index of b in its set, or -1.
func (c *Cache) find(set []line, b isa.Block) int {
	for i := range set {
		if set[i].valid && set[i].tag == uint64(b) {
			return i
		}
	}
	return -1
}

// Contains reports whether the block is resident without touching LRU
// state or statistics (the tag probe prefetchers use before queuing).
func (c *Cache) Contains(b isa.Block) bool {
	return c.find(c.sets[c.setIndex(b)], b) >= 0
}

// Access performs a demand access: on hit the line moves to MRU and the
// prefetched bit clears; on miss nothing is filled (callers decide whether
// and when to Fill). It returns hit status and whether the hit line had
// been brought in by a prefetch (a "prefetch hit").
func (c *Cache) Access(b isa.Block) (hit, wasPrefetched bool) {
	c.stats.Accesses++
	si := c.setIndex(b)
	set := c.sets[si]
	if i := c.find(set, b); i >= 0 {
		wasPrefetched = set[i].prefetched
		set[i].prefetched = false
		c.moveToMRU(si, i)
		c.stats.Hits++
		if wasPrefetched {
			c.stats.PrefetchHits++
		}
		return true, wasPrefetched
	}
	c.stats.Misses++
	return false, false
}

// Fill installs a block. prefetch marks the line as brought in by the
// prefetcher. Filling a resident block refreshes its LRU position and, for
// demand fills, clears the prefetched bit. The victim block (if any) is
// returned so callers can model writeback/invalidation effects.
func (c *Cache) Fill(b isa.Block, prefetch bool) (victim isa.Block, evicted bool) {
	si := c.setIndex(b)
	set := c.sets[si]
	if i := c.find(set, b); i >= 0 {
		if !prefetch {
			set[i].prefetched = false
		}
		c.moveToMRU(si, i)
		return 0, false
	}
	if prefetch {
		c.stats.PrefetchFills++
	} else {
		c.stats.DemandFills++
	}
	nl := line{tag: uint64(b), valid: true, prefetched: prefetch}
	if len(set) < c.cfg.Assoc {
		c.sets[si] = append([]line{nl}, set...)
		return 0, false
	}
	// Evict LRU (last element).
	v := set[len(set)-1]
	c.stats.Evictions++
	if v.prefetched {
		c.stats.PrefetchUnused++
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = nl
	return isa.Block(v.tag), true
}

// moveToMRU promotes set[i] to the MRU position.
func (c *Cache) moveToMRU(si uint64, i int) {
	set := c.sets[si]
	if i == 0 {
		return
	}
	l := set[i]
	copy(set[1:i+1], set[:i])
	set[0] = l
}

// Invalidate removes a block if present, returning whether it was resident.
func (c *Cache) Invalidate(b isa.Block) bool {
	si := c.setIndex(b)
	set := c.sets[si]
	i := c.find(set, b)
	if i < 0 {
		return false
	}
	c.sets[si] = append(set[:i], set[i+1:]...)
	return true
}

// Flush empties the cache (statistics are preserved).
func (c *Cache) Flush() {
	for i := range c.sets {
		c.sets[i] = c.sets[i][:0]
	}
}

// Resident returns the number of valid lines.
func (c *Cache) Resident() int {
	n := 0
	for i := range c.sets {
		n += len(c.sets[i])
	}
	return n
}
