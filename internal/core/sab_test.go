package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
)

// refSABs is the SAB file written from Section 4.3 and DESIGN.md on plain
// slices, without the production file's shortcuts: a demand fetch scans
// every region of every live SAB in order with Geometry.BitFor, and every
// claim re-issues the window's next region, probing the cache for each
// block itself. It keeps no signature and no eviction count.
type refSABs struct {
	bufs    []refSAB
	window  int
	initial int
	geom    Geometry
	clock   uint64
	ended   []uint64 // advance counts of the streams replaced so far
}

type refSAB struct {
	regions  []Region
	next     uint64
	live     bool
	lru      uint64
	advances uint64
}

func newRefSABs(n, window int, g Geometry) *refSABs {
	// A stream issues half its window, and at least two regions, until a
	// demand fetch confirms it.
	initial := min(max((window+1)/2, 2), window)
	return &refSABs{bufs: make([]refSAB, n), window: window, initial: initial, geom: g}
}

// allocate replaces the first free SAB, or else the least recently used
// one, with a stream starting at history position pos.
func (f *refSABs) allocate(pos uint64, h *HistoryBuffer, c *cacheIssuer) {
	f.clock++
	victim := 0
	for i := range f.bufs {
		if !f.bufs[i].live {
			victim = i
			break
		}
		if f.bufs[i].lru < f.bufs[victim].lru {
			victim = i
		}
	}
	if f.bufs[victim].live {
		f.ended = append(f.ended, f.bufs[victim].advances)
	}
	s := refSAB{next: pos, live: true, lru: f.clock}
	for len(s.regions) < f.initial && f.load(&s, h, c) {
	}
	s.live = len(s.regions) > 0
	f.bufs[victim] = s
}

// load appends the stream's next history region to its window and issues
// it; it reports false at the end of the readable history.
func (f *refSABs) load(s *refSAB, h *HistoryBuffer, c *cacheIssuer) bool {
	r, ok := h.At(s.next)
	if !ok {
		return false
	}
	s.next++
	s.regions = append(s.regions, r)
	f.issue(r, c)
	return true
}

// issue fills every block of r that is not resident, in Region.Blocks
// order.
func (f *refSABs) issue(r Region, c *cacheIssuer) {
	for _, b := range r.Blocks(f.geom, nil) {
		if !c.cache.Contains(b) {
			c.fill(b)
		}
	}
}

// advance: the first live SAB, in SAB order, with a window region that
// holds b claims the fetch. Its window drops the regions before that
// one, refills from the history, and re-issues its next region.
func (f *refSABs) advance(b isa.Block, h *HistoryBuffer, c *cacheIssuer) bool {
	f.clock++
	for i := range f.bufs {
		s := &f.bufs[i]
		if !s.live {
			continue
		}
		for ri, r := range s.regions {
			bit, ok := f.geom.BitFor(r.Trigger, b)
			if !ok || r.Bits&(1<<uint(bit)) == 0 {
				continue
			}
			s.regions = append([]Region(nil), s.regions[ri:]...)
			for len(s.regions) < f.window && f.load(s, h, c) {
			}
			if len(s.regions) > 1 {
				f.issue(s.regions[1], c)
			}
			s.lru = f.clock
			s.advances++
			return true
		}
	}
	return false
}

func (f *refSABs) liveCount() int {
	n := 0
	for _, s := range f.bufs {
		if s.live {
			n++
		}
	}
	return n
}

// cacheIssuer is a prefetch.Issuer over a real cache that records every
// block it actually fills.
type cacheIssuer struct {
	cache  *cache.Cache
	filled []isa.Block
}

func newCacheIssuer(cfg cache.Config) *cacheIssuer {
	return &cacheIssuer{cache: cache.New(cfg)}
}

func (c *cacheIssuer) Prefetch(b isa.Block) {
	if !c.cache.Contains(b) {
		c.fill(b)
	}
}

func (c *cacheIssuer) Evictions() uint64 { return c.cache.Evictions() }

func (c *cacheIssuer) fill(b isa.Block) {
	c.cache.Fill(b, true)
	c.filled = append(c.filled, b)
}

// sabFuzzCache has 4 sets of 2 ways, so the blocks of one region share
// sets and a region's own fills can evict each other.
var sabFuzzCache = cache.Config{SizeBytes: 512, Assoc: 2, BlockBytes: 64}

// sabFuzz op kinds: each op is three bytes, kind then two arguments.
const (
	sabOpAppend   = iota // append a region to the history
	sabOpAllocate        // open a stream at a history position
	sabOpDemand          // demand-fetch a block near a history region
	sabOpEvict           // evict or fill a block in both caches
	sabOpKinds
)

// FuzzSABFile drives the production sabFile and the reference refSABs from
// one fuzz-built history buffer and op stream, each side issuing into its
// own tiny cache. Both caches see the same demand fetches and the same
// seeded evictions. Every advance must return the same claim, and the two
// sides must fill the same blocks in the same order, end the same streams
// after the same advance counts, and keep the same number of live SABs.
//
// data[0] picks the SAB count (bits 0-1) and window (bits 2-4), data[1]
// the geometry (Prec bits 0-1, Succ bits 2-4), and data[2] the history
// capacity and the eviction seed. The rest are ops.
func FuzzSABFile(f *testing.F) {
	op := func(kind, a, b byte) []byte { return []byte{kind, a, b} }
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	const (
		oneSAB2 = 0<<0 | 1<<2 // one SAB, window 2
		fourSAB = 3<<0 | 6<<2 // four SABs, window 7
		defGeom = 2 | 5<<2    // Prec 2, Succ 5
		wide    = 2 | 6<<2    // Prec 2, Succ 6: bits 0, 4 and 8 share a set
	)
	// The demand on a region's last block must be claimed.
	f.Add(cat([]byte{oneSAB2, defGeom, 15},
		op(sabOpAppend, 100, 0b0000_1100), op(sabOpAppend, 90, 0b0000_0100),
		op(sabOpAllocate, 2, 0), op(sabOpDemand, 1, 4)))
	// A region's own issue evicts its first block (bits 0, 4, 8 of a
	// 9-block region share a set in the 2-way cache); the next claim must
	// re-issue it.
	f.Add(cat([]byte{oneSAB2, wide, 15},
		op(sabOpAppend, 0, 0b0000_0100), op(sabOpAppend, 51, 0b0001_0001), op(sabOpAppend, 50, 0),
		op(sabOpAllocate, 3, 0), op(sabOpDemand, 2, 3)))
	// Four streams over a wrapping history, with evictions and appends.
	f.Add(cat([]byte{fourSAB, defGeom, 4},
		op(sabOpAppend, 3, 0xff), op(sabOpAppend, 9, 0x0f), op(sabOpAppend, 0xf0, 0x81), op(sabOpAppend, 7, 0x3c),
		op(sabOpAllocate, 4, 0), op(sabOpDemand, 3, 2), op(sabOpEvict, 0, 0), op(sabOpDemand, 2, 5),
		op(sabOpAppend, 4, 0x55), op(sabOpAllocate, 1, 0), op(sabOpDemand, 0, 3), op(sabOpEvict, 1, 0),
		op(sabOpDemand, 1, 1), op(sabOpAllocate, 9, 0), op(sabOpDemand, 0, 6)))
	// Zero-width geometry and a one-region window around block 0.
	f.Add(cat([]byte{1, 0, 1},
		op(sabOpAppend, 0, 1), op(sabOpAppend, 0xff, 1), op(sabOpAllocate, 2, 0), op(sabOpDemand, 0, 1),
		op(sabOpDemand, 1, 1), op(sabOpAllocate, 0, 0), op(sabOpAppend, 1, 1), op(sabOpDemand, 0, 1)))

	const maxOps = 256
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		ops := data[3:]
		if len(ops) > 3*maxOps {
			ops = ops[:3*maxOps]
		}
		nSABs, window := 1+int(data[0]&3), 1+int(data[0]>>2&7)
		g := Geometry{Prec: int(data[1] & 3), Succ: int(data[1] >> 2 & 7)}
		hist := NewHistoryBuffer(1 + int(data[2]&15))
		evictRNG := rand.New(rand.NewSource(int64(data[2])))

		prod, ref := newSABFile(nSABs, window, g), newRefSABs(nSABs, window, g)
		var prodEnded []uint64
		prod.onStreamEnd = func(n uint64) { prodEnded = append(prodEnded, n) }
		pIss, rIss := newCacheIssuer(sabFuzzCache), newCacheIssuer(sabFuzzCache)
		both := func(fn func(c *cache.Cache)) {
			fn(pIss.cache)
			fn(rIss.cache)
		}
		var trigger isa.Block // the last appended trigger; wraps below 0
		// near returns a block around the region a back from the newest.
		near := func(a, b byte) isa.Block {
			if hist.Tail() == 0 {
				return trigger.Add(int(int8(b)))
			}
			back := uint64(a) % min(hist.Tail(), uint64(hist.Cap()))
			r, _ := hist.At(hist.Tail() - 1 - back)
			return r.Trigger.Add(int(b)%(g.Size()+2) - g.Prec - 1)
		}

		for i := 0; i+2 < len(ops); i += 3 {
			a, b := ops[i+1], ops[i+2]
			at := func() string { return fmt.Sprintf("op %d (%d %d %d)", i/3, ops[i]%sabOpKinds, a, b) }
			switch ops[i] % sabOpKinds {
			case sabOpAppend:
				trigger = trigger.Add(int(int8(a)))
				r := NewRegion(g, trigger, isa.TL0, true)
				r.Bits |= (uint64(a)<<8 | uint64(b)) & (1<<uint(g.Size()) - 1)
				hist.Append(r)
			case sabOpAllocate:
				pos := hist.Tail() - uint64(a)%(hist.Tail()+1)
				prod.allocate(pos, hist, pIss)
				ref.allocate(pos, hist, rIss)
			case sabOpDemand:
				blk := near(a, b)
				both(func(c *cache.Cache) {
					if hit, _ := c.Access(blk); !hit {
						c.Fill(blk, false)
					}
				})
				got, want := prod.advance(blk, hist, pIss), ref.advance(blk, hist, rIss)
				if got != want {
					t.Fatalf("%s: advance(%v) = %v, reference %v", at(), blk, got, want)
				}
			case sabOpEvict:
				blk := near(byte(evictRNG.Intn(256)), byte(evictRNG.Intn(256)))
				if evictRNG.Intn(2) == 0 {
					both(func(c *cache.Cache) { c.Invalidate(blk) })
				} else {
					blk += isa.Block(4 * (1 + evictRNG.Intn(8))) // same set, another block
					both(func(c *cache.Cache) { c.Fill(blk, false) })
				}
			}
			if !slices.Equal(pIss.filled, rIss.filled) {
				t.Fatalf("%s: filled %v, reference %v", at(), pIss.filled, rIss.filled)
			}
			if !slices.Equal(prodEnded, ref.ended) {
				t.Fatalf("%s: ended streams %v, reference %v", at(), prodEnded, ref.ended)
			}
			if got, want := prod.liveCount(), ref.liveCount(); got != want {
				t.Fatalf("%s: %d live SABs, reference %d", at(), got, want)
			}
		}
	})
}
