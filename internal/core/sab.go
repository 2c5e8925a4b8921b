package core

import (
	"math/bits"

	"repro/internal/isa"
	"repro/internal/prefetch"
)

// sab is one Stream Address Buffer (Section 4.3): it tracks a window of
// consecutive spatial regions read from the history buffer, issues
// prefetches for the blocks their bit vectors encode, and advances its
// history pointer as the core's fetch stream moves through the window.
type sab struct {
	regions  []Region // window, oldest first
	nextPos  uint64   // history position of the next region to load
	live     bool
	lru      uint64
	advances uint64 // demand fetches claimed by this stream
}

// sabFile manages the fixed set of SABs with LRU replacement.
type sabFile struct {
	sabs    []sab
	window  int
	initial int // regions issued eagerly at allocation
	geom    Geometry
	clock   uint64

	// onStreamEnd, when set, receives the advance count of every stream
	// that dies (SAB replaced) — the Figure 9 (left) measurement.
	onStreamEnd func(advances uint64)
}

func newSABFile(n, window int, g Geometry) *sabFile {
	if n < 1 {
		n = 1
	}
	if window < 1 {
		window = 1
	}
	// Issue only part of the window at allocation: a stream that is not
	// confirmed by subsequent demand fetches wastes at most `initial`
	// regions of prefetches; confirmed streams expand to the full window
	// on the first advance.
	initial := (window + 1) / 2
	if initial < 2 {
		initial = 2 // below two regions the window can never advance
	}
	if initial > window {
		initial = window
	}
	return &sabFile{sabs: make([]sab, n), window: window, initial: initial, geom: g}
}

// allocate opens a new stream at history position pos, replacing the LRU
// SAB, loading the initial window, and issuing its prefetches.
func (f *sabFile) allocate(pos uint64, hist *HistoryBuffer, iss prefetch.Issuer) {
	f.clock++
	victim := 0
	for i := range f.sabs {
		if !f.sabs[i].live {
			victim = i
			break
		}
		if f.sabs[i].lru < f.sabs[victim].lru {
			victim = i
		}
	}
	s := &f.sabs[victim]
	if s.live && f.onStreamEnd != nil {
		f.onStreamEnd(s.advances)
	}
	// Keep the window's backing array: a new stream reuses it.
	*s = sab{regions: s.regions[:0], nextPos: pos, live: true, lru: f.clock}
	for len(s.regions) < f.initial {
		if !f.loadNext(s, hist, iss) {
			break
		}
	}
	if len(s.regions) == 0 {
		s.live = false
	}
}

// loadNext reads one more region from the history into the SAB window and
// issues prefetches for its blocks; it returns false at the history end.
func (f *sabFile) loadNext(s *sab, hist *HistoryBuffer, iss prefetch.Issuer) bool {
	r, ok := hist.At(s.nextPos)
	if !ok {
		return false
	}
	s.nextPos++
	s.regions = append(s.regions, r)
	f.issue(r, iss)
	return true
}

// issue prefetches the blocks of region r that are not resident. It walks
// the bit vector lowest bit first, which is the order Region.Blocks lists
// the blocks in, without building the list. Recorded regions set no bit
// outside their geometry (Region.Set), so every set bit is a block.
func (f *sabFile) issue(r Region, iss prefetch.Issuer) {
	for v := r.Bits; v != 0; v &= v - 1 {
		b := r.Trigger.Add(bits.TrailingZeros64(v) - f.geom.Prec)
		if !iss.Contains(b) {
			iss.Prefetch(b)
		}
	}
}

// advance reacts to a demand fetch of block b: if b falls within an active
// SAB's window, the window slides so the region containing b becomes the
// head, loading (and prefetching) subsequent regions. It reports whether
// any SAB claimed the access.
func (f *sabFile) advance(b isa.Block, hist *HistoryBuffer, iss prefetch.Issuer) bool {
	f.clock++
	for i := range f.sabs {
		s := &f.sabs[i]
		if !s.live {
			continue
		}
		for ri := range s.regions {
			if !s.regions[ri].Has(f.geom, b) {
				continue
			}
			// Retire the regions before the one that matched and refill
			// the window from the history buffer.
			if ri > 0 {
				s.regions = s.regions[:copy(s.regions, s.regions[ri:])]
			}
			for len(s.regions) < f.window {
				if !f.loadNext(s, hist, iss) {
					break
				}
			}
			// Re-probe the next region: a block prefetched earlier may
			// have been evicted before use under cache pressure; the SAB
			// reissues it while the stream is still ahead of the demand.
			if len(s.regions) > 1 {
				f.issue(s.regions[1], iss)
			}
			s.lru = f.clock
			s.advances++
			return true
		}
	}
	return false
}

// covered reports whether block b is inside any live SAB window (i.e. the
// stream engine considers it already predicted).
func (f *sabFile) covered(b isa.Block) bool {
	for i := range f.sabs {
		s := &f.sabs[i]
		if !s.live {
			continue
		}
		for ri := range s.regions {
			if s.regions[ri].Has(f.geom, b) {
				return true
			}
		}
	}
	return false
}

// liveCount returns the number of active SABs (observability for tests).
func (f *sabFile) liveCount() int {
	n := 0
	for i := range f.sabs {
		if f.sabs[i].live {
			n++
		}
	}
	return n
}
