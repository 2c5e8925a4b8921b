package core

import (
	"math"

	"repro/internal/blocktab"
	"repro/internal/isa"
)

// HistoryBuffer is the circular FIFO of spatial region records
// (Section 4.2). Positions are absolute (monotonically increasing), so a
// stale index entry whose record has been overwritten is detectable.
// The records grow by append up to the capacity and wrap from then on,
// so a run that records fewer regions than the capacity allocates only
// what it records.
type HistoryBuffer struct {
	buf      []Region
	capacity int
	tail     uint64 // absolute position of the next append
}

// NewHistoryBuffer builds a buffer holding capacity regions. A capacity of
// 0 is normalized to 1. No record storage is allocated before the first
// Append.
func NewHistoryBuffer(capacity int) *HistoryBuffer {
	return &HistoryBuffer{capacity: max(capacity, 1)}
}

// Cap returns the buffer capacity in regions.
func (h *HistoryBuffer) Cap() int { return h.capacity }

// Tail returns the absolute position of the next append.
func (h *HistoryBuffer) Tail() uint64 { return h.tail }

// Append stores a region and returns its absolute position.
func (h *HistoryBuffer) Append(r Region) uint64 {
	pos := h.tail
	if n := len(h.buf); n < h.capacity {
		// Not yet full, so pos == n. Double the storage, up to the
		// capacity: append's own growth could overshoot it.
		if n == cap(h.buf) {
			grown := make([]Region, n, min(max(2*n, 256), h.capacity))
			copy(grown, h.buf)
			h.buf = grown
		}
		h.buf = append(h.buf, r)
	} else {
		h.buf[pos%uint64(h.capacity)] = r
	}
	h.tail++
	return pos
}

// At returns the region at absolute position pos; ok is false when the
// position has been overwritten (older than capacity) or not yet written.
func (h *HistoryBuffer) At(pos uint64) (Region, bool) {
	if pos >= h.tail || h.tail-pos > uint64(h.capacity) {
		return Region{}, false
	}
	return h.buf[pos%uint64(h.capacity)], true
}

// indexEntry is one index-table mapping, linked into the LRU list by
// entry number.
type indexEntry struct {
	trigger    isa.Block
	pos        uint64
	prev, next int32
}

// maxIndexEntries bounds an index's capacity so entry numbers fit the
// int32 links; an entry pool that large would not fit in memory anyway.
const maxIndexEntries = math.MaxInt32

// IndexTable maps a trigger block to the history position of its most
// recent record (Section 4.2). It is a bounded cache-like structure with
// LRU replacement, implemented as a block table from trigger to entry
// number plus an intrusive doubly-linked LRU list over an entry pool.
// The pool and the table grow with the live entries, so an index sized
// far beyond what a run touches costs only what the run touches.
type IndexTable struct {
	entries  []indexEntry
	lookup   blocktab.Table[int32]
	capacity int
	head     int32 // MRU
	tailIdx  int32 // LRU
}

// NewIndexTable builds an index with the given entry capacity (minimum 1).
func NewIndexTable(capacity int) *IndexTable {
	return &IndexTable{
		capacity: min(max(capacity, 1), maxIndexEntries),
		head:     -1,
		tailIdx:  -1,
	}
}

// Cap returns the entry capacity.
func (t *IndexTable) Cap() int { return t.capacity }

// Len returns the number of live entries.
func (t *IndexTable) Len() int { return len(t.entries) }

// unlink removes entry i from the LRU list.
func (t *IndexTable) unlink(i int32) {
	e := &t.entries[i]
	if e.prev >= 0 {
		t.entries[e.prev].next = e.next
	} else {
		t.head = e.next
	}
	if e.next >= 0 {
		t.entries[e.next].prev = e.prev
	} else {
		t.tailIdx = e.prev
	}
	e.prev, e.next = -1, -1
}

// pushFront inserts entry i at the MRU position.
func (t *IndexTable) pushFront(i int32) {
	e := &t.entries[i]
	e.prev = -1
	e.next = t.head
	if t.head >= 0 {
		t.entries[t.head].prev = i
	}
	t.head = i
	if t.tailIdx < 0 {
		t.tailIdx = i
	}
}

// Put maps trigger to pos, updating an existing entry or evicting the LRU.
func (t *IndexTable) Put(trigger isa.Block, pos uint64) {
	if i, ok := t.lookup.Get(trigger); ok {
		t.entries[i].pos = pos
		t.unlink(i)
		t.pushFront(i)
		return
	}
	var i int32
	if len(t.entries) < t.capacity {
		i = int32(len(t.entries))
		t.entries = append(t.entries, indexEntry{})
	} else {
		i = t.tailIdx
		t.lookup.Delete(t.entries[i].trigger)
		t.unlink(i)
	}
	t.entries[i] = indexEntry{trigger: trigger, pos: pos, prev: -1, next: -1}
	t.lookup.Put(trigger, i)
	t.pushFront(i)
}

// Get returns the most recent history position recorded for trigger and
// promotes the entry to MRU.
func (t *IndexTable) Get(trigger isa.Block) (uint64, bool) {
	i, ok := t.lookup.Get(trigger)
	if !ok {
		return 0, false
	}
	t.unlink(i)
	t.pushFront(i)
	return t.entries[i].pos, true
}

// Has reports whether trigger has an entry, without promoting it.
func (t *IndexTable) Has(trigger isa.Block) bool { return t.lookup.Has(trigger) }
