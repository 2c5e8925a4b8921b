// Package blocktab provides Table, an open-addressed hash table keyed by
// isa.Block, for the per-block state on the simulator's per-access
// paths. A probe is a multiply, a shift and a scan of adjacent slots,
// with no hash call or bucket walk, and an empty table allocates nothing
// until its first insert, so constructing a simulator stays cheap.
//
// A Table uses linear probing over a power-of-two slot array indexed by
// a multiplicative (Fibonacci) hash, so consecutive block numbers — the
// common key pattern of an instruction stream — spread across the array.
// It doubles when an insert would take it past half full, so probe
// chains stay short. Deletion shifts later entries of the probe chain
// back into the hole (Knuth's Algorithm R), so the table holds no
// tombstones and a lookup never scans past the first empty slot. Every
// key is valid, block 0 and ^isa.Block(0) included: occupancy is a
// per-slot flag, not a reserved key value.
//
// The zero Table is empty and ready to use; it allocates on the first
// Put. A Table is not safe for concurrent use.
package blocktab

import (
	"math/bits"

	"repro/internal/isa"
)

// initialSlots is the slot count of the first allocation. It covers the
// blocks of a short run without growing, and keeps the allocation of an
// empty simulator small.
const initialSlots = 1 << 11

// fib is 2^64 divided by the golden ratio, the multiplier of Fibonacci
// hashing: the top bits of key*fib are well spread even for sequential
// keys.
const fib = 0x9E3779B97F4A7C15

type slot[V any] struct {
	key  isa.Block
	used bool
	val  V
}

// Table maps isa.Block keys to values of type V.
type Table[V any] struct {
	slots []slot[V]
	mask  uint64 // len(slots)-1
	shift uint   // 64 - log2(len(slots))
	n     int
}

// Len returns the number of keys in the table.
func (t *Table[V]) Len() int { return t.n }

// home returns the slot a key hashes to.
func (t *Table[V]) home(k isa.Block) uint64 { return uint64(k) * fib >> t.shift }

// find returns the slot holding k, or -1.
func (t *Table[V]) find(k isa.Block) int {
	if t.n == 0 {
		return -1
	}
	for i := t.home(k); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if !s.used {
			return -1
		}
		if s.key == k {
			return int(i)
		}
	}
}

// Get returns the value stored for k and whether k is present.
func (t *Table[V]) Get(k isa.Block) (V, bool) {
	if i := t.find(k); i >= 0 {
		return t.slots[i].val, true
	}
	var zero V
	return zero, false
}

// Has reports whether k is present.
func (t *Table[V]) Has(k isa.Block) bool { return t.find(k) >= 0 }

// Put stores v for k, replacing any earlier value.
func (t *Table[V]) Put(k isa.Block, v V) {
	if i := t.find(k); i >= 0 {
		t.slots[i].val = v
		return
	}
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	i := t.home(k)
	for t.slots[i].used {
		i = (i + 1) & t.mask
	}
	t.slots[i] = slot[V]{key: k, used: true, val: v}
	t.n++
}

// Delete removes k, if present.
func (t *Table[V]) Delete(k isa.Block) {
	i := t.find(k)
	if i < 0 {
		return
	}
	// Walk the rest of the probe chain. An entry whose home is not
	// cyclically inside (hole, j] would become unreachable behind the
	// hole, so it moves back into the hole and its old slot becomes the
	// new hole.
	hole := uint64(i)
	for j := (hole + 1) & t.mask; t.slots[j].used; j = (j + 1) & t.mask {
		if (j-t.home(t.slots[j].key))&t.mask >= (j-hole)&t.mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = slot[V]{}
	t.n--
}

// Clear removes every key, keeping the allocation.
func (t *Table[V]) Clear() {
	clear(t.slots)
	t.n = 0
}

// grow doubles the slot array (or makes the first one) and reinserts
// every entry.
func (t *Table[V]) grow() {
	old := t.slots
	size := 2 * len(old)
	if size == 0 {
		size = initialSlots
	}
	t.slots = make([]slot[V], size)
	t.mask = uint64(size - 1)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if !s.used {
			continue
		}
		i := t.home(s.key)
		for t.slots[i].used {
			i = (i + 1) & t.mask
		}
		t.slots[i] = s
	}
}
