package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestHistoryBufferAppendAt(t *testing.T) {
	h := NewHistoryBuffer(4)
	g := DefaultGeometry()
	positions := make([]uint64, 6)
	for i := 0; i < 6; i++ {
		positions[i] = h.Append(NewRegion(g, isa.Block(i), isa.TL0, false))
	}
	// Oldest two are overwritten.
	for i := 0; i < 2; i++ {
		if _, ok := h.At(positions[i]); ok {
			t.Errorf("position %d should be overwritten", i)
		}
	}
	for i := 2; i < 6; i++ {
		r, ok := h.At(positions[i])
		if !ok || r.Trigger != isa.Block(i) {
			t.Errorf("position %d: %v %v", i, r, ok)
		}
	}
	if _, ok := h.At(h.Tail()); ok {
		t.Error("future position should be invalid")
	}
}

func TestHistoryBufferPositionsMonotone(t *testing.T) {
	h := NewHistoryBuffer(2)
	g := DefaultGeometry()
	var last uint64
	for i := 0; i < 10; i++ {
		pos := h.Append(NewRegion(g, isa.Block(i), isa.TL0, false))
		if i > 0 && pos != last+1 {
			t.Fatalf("positions not monotone: %d after %d", pos, last)
		}
		last = pos
	}
}

func TestHistoryBufferZeroCap(t *testing.T) {
	h := NewHistoryBuffer(0)
	if h.Cap() != 1 {
		t.Errorf("zero capacity normalized to %d, want 1", h.Cap())
	}
}

func TestHistoryRoundTripProperty(t *testing.T) {
	f := func(capRaw uint8, n uint8) bool {
		capacity := int(capRaw%32) + 1
		h := NewHistoryBuffer(capacity)
		g := DefaultGeometry()
		var positions []uint64
		for i := 0; i < int(n); i++ {
			positions = append(positions, h.Append(NewRegion(g, isa.Block(i), isa.TL0, false)))
		}
		for i, pos := range positions {
			r, ok := h.At(pos)
			retained := int(n)-i <= capacity
			if retained != ok {
				return false
			}
			if ok && r.Trigger != isa.Block(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHistoryBufferGrowsOnDemand: a fresh buffer holds no record
// storage, never holds more than its capacity, and a seeded sequence of
// appends and lookups matches a preallocated ring across the wrap.
func TestHistoryBufferGrowsOnDemand(t *testing.T) {
	if h := NewHistoryBuffer(1 << 15); cap(h.buf) != 0 {
		t.Fatalf("fresh buffer holds %d records of storage, want 0", cap(h.buf))
	}
	g := DefaultGeometry()
	rng := rand.New(rand.NewSource(7))
	for _, capacity := range []int{1, 3, 256, 1000} {
		h := NewHistoryBuffer(capacity)
		ref := make([]Region, capacity) // the preallocated ring
		var tail uint64
		for step := 0; step < 5*capacity+50; step++ {
			r := NewRegion(g, isa.Block(rng.Intn(1<<20)), isa.TrapLevel(rng.Intn(2)), rng.Intn(2) == 0)
			r.Bits |= rng.Uint64()
			if pos := h.Append(r); pos != tail {
				t.Fatalf("cap %d: Append returned %d, want %d", capacity, pos, tail)
			}
			ref[tail%uint64(capacity)] = r
			tail++
			if cap(h.buf) > capacity {
				t.Fatalf("cap %d: storage grew to %d records", capacity, cap(h.buf))
			}
			for k := 0; k < 3; k++ {
				pos := uint64(rng.Int63n(int64(tail) + 2))
				want, wantOK := ref[pos%uint64(capacity)], pos < tail && tail-pos <= uint64(capacity)
				if !wantOK {
					want = Region{}
				}
				if got, ok := h.At(pos); ok != wantOK || got != want {
					t.Fatalf("cap %d, tail %d: At(%d) = %v, %v; want %v, %v", capacity, tail, pos, got, ok, want, wantOK)
				}
			}
		}
	}
}

func TestIndexTablePutGet(t *testing.T) {
	idx := NewIndexTable(8)
	idx.Put(100, 5)
	idx.Put(200, 9)
	if pos, ok := idx.Get(100); !ok || pos != 5 {
		t.Errorf("Get(100) = %d,%v", pos, ok)
	}
	if pos, ok := idx.Get(200); !ok || pos != 9 {
		t.Errorf("Get(200) = %d,%v", pos, ok)
	}
	if _, ok := idx.Get(300); ok {
		t.Error("missing key reported present")
	}
	// Update replaces the position.
	idx.Put(100, 42)
	if pos, _ := idx.Get(100); pos != 42 {
		t.Errorf("updated Get(100) = %d, want 42", pos)
	}
	if idx.Len() != 2 {
		t.Errorf("Len = %d, want 2", idx.Len())
	}
}

func TestIndexTableLRUEviction(t *testing.T) {
	idx := NewIndexTable(2)
	idx.Put(1, 10)
	idx.Put(2, 20)
	idx.Get(1)     // 1 is now MRU
	idx.Put(3, 30) // evicts 2
	if _, ok := idx.Get(2); ok {
		t.Error("LRU entry 2 should have been evicted")
	}
	if _, ok := idx.Get(1); !ok {
		t.Error("recently used entry 1 should survive")
	}
	if _, ok := idx.Get(3); !ok {
		t.Error("new entry 3 should be present")
	}
}

func TestIndexTableCapacityOne(t *testing.T) {
	idx := NewIndexTable(1)
	idx.Put(1, 10)
	idx.Put(2, 20)
	if _, ok := idx.Get(1); ok {
		t.Error("capacity-1 table should have evicted 1")
	}
	if pos, ok := idx.Get(2); !ok || pos != 20 {
		t.Errorf("Get(2) = %d,%v", pos, ok)
	}
}

func TestIndexTableNeverExceedsCap(t *testing.T) {
	f := func(keys []uint16) bool {
		idx := NewIndexTable(16)
		for i, k := range keys {
			idx.Put(isa.Block(k), uint64(i))
		}
		return idx.Len() <= 16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIndexTableLatestWins(t *testing.T) {
	f := func(seq []uint8) bool {
		idx := NewIndexTable(1 << 16) // effectively unbounded here
		want := map[isa.Block]uint64{}
		for i, k := range seq {
			idx.Put(isa.Block(k), uint64(i))
			want[isa.Block(k)] = uint64(i)
		}
		for k, pos := range want {
			got, ok := idx.Get(k)
			if !ok || got != pos {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// naiveIndex is the reference LRU index: a map from trigger to position
// plus a recency list, most recent first.
type naiveIndex struct {
	capacity int
	pos      map[isa.Block]uint64
	lru      []isa.Block
}

func (n *naiveIndex) touch(k isa.Block) {
	for i, x := range n.lru {
		if x == k {
			n.lru = append(n.lru[:i], n.lru[i+1:]...)
			break
		}
	}
	n.lru = append([]isa.Block{k}, n.lru...)
}

func (n *naiveIndex) Put(k isa.Block, pos uint64) {
	if _, ok := n.pos[k]; !ok && len(n.pos) == n.capacity {
		victim := n.lru[len(n.lru)-1]
		n.lru = n.lru[:len(n.lru)-1]
		delete(n.pos, victim)
	}
	n.pos[k] = pos
	n.touch(k)
}

func (n *naiveIndex) Get(k isa.Block) (uint64, bool) {
	pos, ok := n.pos[k]
	if ok {
		n.touch(k)
	}
	return pos, ok
}

// TestIndexTableMatchesNaiveLRU drives random Put/Get sequences through
// IndexTable and the naive reference at several capacities and key
// ranges (block 0 included) and requires identical answers throughout,
// then identical contents.
func TestIndexTableMatchesNaiveLRU(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 64, 3000} {
		for _, keys := range []int{3, 40, 5000} {
			rng := rand.New(rand.NewSource(int64(capacity*7919 + keys)))
			idx := NewIndexTable(capacity)
			ref := &naiveIndex{capacity: capacity, pos: map[isa.Block]uint64{}}
			for op := 0; op < 20_000; op++ {
				k := isa.Block(rng.Intn(keys))
				if rng.Intn(2) == 0 {
					idx.Put(k, uint64(op))
					ref.Put(k, uint64(op))
					continue
				}
				got, ok := idx.Get(k)
				want, wok := ref.Get(k)
				if got != want || ok != wok {
					t.Fatalf("cap %d keys %d op %d: Get(%v) = %d, %v; reference %d, %v",
						capacity, keys, op, k, got, ok, want, wok)
				}
			}
			if idx.Len() != len(ref.pos) {
				t.Fatalf("cap %d keys %d: Len = %d, reference %d", capacity, keys, idx.Len(), len(ref.pos))
			}
			for k := 0; k < keys; k++ {
				_, want := ref.pos[isa.Block(k)]
				if idx.Has(isa.Block(k)) != want {
					t.Fatalf("cap %d keys %d: Has(%d) = %v, reference %v", capacity, keys, k, !want, want)
				}
			}
		}
	}
}
