package blocktab

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/isa"
)

// fibInv is the multiplicative inverse of fib mod 2^64 (fib is odd), so
// collider can solve home(k) == slot for k.
var fibInv = func() uint64 {
	x := uint64(fib) // Newton's iteration doubles the correct low bits
	for i := 0; i < 6; i++ {
		x *= 2 - fib*x
	}
	return x
}()

// collider returns the j-th of a family of distinct keys whose home is
// the last slot of an initialSlots-slot table. Their home in every
// doubled table is also one of its last two slots, so their probe chains
// wrap past the end of the slot array at every size.
func collider(j uint64) isa.Block {
	const shift = 64 - 11 // log2(initialSlots) == 11
	top := uint64(initialSlots-1) << shift
	return isa.Block((top | j) * fibInv)
}

// checkSame fails unless tab holds exactly ref's keys and values.
func checkSame(t *testing.T, tab *Table[uint64], ref map[isa.Block]uint64) {
	t.Helper()
	if tab.Len() != len(ref) {
		t.Fatalf("Len = %d, reference holds %d keys", tab.Len(), len(ref))
	}
	for k, want := range ref {
		if got, ok := tab.Get(k); !ok || got != want {
			t.Fatalf("Get(%v) = %d, %v; reference has %d", k, got, ok, want)
		}
	}
}

func TestColliderKeysShareHome(t *testing.T) {
	if fib*fibInv != 1 {
		t.Fatalf("fibInv is not the inverse of fib")
	}
	var tab Table[uint64]
	tab.Put(0, 0) // allocate the first slot array
	for j := uint64(0); j < 8; j++ {
		if h := tab.home(collider(j)); h != tab.mask {
			t.Fatalf("collider(%d) homes at slot %d, want last slot %d", j, h, tab.mask)
		}
	}
}

func TestZeroTable(t *testing.T) {
	var tab Table[int]
	if _, ok := tab.Get(0); ok || tab.Has(0) || tab.Len() != 0 {
		t.Fatal("zero table reports a key")
	}
	tab.Delete(0)
	tab.Clear()
	tab.Put(0, 7)
	if v, ok := tab.Get(0); !ok || v != 7 {
		t.Fatalf("Get(0) = %d, %v after Put(0, 7)", v, ok)
	}
	tab.Put(^isa.Block(0), 9)
	if v, ok := tab.Get(^isa.Block(0)); !ok || v != 9 {
		t.Fatalf("Get(max) = %d, %v after Put(max, 9)", v, ok)
	}
	tab.Delete(0)
	if tab.Has(0) || !tab.Has(^isa.Block(0)) || tab.Len() != 1 {
		t.Fatal("Delete(0) removed the wrong key")
	}
}

// TestDeleteMidChainWrapped builds one probe chain that wraps past the
// end of the slot array and deletes from its head, middle and tail: every
// remaining key must stay reachable, with no tombstones left behind.
func TestDeleteMidChainWrapped(t *testing.T) {
	const n = 9
	for del := 0; del < n; del++ {
		var tab Table[uint64]
		ref := map[isa.Block]uint64{}
		for j := uint64(0); j < n; j++ {
			tab.Put(collider(j), j)
			ref[collider(j)] = j
		}
		tab.Delete(collider(uint64(del)))
		delete(ref, collider(uint64(del)))
		checkSame(t, &tab, ref)
		// The chain now occupies exactly n-1 slots: the last slot and
		// the first n-2, so deletion left no hole inside it.
		used := 0
		for i := range tab.slots {
			if tab.slots[i].used {
				used++
			}
		}
		if used != n-1 || !tab.slots[tab.mask].used || !tab.slots[n-3].used || tab.slots[n-2].used {
			t.Fatalf("delete %d: chain not compacted (used %d slots)", del, used)
		}
	}
}

func TestGrowthKeepsEveryKey(t *testing.T) {
	var tab Table[uint64]
	ref := map[isa.Block]uint64{}
	rng := rand.New(rand.NewSource(1))
	for i := uint64(0); i < 20_000; i++ {
		k := isa.Block(rng.Uint64() >> uint(rng.Intn(64)))
		tab.Put(k, i)
		ref[k] = i
		if i%7 == 0 {
			tab.Delete(k ^ 1)
			delete(ref, k^1)
		}
	}
	checkSame(t, &tab, ref)
	if 2*tab.Len() > len(tab.slots) {
		t.Fatalf("%d keys in %d slots: load above one half", tab.Len(), len(tab.slots))
	}
	tab.Clear()
	checkSame(t, &tab, map[isa.Block]uint64{})
}

// fuzzKey decodes a key selector byte into one of four key families:
// colliders that wrap past the table end, small keys (block 0
// included), keys at the top of the key space, and spread keys.
func fuzzKey(b byte) isa.Block {
	j := uint64(b & 63)
	switch b >> 6 {
	case 0:
		return collider(j)
	case 1:
		return isa.Block(j)
	case 2:
		return ^isa.Block(j)
	default:
		return isa.Block(j * 0x100000001b3)
	}
}

// FuzzBlockTable runs arbitrary op sequences against a Table and a Go
// map and requires them to agree after every op. Each op is two bytes:
// an opcode and a key selector (fuzzKey). The fill op inserts 600
// consecutive keys, so two of them force growth past the first slot
// array. An input runs at most maxFuzzOps ops and maxFuzzFills fills,
// so every input runs fast, minimization included.
func FuzzBlockTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 1, 0})                      // put/get/delete block 0
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 2, 2, 1, 3, 1, 4})    // wrapped chain, mid delete
	f.Add([]byte{4, 200, 4, 100, 0, 5, 2, 5, 4, 7, 2, 7})      // growth, then deletes
	f.Add([]byte{0, 0x80, 0, 0x81, 3, 0, 1, 0x80, 0, 0x80})    // top keys, clear
	f.Add(binary.LittleEndian.AppendUint64(nil, 0x0402040104)) // mixed

	const maxFuzzOps, maxFuzzFills = 512, 4
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2*maxFuzzOps {
			data = data[:2*maxFuzzOps]
		}
		var tab Table[uint64]
		ref := map[isa.Block]uint64{}
		fills := 0
		for i := 0; i+1 < len(data); i += 2 {
			k, v := fuzzKey(data[i+1]), uint64(i)
			switch data[i] % 5 {
			case 0:
				tab.Put(k, v)
				ref[k] = v
			case 1:
				got, ok := tab.Get(k)
				want, wok := ref[k]
				if ok != wok || got != want || tab.Has(k) != wok {
					t.Fatalf("op %d: Get(%v) = %d, %v; reference %d, %v", i/2, k, got, ok, want, wok)
				}
			case 2:
				tab.Delete(k)
				delete(ref, k)
			case 3:
				tab.Clear()
				clear(ref)
			case 4:
				if fills++; fills > maxFuzzFills {
					break
				}
				for d := isa.Block(0); d < 600; d++ {
					tab.Put(k+d, v)
					ref[k+d] = v
				}
			}
			if tab.Len() != len(ref) {
				t.Fatalf("op %d: Len = %d, reference holds %d", i/2, tab.Len(), len(ref))
			}
		}
		checkSame(t, &tab, ref)
	})
}
