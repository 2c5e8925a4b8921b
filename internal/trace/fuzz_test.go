package trace

import (
	"encoding/binary"
	"path/filepath"
	"testing"

	"repro/internal/isa"
)

// recordsFromBytes derives a record stream from arbitrary fuzz input:
// every 4 bytes become one record (16-bit PC step, trap level, flags), so
// any input is a valid stream and the fuzzer explores delta signs and
// sizes, trap levels, and flag bytes freely.
func recordsFromBytes(data []byte) Stream {
	s := make(Stream, 0, len(data)/4)
	pc := isa.Addr(0x10_0000)
	for i := 0; i+4 <= len(data); i += 4 {
		step := int(int16(binary.LittleEndian.Uint16(data[i:]))) // signed jumps
		pc = isa.Addr(int64(pc) + int64(step)*4)
		s = append(s, Record{PC: pc, TL: isa.TrapLevel(data[i+2] & 1), Flags: Flags(data[i+3] & 0x3f)})
	}
	return s
}

// FuzzTraceRoundTrip drives arbitrary record streams through the sharded
// trace store, with a fuzzer-chosen chunk size so shard boundaries land
// everywhere, and asserts exact reconstruction: Collect(Write(s)) == s.
func FuzzTraceRoundTrip(f *testing.F) {
	// Seeds around shard boundaries: with chunkRecords forced into
	// [1, 16], 4*k-byte inputs put k records at, just below, and just
	// above chunk multiples.
	f.Add(make([]byte, 4*1), uint8(1))
	f.Add(make([]byte, 4*7), uint8(8))
	f.Add(make([]byte, 4*8), uint8(8))
	f.Add(make([]byte, 4*9), uint8(8))
	f.Add(make([]byte, 4*32), uint8(4))
	f.Add([]byte{0xff, 0x7f, 1, 0xff, 0x00, 0x80, 0, 0}, uint8(1))
	f.Add([]byte(nil), uint8(3))

	f.Fuzz(func(t *testing.T, data []byte, chunkByte uint8) {
		s := recordsFromBytes(data)
		chunkRecords := uint64(chunkByte%16) + 1

		dir := filepath.Join(t.TempDir(), "store")
		sw, err := CreateStore(dir, "fuzz", chunkRecords)
		if err != nil {
			t.Fatalf("CreateStore: %v", err)
		}
		if _, err := CopyRecords(sw, s.Iter()); err != nil {
			t.Fatalf("CopyRecords: %v", err)
		}
		if err := sw.Close(); err != nil {
			t.Fatalf("store Close: %v", err)
		}
		sr, err := OpenStore(dir)
		if err != nil {
			t.Fatalf("OpenStore: %v", err)
		}
		defer sr.Close()
		if sr.Header().Records != uint64(len(s)) {
			t.Fatalf("store Records = %d, want %d", sr.Header().Records, len(s))
		}
		got, err := Collect(sr)
		if err != nil {
			t.Fatalf("store Collect: %v", err)
		}
		assertSameStream(t, "store", s, got)
	})
}

func assertSameStream(t *testing.T, label string, want, got Stream) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}
