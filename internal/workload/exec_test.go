package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/trace"
)

// TestExecutorStreamPinned pins the executor's output layer by layer: for
// each standard and XL profile it runs one executor through several Run
// calls of uneven sizes and compares an FNV-64a digest of every record
// (PC as a little-endian uint64, then the TL byte, then the Flags byte)
// against the stream the image and executor produced when pinned. The
// goldens catch stream drift only through the whole simulator; this test
// names the layer that moved. Each profile is then driven through
// RunBatches at several buffer capacities, carrying the unflushed tail
// across calls, so every boundary of its straight-line fast path meets
// the same pinned stream.
func TestExecutorStreamPinned(t *testing.T) {
	cases := []struct {
		prof      Profile
		digest    uint64
		footprint int
	}{
		{OLTPDB2(), 0x0e6a8506c67fa3c1, 27455},
		{OLTPOracle(), 0x855f6840e8a0a4f7, 28676},
		{DSSQry2(), 0x774a189c8e1d9ac3, 18772},
		{DSSQry17(), 0x331942580bc6470a, 20102},
		{WebApache(), 0xc5e8a123925e9d83, 24451},
		{WebZeus(), 0x2d147f92cff51cb3, 24987},
		{OLTPXL(), 0xa9f5cb51acf530a7, 118101},
		{WebXL(), 0x0a129dca00b15add, 120703},
	}
	runs := []uint64{300_000, 1, 1_700_000, 999}
	for _, c := range cases {
		t.Run(c.prof.Name, func(t *testing.T) {
			prog, err := BuildProgram(c.prof)
			if err != nil {
				t.Fatal(err)
			}
			if prog.FootprintBlks != c.footprint {
				t.Errorf("FootprintBlks = %d, want %d", prog.FootprintBlks, c.footprint)
			}
			h := fnv.New64a()
			var buf [10]byte
			emit := func(r trace.Record) {
				binary.LittleEndian.PutUint64(buf[:8], uint64(r.PC))
				buf[8], buf[9] = byte(r.TL), byte(r.Flags)
				h.Write(buf[:])
			}
			ex := NewExecutor(prog)
			var want uint64
			for _, n := range runs {
				want += n
				if got := ex.Run(n, emit); got != want {
					t.Fatalf("Run(%d) returned %d, want %d", n, got, want)
				}
			}
			if ex.Emitted() != want {
				t.Errorf("Emitted = %d, want %d", ex.Emitted(), want)
			}
			if got := h.Sum64(); got != c.digest {
				t.Errorf("stream digest = %016x, want %016x", got, c.digest)
			}

			for _, capacity := range []int{1, 7, 4096} {
				h.Reset()
				flush := func(b []trace.Record) []trace.Record {
					if len(b) != capacity {
						t.Fatalf("capacity %d: flushed %d records", capacity, len(b))
					}
					for _, r := range b {
						emit(r)
					}
					return b[:0]
				}
				ex := NewExecutor(prog)
				buf := make([]trace.Record, 0, capacity)
				var want uint64
				for _, n := range runs {
					want += n
					buf = ex.RunBatches(n, buf, flush)
					if ex.Emitted() != want {
						t.Fatalf("capacity %d: RunBatches(%d) left Emitted = %d, want %d", capacity, n, ex.Emitted(), want)
					}
				}
				for _, r := range buf {
					emit(r)
				}
				if got := h.Sum64(); got != c.digest {
					t.Errorf("capacity %d: stream digest = %016x, want %016x", capacity, got, c.digest)
				}
			}
		})
	}
}
