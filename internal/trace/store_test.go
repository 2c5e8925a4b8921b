package trace

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/isa"
)

// synthStream builds a deterministic pseudo-random stream of n records.
func synthStream(seed int64, n int) Stream {
	rng := rand.New(rand.NewSource(seed))
	s := make(Stream, n)
	pc := isa.Addr(0x40_0000)
	for i := range s {
		switch rng.Intn(4) {
		case 0:
			pc = isa.Addr(rng.Intn(1 << 28)).AlignToInstr()
		default:
			pc = pc.Plus(1)
		}
		s[i] = Record{PC: pc, TL: isa.TrapLevel(rng.Intn(2)), Flags: Flags(rng.Intn(64))}
	}
	return s
}

func writeStore(t *testing.T, dir string, name string, perChunk uint64, s Stream) {
	t.Helper()
	w, err := CreateStore(dir, name, perChunk)
	if err != nil {
		t.Fatalf("CreateStore: %v", err)
	}
	for _, r := range s {
		if err := w.Write(r); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if w.Count() != uint64(len(s)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(s))
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestStoreRoundTrip asserts ReadAll(Write(s)) == s across shard
// boundaries: record counts straddling exact chunk multiples all
// reconstruct the identical stream.
func TestStoreRoundTrip(t *testing.T) {
	const perChunk = 64
	for _, n := range []int{0, 1, perChunk - 1, perChunk, perChunk + 1, 3*perChunk - 1, 3 * perChunk, 3*perChunk + 2} {
		s := synthStream(int64(n), n)
		dir := filepath.Join(t.TempDir(), "store")
		writeStore(t, dir, "wl", perChunk, s)

		r, err := OpenStore(dir)
		if err != nil {
			t.Fatalf("n=%d: OpenStore: %v", n, err)
		}
		if r.Workload() != "wl" {
			t.Errorf("n=%d: Workload = %q", n, r.Workload())
		}
		if got := r.Header().Records; got != uint64(n) {
			t.Errorf("n=%d: Header.Records = %d", n, got)
		}
		wantChunks := (n + perChunk - 1) / perChunk
		if got := len(r.Index().Chunks); got != wantChunks {
			t.Errorf("n=%d: chunks = %d, want %d", n, got, wantChunks)
		}
		got, err := r.ReadAll()
		if err != nil {
			t.Fatalf("n=%d: ReadAll: %v", n, err)
		}
		if len(got) != len(s) {
			t.Fatalf("n=%d: len = %d", n, len(got))
		}
		for i := range s {
			if got[i] != s[i] {
				t.Fatalf("n=%d: record %d = %+v, want %+v", n, i, got[i], s[i])
			}
		}
		// Fully drained: the next pull is a clean EOF.
		if _, err := r.Next(); !errors.Is(err, io.EOF) {
			t.Errorf("n=%d: Next after drain = %v, want EOF", n, err)
		}
		if err := r.Close(); err != nil {
			t.Errorf("n=%d: Close: %v", n, err)
		}
	}
}

// TestStoreChunkBasePC asserts each chunk decodes standalone from its own
// base PC — the property that makes chunks random-access windows.
func TestStoreChunkBasePC(t *testing.T) {
	const perChunk = 32
	s := synthStream(7, 5*perChunk+3)
	dir := filepath.Join(t.TempDir(), "store")
	writeStore(t, dir, "wl", perChunk, s)

	ix, err := ReadIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	var off int
	for i, info := range ix.Chunks {
		if info.BasePC != s[off].PC {
			t.Errorf("chunk %d BasePC = %v, want %v", i, info.BasePC, s[off].PC)
		}
		c, err := OpenChunk(dir, ix, i)
		if err != nil {
			t.Fatalf("OpenChunk(%d): %v", i, err)
		}
		for k := 0; k < int(info.Records); k++ {
			rec, err := c.Next()
			if err != nil {
				t.Fatalf("chunk %d record %d: %v", i, k, err)
			}
			if rec != s[off+k] {
				t.Fatalf("chunk %d record %d = %+v, want %+v", i, k, rec, s[off+k])
			}
		}
		if _, err := c.Next(); !errors.Is(err, io.EOF) {
			t.Errorf("chunk %d: want EOF at end, got %v", i, err)
		}
		c.Close()
		off += int(info.Records)
	}
}

func TestStoreSeek(t *testing.T) {
	const perChunk = 16
	s := synthStream(11, 4*perChunk+5)
	dir := filepath.Join(t.TempDir(), "store")
	writeStore(t, dir, "wl", perChunk, s)

	r, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, pos := range []uint64{0, 1, perChunk - 1, perChunk, 2*perChunk + 7, uint64(len(s)) - 1} {
		if err := r.Seek(pos); err != nil {
			t.Fatalf("Seek(%d): %v", pos, err)
		}
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("Next after Seek(%d): %v", pos, err)
		}
		if rec != s[pos] {
			t.Errorf("Seek(%d) = %+v, want %+v", pos, rec, s[pos])
		}
	}
	if err := r.Seek(uint64(len(s))); err != nil {
		t.Fatalf("Seek(end): %v", err)
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("Next at end = %v, want EOF", err)
	}
	if err := r.Seek(uint64(len(s)) + 1); err == nil {
		t.Error("Seek past end should fail")
	}
}

// TestStoreTruncatedChunk asserts a chunk shortened on disk is reported
// as io.ErrUnexpectedEOF — even when the cut lands exactly on a record
// boundary, which only the index's record count can catch.
func TestStoreTruncatedChunk(t *testing.T) {
	const perChunk = 16
	s := synthStream(3, 2*perChunk)
	dir := filepath.Join(t.TempDir(), "store")
	writeStore(t, dir, "wl", perChunk, s)

	chunk1 := filepath.Join(dir, ChunkFileName(1))
	data, err := os.ReadFile(chunk1)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 5, len(data) / 2, len(data) - 1} {
		if err := os.WriteFile(chunk1, data[:len(data)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenStore(dir)
		if err != nil {
			t.Fatalf("cut=%d: OpenStore: %v", cut, err)
		}
		_, err = r.ReadAll()
		if err == nil || errors.Is(err, io.EOF) {
			t.Errorf("cut=%d: truncated chunk read cleanly (err=%v)", cut, err)
		}
		r.Close()
	}

	// Truncate exactly at a record boundary: decode every record of the
	// full chunk 1, find a boundary offset, and cut there.
	ix, err := ReadIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(chunk1, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Re-encode the first perChunk/2 records of chunk 1 to find the byte
	// boundary: header is 3*4+8 bytes, then records.
	c, err := OpenChunk(dir, ix, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	boundary := chunkByteBoundary(t, data, perChunk/2)
	if err := os.WriteFile(chunk1, data[:boundary], 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.ReadAll(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("record-aligned truncation: got %v, want ErrUnexpectedEOF", err)
	}
}

// chunkByteBoundary returns the byte offset just after the n-th record of
// a chunk file image (header + delta-encoded records).
func chunkByteBoundary(t *testing.T, data []byte, n int) int {
	t.Helper()
	off := 3*4 + 8 // magic, version, ordinal, basePC
	for i := 0; i < n; i++ {
		// varint delta
		for off < len(data) && data[off]&0x80 != 0 {
			off++
		}
		off++    // final varint byte
		off += 2 // TL + flags
	}
	if off > len(data) {
		t.Fatalf("boundary %d past chunk end %d", off, len(data))
	}
	return off
}

// TestStoreExtraRecords asserts a chunk holding more records than the
// index claims is rejected rather than silently over-read.
func TestStoreExtraRecords(t *testing.T) {
	const perChunk = 8
	s := synthStream(5, perChunk) // exactly one full chunk
	dir := filepath.Join(t.TempDir(), "store")
	writeStore(t, dir, "wl", perChunk, s)

	chunk0 := filepath.Join(dir, ChunkFileName(0))
	data, err := os.ReadFile(chunk0)
	if err != nil {
		t.Fatal(err)
	}
	// Append a valid-looking record (delta 0 → 3 bytes).
	if err := os.WriteFile(chunk0, append(data, 0, 0, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.ReadAll(); err == nil {
		t.Error("chunk with extra records should fail")
	}
}

func TestStoreMissingChunk(t *testing.T) {
	const perChunk = 8
	s := synthStream(9, 3*perChunk)
	dir := filepath.Join(t.TempDir(), "store")
	writeStore(t, dir, "wl", perChunk, s)
	if err := os.Remove(filepath.Join(dir, ChunkFileName(1))); err != nil {
		t.Fatal(err)
	}
	r, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.ReadAll(); err == nil {
		t.Error("store with a missing chunk should fail")
	}
}

func TestStoreIndexTamper(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	writeStore(t, dir, "wl", 8, synthStream(1, 20))
	idx := filepath.Join(dir, IndexName)
	data, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte of the trailing total so it disagrees with the chunk sum.
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(idx, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIndex(dir); err == nil {
		t.Error("index with inconsistent total should fail")
	}
	// Truncated index.
	if err := os.WriteFile(idx, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIndex(dir); err == nil {
		t.Error("truncated index should fail")
	}
	// A corrupt chunk count must be a clean error, not a huge allocation:
	// the count field sits after magic, version, name length, name, and
	// the chunk target.
	data[len(data)-1] ^= 0xff // restore the total
	off := 4 + 4 + 1 + len("wl") + 8
	for i := 0; i < 4; i++ {
		data[off+i] = 0xff
	}
	if err := os.WriteFile(idx, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIndex(dir); err == nil {
		t.Error("index with an absurd chunk count should fail")
	}
}

func TestStoreWriterStickyError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	w, err := CreateStore(dir, "wl", 4)
	if err != nil {
		t.Fatal(err)
	}
	// Pull the directory out from under the writer: the first chunk
	// creation fails, and the failure must stick through Close.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Record{PC: 0x40}); err == nil {
		t.Fatal("Write into a removed store directory should fail")
	}
	if err := w.Close(); err == nil {
		t.Error("Close after a failed Write should report the failure")
	}
	if err := w.Close(); err == nil {
		t.Error("repeated Close should keep reporting the failure")
	}
}

// TestStoreWriteAllocatesNothing asserts that writing a record into an
// open chunk allocates nothing: recording a store allocates per chunk
// (its file and write buffer), never per record.
func TestStoreWriteAllocatesNothing(t *testing.T) {
	s := synthStream(3, 4096)
	w, err := CreateStore(filepath.Join(t.TempDir(), "store"), "wl", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Write(s[0]); err != nil { // opens the only chunk
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, r := range s {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("writing %d records allocates %v times, want 0", len(s), allocs)
	}
}

func TestStoreWriteAfterClose(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	w, err := CreateStore(dir, "wl", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close of empty store: %v", err)
	}
	if err := w.Write(Record{}); err == nil {
		t.Error("Write after Close should fail")
	}
	// A caller bug after a successful Close does not poison the store:
	// the directory on disk is complete and valid.
	if err := w.Close(); err != nil {
		t.Errorf("re-Close of a successfully closed store = %v", err)
	}
	if _, err := ReadIndex(dir); err != nil {
		t.Errorf("ReadIndex: %v", err)
	}
}

// failingIter yields n records then an error (a source dying mid-copy).
type failingIter struct {
	left int
}

func (it *failingIter) Next() (Record, error) {
	if it.left == 0 {
		return Record{}, errors.New("source died")
	}
	it.left--
	return Record{PC: 0x1000}, nil
}

func (it *failingIter) NextBatch(dst []Record) (int, error) {
	for i := range dst {
		r, err := it.Next()
		if err != nil {
			return i, err
		}
		dst[i] = r
	}
	return len(dst), nil
}

// TestBuildStoreSourceFailureWritesNoIndex asserts a failed build never
// leaves a valid-looking store behind: trace.idx implies fully written,
// so a retrying caller can't silently replay a short trace.
func TestBuildStoreSourceFailureWritesNoIndex(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	if _, err := BuildStore(dir, "wl", 4, &failingIter{left: 10}); err == nil {
		t.Fatal("BuildStore over a dying source should fail")
	}
	if _, err := os.Stat(filepath.Join(dir, IndexName)); !os.IsNotExist(err) {
		t.Errorf("failed build left an index behind (stat err=%v)", err)
	}
	if _, err := OpenStore(dir); err == nil {
		t.Error("partial store should not open")
	}
}

// TestCreateStoreTruncatesPrevious asserts rewriting a store into the
// same directory removes the previous index and chunks, so a shorter
// rewrite leaves no stale higher-ordinal chunk files behind.
func TestCreateStoreTruncatesPrevious(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	writeStore(t, dir, "wl", 8, synthStream(1, 40)) // 5 chunks
	writeStore(t, dir, "wl", 8, synthStream(2, 10)) // 2 chunks

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var chunks int
	for _, e := range entries {
		if e.Name() != IndexName {
			chunks++
		}
	}
	if chunks != 2 {
		t.Errorf("rewrite left %d chunk files, want 2", chunks)
	}
	r, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := r.ReadAll()
	if err != nil || len(got) != 10 {
		t.Errorf("rewritten store: %d records, err=%v", len(got), err)
	}
}

// TestStorePhases asserts the recorded phase split round-trips through
// the index and that PhaseCompatible accepts exactly the replay splits
// that reproduce a live run.
func TestStorePhases(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s := synthStream(13, 300)
	w, err := CreateStore(dir, "wl", 64)
	if err != nil {
		t.Fatal(err)
	}
	w.SetPhases(200, 100)
	for _, r := range s {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ix, err := ReadIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Phases) != 2 || ix.Phases[0] != 200 || ix.Phases[1] != 100 {
		t.Fatalf("Phases = %v, want [200 100]", ix.Phases)
	}
	cases := []struct {
		warmup, measure uint64
		want            bool
	}{
		{200, 100, true},  // exact recorded split
		{200, 50, true},   // shorter measure: prefix of the same phase
		{0, 100, true},    // no warmup, inside phase 0
		{0, 200, true},    // no warmup, up to the boundary
		{0, 250, false},   // measure crosses the recorded boundary
		{100, 100, false}, // warmup is not a recorded boundary
		{300, 0, true},    // boundary at end of both phases
	}
	for _, c := range cases {
		if got := ix.PhaseCompatible(c.warmup, c.measure); got != c.want {
			t.Errorf("PhaseCompatible(%d, %d) = %v, want %v", c.warmup, c.measure, got, c.want)
		}
	}
	// A store without recorded phases cannot be validated: accepted.
	if ok := (Index{}).PhaseCompatible(123, 456); !ok {
		t.Error("phase-less index should be accepted")
	}
}

// TestStoreDefaultChunkRecords asserts chunkRecords 0 selects the default.
func TestStoreDefaultChunkRecords(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	writeStore(t, dir, "wl", 0, synthStream(2, 10))
	ix, err := ReadIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ix.ChunkTarget != DefaultChunkRecords {
		t.Errorf("ChunkTarget = %d, want %d", ix.ChunkTarget, DefaultChunkRecords)
	}
}

// benchStream builds a stream with the delta mix of a real retire-order
// instruction trace: overwhelmingly sequential (+1 instruction), with
// near control transfers (loops, calls within a module) and occasional
// far jumps — unlike synthStream's adversarial 25% far-jump mix, which
// tests correctness, this is what replay throughput should be measured
// on.
func benchStream(seed int64, n int) Stream {
	rng := rand.New(rand.NewSource(seed))
	s := make(Stream, n)
	pc := isa.Addr(0x40_0000)
	for i := range s {
		switch r := rng.Intn(100); {
		case r < 90: // sequential fetch
			pc = pc.Plus(1)
		case r < 98: // near transfer: loop back-edge or local call
			pc = pc.Plus(int(rng.Intn(4096)) - 2048)
		default: // far jump: cross-module call, trap entry
			pc = isa.Addr(rng.Intn(1 << 28)).AlignToInstr()
		}
		s[i] = Record{PC: pc, TL: isa.TrapLevel(rng.Intn(2)), Flags: Flags(rng.Intn(64))}
	}
	return s
}

// benchStore writes a store of n records for benchmarking and returns its
// directory, the stream, and the store's on-disk byte size (for MB/s).
func benchStore(b *testing.B, perChunk uint64, n int) (string, Stream, int64) {
	b.Helper()
	s := benchStream(42, n)
	dir := filepath.Join(b.TempDir(), "store")
	w, err := CreateStore(dir, "bench", perChunk)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range s {
		if err := w.Write(r); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	var bytes int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			b.Fatal(err)
		}
		bytes += info.Size()
	}
	return dir, s, bytes
}

// BenchmarkStoreReplay measures streaming store replay: the per-record
// Iterator path against the BatchIterator path on the same input. The
// batch path is the one the simulator uses; the bench pipeline
// (internal/bench, BENCH_replay.json) enforces its speedup and its
// ~0 allocs/record. With ReportAllocs, allocations stay proportional to
// the chunk count (one image per chunk), not the record count.
func BenchmarkStoreReplay(b *testing.B) {
	const perChunk = 1 << 14
	dir, s, storeBytes := benchStore(b, perChunk, 1<<17) // 8 chunks

	b.Run("PerRecord", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(storeBytes)
		for i := 0; i < b.N; i++ {
			r, err := OpenStore(dir)
			if err != nil {
				b.Fatal(err)
			}
			var n uint64
			var it Iterator = r // per-record baseline pays the interface call
			for {
				_, err := it.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
				n++
			}
			if n != uint64(len(s)) {
				b.Fatalf("replayed %d records, want %d", n, len(s))
			}
			r.Close()
		}
		b.ReportMetric(float64(len(s)*b.N)/b.Elapsed().Seconds(), "records/s")
	})

	b.Run("Batch", func(b *testing.B) {
		buf := make([]Record, 4096)
		b.ReportAllocs()
		b.SetBytes(storeBytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := OpenStore(dir)
			if err != nil {
				b.Fatal(err)
			}
			var n uint64
			var it BatchIterator = r
			for {
				k, err := it.NextBatch(buf)
				n += uint64(k)
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			if n != uint64(len(s)) {
				b.Fatalf("replayed %d records, want %d", n, len(s))
			}
			r.Close()
		}
		b.ReportMetric(float64(len(s)*b.N)/b.Elapsed().Seconds(), "records/s")
	})
}

// BenchmarkStoreReadAll is the materializing baseline: allocations grow
// with the trace length (contrast with BenchmarkStoreReplay).
func BenchmarkStoreReadAll(b *testing.B) {
	const perChunk = 1 << 14
	s := synthStream(42, 1<<17)
	dir := filepath.Join(b.TempDir(), "store")
	w, err := CreateStore(dir, "bench", perChunk)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range s {
		if err := w.Write(r); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := OpenStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		got, err := r.ReadAll()
		if err != nil || len(got) != len(s) {
			b.Fatalf("ReadAll: %v (%d records)", err, len(got))
		}
		r.Close()
	}
}
