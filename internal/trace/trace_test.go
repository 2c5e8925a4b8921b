package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestFlags(t *testing.T) {
	f := FlagCallTarget | FlagBranchTaken
	if !f.Has(FlagCallTarget) || !f.Has(FlagBranchTaken) {
		t.Error("Has should report set bits")
	}
	if f.Has(FlagTrapEntry) {
		t.Error("Has should not report unset bits")
	}
	if !f.Has(FlagCallTarget | FlagBranchTaken) {
		t.Error("Has with multi-bit mask should require all bits")
	}
}

func TestRecordBlock(t *testing.T) {
	r := Record{PC: 0x1044}
	if r.Block() != isa.BlockOf(0x1044) {
		t.Errorf("Block = %v", r.Block())
	}
}

func TestStreamBlocksCollapses(t *testing.T) {
	s := Stream{
		{PC: 0x1000}, {PC: 0x1004}, {PC: 0x1008}, // same block
		{PC: 0x1040},               // next block
		{PC: 0x1000},               // back to first
		{PC: 0x1004},               // still first
		{PC: 0x2000}, {PC: 0x2004}, // third
	}
	blocks := s.Blocks()
	want := []isa.Block{isa.BlockOf(0x1000), isa.BlockOf(0x1040), isa.BlockOf(0x1000), isa.BlockOf(0x2000)}
	if len(blocks) != len(want) {
		t.Fatalf("Blocks = %v, want %v", blocks, want)
	}
	for i := range want {
		if blocks[i] != want[i] {
			t.Errorf("Blocks[%d] = %v, want %v", i, blocks[i], want[i])
		}
	}
}

func TestStreamBlocksEmpty(t *testing.T) {
	if got := (Stream{}).Blocks(); len(got) != 0 {
		t.Errorf("empty stream Blocks = %v", got)
	}
}

func TestBlocksNoAdjacentDuplicates(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := make(Stream, int(n)+1)
		pc := isa.Addr(0x10000)
		for i := range s {
			if rng.Intn(3) == 0 {
				pc = isa.Addr(rng.Intn(1 << 20)).AlignToInstr()
			} else {
				pc = pc.Plus(1)
			}
			s[i] = Record{PC: pc}
		}
		blocks := s.Blocks()
		for i := 1; i < len(blocks); i++ {
			if blocks[i] == blocks[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// roundTrip writes s to a store named name with two records per chunk,
// reopens it, and returns what the reader decodes.
func roundTrip(t *testing.T, name string, s Stream) Stream {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	n, err := BuildStore(dir, name, 2, s.Iter())
	if err != nil {
		t.Fatalf("BuildStore: %v", err)
	}
	if n != uint64(len(s)) {
		t.Fatalf("BuildStore wrote %d records, want %d", n, len(s))
	}
	r, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	defer r.Close()
	if h := r.Header(); h.Workload != name || h.Records != uint64(len(s)) {
		t.Fatalf("Header = %+v, want workload %q with %d records", h, name, len(s))
	}
	got, err := Collect(r)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return got
}

func TestRoundTrip(t *testing.T) {
	s := Stream{
		{PC: 0x1000, TL: isa.TL0, Flags: FlagCallTarget},
		{PC: 0x1004, TL: isa.TL0},
		{PC: 0x9000, TL: isa.TL1, Flags: FlagTrapEntry | FlagBranchTaken},
		{PC: 0x1008, TL: isa.TL0, Flags: FlagTrapReturn},
		{PC: 0x0, TL: isa.TL0},
	}
	got := roundTrip(t, "oltp-db2", s)
	if len(got) != len(s) {
		t.Fatalf("len = %d, want %d", len(got), len(s))
	}
	for i := range s {
		if got[i] != s[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], s[i])
		}
	}
}

// TestRoundTripEmpty asserts an empty store with an empty workload name
// is a valid store of zero records and zero chunks.
func TestRoundTripEmpty(t *testing.T) {
	got := roundTrip(t, "", Stream{})
	if len(got) != 0 {
		t.Errorf("expected empty stream, got %d records", len(got))
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8, perChunk uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := make(Stream, int(n))
		for i := range s {
			s[i] = Record{
				PC:    isa.Addr(rng.Uint64() & 0xffffffff).AlignToInstr(),
				TL:    isa.TrapLevel(rng.Intn(2)),
				Flags: Flags(rng.Intn(64)),
			}
		}
		dir := filepath.Join(t.TempDir(), "store")
		if _, err := BuildStore(dir, "p", uint64(perChunk%32)+1, s.Iter()); err != nil {
			return false
		}
		r, err := OpenStore(dir)
		if err != nil {
			return false
		}
		defer r.Close()
		got, err := Collect(r)
		if err != nil || len(got) != len(s) {
			return false
		}
		for i := range s {
			if got[i] != s[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestReaderBadMagic asserts a store whose index or chunk carries a
// foreign magic number fails to open or decode, on both chunk sources.
func TestReaderBadMagic(t *testing.T) {
	for _, file := range []string{IndexName, ChunkFileName(1)} {
		dir := filepath.Join(t.TempDir(), "store")
		writeStore(t, dir, "wl", 8, synthStream(1, 20))
		path := filepath.Join(dir, file)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(data, 0xdeadbeef)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mode := range chunkSourceModes() {
			r, err := OpenStoreMode(dir, mode)
			if err == nil {
				_, err = Collect(r)
				r.Close()
			}
			if err == nil || !strings.Contains(err.Error(), "bad") || !strings.Contains(err.Error(), "magic 0xdeadbeef") {
				t.Errorf("%s with bad magic (mode %d): err = %v, want a bad-magic error", file, mode, err)
			}
		}
	}
}

// chunkSourceModes lists the chunk sources this platform can pin: the
// heap-copy path always, the mmap path where mapping is supported.
func chunkSourceModes() []ChunkSourceMode {
	if mmapSupported {
		return []ChunkSourceMode{ChunkSourceReadFile, ChunkSourceMmap}
	}
	return []ChunkSourceMode{ChunkSourceReadFile}
}

// TestReaderTruncated cuts a store's index at every byte offset: every
// cut must fail to open, so a torn index never reads as a shorter store.
func TestReaderTruncated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	w, err := CreateStore(dir, "wl", 8)
	if err != nil {
		t.Fatal(err)
	}
	w.SetPhases(12, 8)
	if _, err := CopyRecords(w, synthStream(3, 20).Iter()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, IndexName)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(whole); cut++ {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := OpenStore(dir); err == nil {
			r.Close()
			t.Errorf("index cut at byte %d of %d opened", cut, len(whole))
		}
	}
}

// TestReaderTruncatedEveryByte cuts chunk 1 of a store, whose records
// include multi-byte deltas, at every byte offset. No cut may read as a
// clean short stream: every cut, in the header, mid-varint or on a record
// boundary, wraps io.ErrUnexpectedEOF after a strict prefix of the
// stream, and the batch path (Collect) and the per-record path (Next)
// must report the same error on both chunk sources.
func TestReaderTruncatedEveryByte(t *testing.T) {
	// Large deltas force multi-byte varints so cuts land mid-varint.
	s := Stream{
		{PC: 0x7fff_0000, TL: isa.TL0, Flags: FlagCallTarget},
		{PC: 0x40, TL: isa.TL1, Flags: FlagTrapEntry},
		{PC: 0x1234_5678_9abc, TL: isa.TL0, Flags: FlagBranchTaken},
		{PC: 0x1234_5678_9ac0, TL: isa.TL0},
		{PC: 0x40, TL: isa.TL1},
		{PC: 0x1234_5678_9ac4, TL: isa.TL0, Flags: FlagReturnTarget},
		{PC: 0x1234_5678_9ac8, TL: isa.TL0},
		{PC: 0x8000_0000_0000_0000, TL: isa.TL1, Flags: FlagTrapReturn},
	}
	dir := filepath.Join(t.TempDir(), "store")
	writeStore(t, dir, "t", 4, s)
	path := filepath.Join(dir, ChunkFileName(1))
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(whole); cut++ {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := drainEveryPath(t, dir)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut=%d: err = %v after %d records, want io.ErrUnexpectedEOF", cut, err, len(got))
		}
		if len(got) >= len(s) {
			t.Fatalf("cut=%d: decoded all %d records from a torn chunk", cut, len(got))
		}
		for i := range got {
			if got[i] != s[i] {
				t.Fatalf("cut=%d: record %d = %+v, want %+v", cut, i, got[i], s[i])
			}
		}
	}
}

// drainEveryPath drains the store at dir through Collect (the batch
// path) and through per-record Next, on every chunk source. Every path
// must decode the same records and end with the same error text (nil
// for a clean end); it returns those records and the last path's error.
func drainEveryPath(t *testing.T, dir string) (Stream, error) {
	t.Helper()
	var want Stream
	var wantErr error
	for i, mode := range chunkSourceModes() {
		for _, perRecord := range []bool{false, true} {
			r, err := OpenStoreMode(dir, mode)
			if err != nil {
				t.Fatalf("OpenStoreMode(%d): %v", mode, err)
			}
			var got Stream
			if perRecord {
				if got, err = drainPerRecord(r); err == io.EOF {
					err = nil
				}
			} else {
				got, err = Collect(r)
			}
			r.Close()
			if i == 0 && !perRecord {
				want, wantErr = got, err
				continue
			}
			label := fmt.Sprintf("mode %d, per-record %v", mode, perRecord)
			if len(got) != len(want) {
				t.Fatalf("%s: %d records, the batch path decoded %d", label, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%s: record %d = %+v, want %+v", label, k, got[k], want[k])
				}
			}
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error %v, want %v", label, err, wantErr)
			}
			wantErr = err
		}
	}
	return want, wantErr
}

// TestReaderVarintOverflow asserts a chunk whose PC delta overflows 64
// bits (an 11-byte varint, or a 10-byte one whose last byte exceeds 1)
// reports errVarintOverflow on the batch and per-record paths alike.
func TestReaderVarintOverflow(t *testing.T) {
	cases := map[string][]byte{
		"11-byte varint":          append(bytes.Repeat([]byte{0x80}, 10), 0x00),
		"10-byte varint, last >1": append(bytes.Repeat([]byte{0x80}, 9), 0x02),
	}
	for name, delta := range cases {
		dir := filepath.Join(t.TempDir(), "store")
		writeStore(t, dir, "wl", 8, Stream{{PC: 0x40}})
		path := filepath.Join(dir, ChunkFileName(0))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Replace the single record (a 1-byte zero delta, TL, flags) with
		// the oversized delta followed by TL and flags bytes.
		data = append(append(data[:chunkHeaderSize], delta...), 0, 0)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := drainEveryPath(t, dir); !errors.Is(err, errVarintOverflow) {
			t.Errorf("%s: err = %v, want errVarintOverflow", name, err)
		}
	}
}

// TestWriterCloseSurfacesWriteError asserts a StoreWriter whose final
// chunk fails to flush reports the failure from Close, keeps reporting
// it, and writes no index.
func TestWriterCloseSurfacesWriteError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	w, err := CreateStore(dir, "t", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Record{PC: 0x40}); err != nil {
		t.Fatal(err)
	}
	// Point the open chunk's buffer at a failing disk: the next record
	// sits buffered, so the failure surfaces at Close's flush.
	w.bw.Reset(failWriter{})
	if err := w.Write(Record{PC: 0x44}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Error("Close over a failed flush should report the failure")
	}
	if err := w.Close(); err == nil {
		t.Error("repeated Close should keep reporting the failure")
	}
	if _, err := os.Stat(filepath.Join(dir, IndexName)); !os.IsNotExist(err) {
		t.Errorf("failed Close left an index behind (stat err=%v)", err)
	}
}

// failWriter always fails, standing in for a full or yanked disk.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk gone") }

// TestReaderEOF asserts the end of a store is a clean, repeatable
// io.EOF on both pull paths, for an empty store and a drained one.
func TestReaderEOF(t *testing.T) {
	for _, n := range []int{0, 5} {
		dir := filepath.Join(t.TempDir(), "store")
		writeStore(t, dir, "t", 4, synthStream(1, n))
		r, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := Collect(r); err != nil || len(got) != n {
			t.Fatalf("n=%d: Collect = %d records, %v", n, len(got), err)
		}
		for i := 0; i < 2; i++ {
			if _, err := r.Next(); err != io.EOF {
				t.Errorf("n=%d: Next after the end = %v, want io.EOF", n, err)
			}
			if k, err := r.NextBatch(make([]Record, 4)); k != 0 || err != io.EOF {
				t.Errorf("n=%d: NextBatch after the end = (%d, %v), want (0, io.EOF)", n, k, err)
			}
		}
		r.Close()
	}
}

// TestWriterLongName asserts the index's one-byte name length bounds
// workload names: 255 bytes round-trip, 256 are refused.
func TestWriterLongName(t *testing.T) {
	name := strings.Repeat("a", 255)
	if got := roundTrip(t, name, Stream{{PC: 0x40}}); len(got) != 1 {
		t.Errorf("255-byte name: %d records, want 1", len(got))
	}
	if _, err := CreateStore(filepath.Join(t.TempDir(), "store"), name+"a", 0); err == nil {
		t.Error("overlong workload name should fail")
	}
}

func TestEncodingIsCompact(t *testing.T) {
	// Sequential +4 deltas should cost 3 bytes/record (varint 1 + TL + flags).
	s := make(Stream, 1000)
	for i := range s {
		s[i] = Record{PC: isa.Addr(0x1000).Plus(i)}
	}
	dir := filepath.Join(t.TempDir(), "store")
	writeStore(t, dir, "seq", 0, s)
	fi, err := os.Stat(filepath.Join(dir, ChunkFileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	perRecord := float64(fi.Size()-chunkHeaderSize) / float64(len(s))
	if perRecord > 3.5 {
		t.Errorf("sequential encoding too large: %.2f bytes/record", perRecord)
	}
}

// TestBlockRun pins the run rule: which successors of rs[0] continue it.
func TestBlockRun(t *testing.T) {
	const a = isa.Addr(0x1000)
	top := ^isa.Addr(0) &^ (isa.InstrBytes - 1) // the last instruction slot
	rec := func(pc isa.Addr, f Flags) Record { return Record{PC: pc, Flags: f} }
	type runCase struct {
		name string
		rs   []Record
		want int
	}
	cases := []runCase{
		{"empty", nil, 0},
		{"one record", []Record{rec(a, 0)}, 0},
		{"straight line to the block end", []Record{rec(a, 0), rec(a.Plus(1), 0), rec(a.Plus(2), 0)}, 2},
		{"same PC repeated", []Record{rec(a, 0), rec(a, 0), rec(a, 0), rec(a, 0)}, 3},
		{"block change", []Record{rec(a, 0), rec(a.Plus(15), 0), rec(a.Plus(16), 0)}, 1},
		{"trap-level flip, no trap flag", []Record{rec(a, 0), {PC: a.Plus(1), TL: isa.TL1}}, 0},
		{"trap-level flip mid-run", []Record{{PC: a, TL: isa.TL1}, {PC: a.Plus(1), TL: isa.TL1}, rec(a.Plus(2), 0)}, 1},
		{"block 0", []Record{rec(0, 0), rec(4, 0), rec(isa.BlockBytes, 0)}, 1},
		{"top of the address space", []Record{rec(top.Plus(-1), 0), rec(top, 0)}, 1},
		{"wrap past the top", []Record{rec(top, 0), rec(top.Plus(1), 0)}, 0},
		{"run stops at a taken branch", []Record{rec(a, 0), rec(a.Plus(1), FlagBranchTaken), rec(a.Plus(2), 0)}, 1},
		{"not-taken branch mid-block ends the run", []Record{rec(a, 0), rec(a.Plus(1), FlagCondBranch), rec(a.Plus(2), 0)}, 1},
	}
	// Each flag on either side of one same-block pair: only a group-ending
	// predecessor or a group-opening successor breaks the run.
	for _, f := range []struct {
		name     string
		flag     Flags
		onP, onQ int
	}{
		{"call target", FlagCallTarget, 1, 0},
		{"return target", FlagReturnTarget, 1, 0},
		{"branch taken", FlagBranchTaken, 0, 1},
		{"conditional branch", FlagCondBranch, 0, 1},
		{"trap entry", FlagTrapEntry, 1, 0},
		{"trap return", FlagTrapReturn, 1, 0},
	} {
		cases = append(cases,
			runCase{f.name + " on the predecessor", []Record{rec(a, f.flag), rec(a.Plus(1), 0)}, f.onP},
			runCase{f.name + " on the successor", []Record{rec(a, 0), rec(a.Plus(1), f.flag)}, f.onQ})
	}
	for _, c := range cases {
		if got := BlockRun(c.rs); got != c.want {
			t.Errorf("%s: BlockRun = %d, want %d", c.name, got, c.want)
		}
	}
}
