package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
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

func roundTrip(t *testing.T, name string, s Stream) Stream {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, name)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if err := w.WriteStream(s); err != nil {
		t.Fatalf("WriteStream: %v", err)
	}
	if w.Count() != uint64(len(s)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(s))
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if r.Workload() != name {
		t.Fatalf("Workload = %q, want %q", r.Workload(), name)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
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

func TestRoundTripEmpty(t *testing.T) {
	got := roundTrip(t, "", Stream{})
	if len(got) != 0 {
		t.Errorf("expected empty stream, got %d records", len(got))
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := make(Stream, int(n))
		for i := range s {
			s[i] = Record{
				PC:    isa.Addr(rng.Uint64() & 0xffffffff).AlignToInstr(),
				TL:    isa.TrapLevel(rng.Intn(2)),
				Flags: Flags(rng.Intn(64)),
			}
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, "p")
		if err != nil {
			return false
		}
		if err := w.WriteStream(s); err != nil {
			return false
		}
		if err := w.Close(); err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := r.ReadAll()
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

func TestWriterAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Record{}); err == nil {
		t.Error("Write after Close should fail")
	}
	if err := w.Close(); err != nil {
		t.Errorf("double Close should be nil, got %v", err)
	}
}

func TestReaderBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte{1, 2, 3, 4, 0, 0, 0, 0, 0})); err == nil {
		t.Error("bad magic should fail")
	}
}

func TestReaderTruncated(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "t")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Record{PC: 0x40}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Chop the final flags byte: the reader should surface an error, not EOF.
	data := buf.Bytes()[:buf.Len()-1]
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err == nil || errors.Is(err, io.EOF) {
		t.Errorf("truncated record should be a hard error, got %v", err)
	}
}

// TestReaderTruncatedEveryByte truncates a valid trace at every byte
// boundary through the first few records and asserts the reader never
// reports a silently short stream: a cut inside a record — including in
// the middle of the delta varint, the case the reader used to swallow as
// a clean io.EOF — must surface io.ErrUnexpectedEOF, and a cut exactly on
// a record boundary must decode to exactly the complete-record prefix.
func TestReaderTruncatedEveryByte(t *testing.T) {
	// Large deltas force multi-byte varints so cuts land mid-varint.
	s := Stream{
		{PC: 0x7fff_0000, TL: isa.TL0, Flags: FlagCallTarget},
		{PC: 0x40, TL: isa.TL1, Flags: FlagTrapEntry},
		{PC: 0x1234_5678_9abc, TL: isa.TL0, Flags: FlagBranchTaken},
		{PC: 0x1234_5678_9ac0, TL: isa.TL0},
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "t")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteStream(s); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Map every record-aligned byte offset (including the bare header) to
	// the number of complete records before it, by re-encoding the same
	// stream record by record with a flush in between.
	var probe bytes.Buffer
	pw, err := NewWriter(&probe, "t")
	if err != nil {
		t.Fatal(err)
	}
	if err := pw.w.Flush(); err != nil {
		t.Fatal(err)
	}
	headerLen := probe.Len()
	boundaries := map[int]int{headerLen: 0}
	for i, rec := range s {
		if err := pw.Write(rec); err != nil {
			t.Fatal(err)
		}
		if err := pw.w.Flush(); err != nil {
			t.Fatal(err)
		}
		boundaries[probe.Len()] = i + 1
	}

	for cut := headerLen; cut < len(full); cut++ {
		r, err := NewReader(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut=%d: NewReader: %v", cut, err)
		}
		got, err := r.ReadAll()
		if want, aligned := boundaries[cut]; aligned {
			if err != nil {
				t.Errorf("cut=%d (record-aligned): ReadAll error %v", cut, err)
			}
			if len(got) != want {
				t.Errorf("cut=%d: decoded %d records, want %d", cut, len(got), want)
			}
			continue
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut=%d (mid-record): ReadAll error = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestWriterCloseSurfacesWriteError(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "t")
	if err != nil {
		t.Fatal(err)
	}
	// Poison the underlying bufio chain the way a full disk would: force
	// a flush failure by swapping in a broken writer after construction.
	w.w.Reset(failWriter{})
	if err := w.Write(Record{PC: 0x40}); err != nil {
		// Small writes buffer cleanly; a write error here is also fine.
		t.Logf("Write: %v", err)
	}
	if err := w.Close(); err == nil {
		t.Error("Close over a failed writer should report the failure")
	}
	if err := w.Close(); err == nil {
		t.Error("repeated Close should keep reporting the failure")
	}
}

// failWriter always fails, standing in for a full or yanked disk.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk gone") }

func TestReaderEOF(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "t")
	_ = w.Close()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestWriterLongName(t *testing.T) {
	long := make([]byte, 300)
	for i := range long {
		long[i] = 'a'
	}
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, string(long)); err == nil {
		t.Error("overlong workload name should fail")
	}
}

func TestEncodingIsCompact(t *testing.T) {
	// Sequential +4 deltas should cost 3 bytes/record (varint 1 + TL + flags).
	s := make(Stream, 1000)
	for i := range s {
		s[i] = Record{PC: isa.Addr(0x1000).Plus(i)}
	}
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "seq")
	_ = w.WriteStream(s)
	_ = w.Close()
	perRecord := float64(buf.Len()) / float64(len(s))
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
