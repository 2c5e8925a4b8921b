package trace

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// drainPerRecord pulls it one record at a time and returns every record
// plus the terminal error (io.EOF for a clean end).
func drainPerRecord(it Iterator) (Stream, error) {
	var out Stream
	for {
		r, err := it.Next()
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
}

// drainBatch pulls it through NextBatch with the given batch size and
// returns every record plus the terminal error.
func drainBatch(b BatchIterator, batch int) (Stream, error) {
	var out Stream
	buf := make([]Record, batch)
	for {
		n, err := b.NextBatch(buf)
		out = append(out, buf[:n]...)
		if err != nil {
			return out, err
		}
	}
}

// checkParity asserts the per-record and batch drains of two identically
// positioned iterators agree record for record and error for error. The
// terminal errors must match in rendered message and in errors.Is
// identity against both EOF sentinels — byte-identical failure surfaces
// are the batch contract.
func checkParity(t *testing.T, label string, perRecord Iterator, batched BatchIterator, batch int) {
	t.Helper()
	want, wantErr := drainPerRecord(perRecord)
	got, gotErr := drainBatch(batched, batch)
	if len(got) != len(want) {
		t.Fatalf("%s (batch %d): %d records, per-record path yields %d", label, batch, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s (batch %d): record %d = %+v, want %+v", label, batch, i, got[i], want[i])
		}
	}
	checkSameError(t, fmt.Sprintf("%s (batch %d)", label, batch), gotErr, wantErr)
}

// checkSameError asserts two terminal errors are indistinguishable to a
// caller: same message, same io.EOF / io.ErrUnexpectedEOF identity.
func checkSameError(t *testing.T, label string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: error = %v, want %v", label, got, want)
	}
	if got == nil {
		return
	}
	if got.Error() != want.Error() {
		t.Fatalf("%s: error %q, want %q", label, got, want)
	}
	if errors.Is(got, io.EOF) != errors.Is(want, io.EOF) {
		t.Fatalf("%s: errors.Is(err, io.EOF) mismatch: batch %v, per-record %v", label, got, want)
	}
	if errors.Is(got, io.ErrUnexpectedEOF) != errors.Is(want, io.ErrUnexpectedEOF) {
		t.Fatalf("%s: errors.Is(err, io.ErrUnexpectedEOF) mismatch: batch %v, per-record %v", label, got, want)
	}
}

// batchSizes covers degenerate (1), prime-vs-chunk-misaligned, and
// larger-than-stream batch lengths.
var batchSizes = []int{1, 3, 7, 64, 100_000}

// TestBatchParityStream checks StreamIter against per-record iteration
// on an in-memory stream.
func TestBatchParityStream(t *testing.T) {
	s := synthStream(11, 1000)
	for _, batch := range batchSizes {
		checkParity(t, "StreamIter", s.Iter(), s.Iter(), batch)
	}
	// Empty stream: first batch pull is a clean EOF.
	if n, err := Stream(nil).Iter().NextBatch(make([]Record, 4)); n != 0 || err != io.EOF {
		t.Fatalf("empty stream NextBatch = (%d, %v), want (0, EOF)", n, err)
	}
	// Zero-length dst never touches the stream.
	it := s.Iter()
	if n, err := it.NextBatch(nil); n != 0 || err != nil {
		t.Fatalf("NextBatch(nil) = (%d, %v), want (0, nil)", n, err)
	}
	if r, err := it.Next(); err != nil || r != s[0] {
		t.Fatalf("Next after NextBatch(nil) = (%+v, %v), want first record", r, err)
	}
}

// storeFixture writes a multi-chunk store and returns its directory and
// stream. perChunk 64, 5 chunks plus a short tail.
func storeFixture(t *testing.T, seed int64) (string, Stream) {
	t.Helper()
	s := synthStream(seed, 5*64+17)
	dir := filepath.Join(t.TempDir(), "store")
	writeStore(t, dir, "wl", 64, s)
	return dir, s
}

// TestBatchParityStore checks ChunkReader and StoreReader across chunk
// boundaries.
func TestBatchParityStore(t *testing.T) {
	dir, _ := storeFixture(t, 17)
	ix, err := ReadIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	openStore := func() *StoreReader {
		r, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		return r
	}
	for _, batch := range batchSizes {
		checkParity(t, "StoreReader", openStore(), openStore(), batch)
		for i := range ix.Chunks {
			a, err := OpenChunkFrom(readFileSource{dir}, ix, i)
			if err != nil {
				t.Fatal(err)
			}
			b, err := OpenChunkFrom(readFileSource{dir}, ix, i)
			if err != nil {
				t.Fatal(err)
			}
			checkParity(t, fmt.Sprintf("ChunkReader %d", i), a, b, batch)
		}
	}
}

// TestBatchParitySlice checks SliceReader windows, including ones that
// span chunk boundaries and start mid-chunk.
func TestBatchParitySlice(t *testing.T) {
	dir, s := storeFixture(t, 19)
	windows := []Window{
		{Off: 0, Len: 10},                     // head of chunk 0
		{Off: 60, Len: 10},                    // spans the 0→1 boundary
		{Off: 63, Len: 130},                   // spans three chunks
		{Off: 64, Len: 64},                    // exactly chunk 1
		{Off: 300, Len: uint64(len(s)) - 300}, // through the short tail
	}
	for _, w := range windows {
		for _, batch := range batchSizes {
			a, err := OpenSlice(dir, w)
			if err != nil {
				t.Fatalf("OpenSlice(%s): %v", w, err)
			}
			b, err := OpenSlice(dir, w)
			if err != nil {
				t.Fatalf("OpenSlice(%s): %v", w, err)
			}
			checkParity(t, fmt.Sprintf("SliceReader %s", w), a, b, batch)
			a.Close()
			b.Close()
		}
		// Contents equal the stream slice itself.
		sr, err := OpenSlice(dir, w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Collect(sr)
		sr.Close()
		if err != nil {
			t.Fatalf("Collect(%s): %v", w, err)
		}
		want := s[w.Off:w.End()]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("window %s record %d = %+v, want %+v", w, i, got[i], want[i])
			}
		}
	}
}

// TestBatchParityTruncatedStore truncates a mid-store chunk file at every
// byte length and asserts the batch path reports byte-identical errors to
// the per-record path, always io.ErrUnexpectedEOF (or the index-mismatch
// diagnosis), never a clean EOF.
func TestBatchParityTruncatedStore(t *testing.T) {
	dir, _ := storeFixture(t, 23)
	chunkPath := filepath.Join(dir, ChunkFileName(2))
	whole, err := os.ReadFile(chunkPath)
	if err != nil {
		t.Fatal(err)
	}
	restore := func() {
		if err := os.WriteFile(chunkPath, whole, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	defer restore()
	for cut := 0; cut < len(whole); cut += 13 {
		if err := os.WriteFile(chunkPath, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		a, err := OpenStore(dir)
		if err != nil {
			t.Fatalf("cut %d: OpenStore: %v", cut, err)
		}
		b, err := OpenStore(dir)
		if err != nil {
			t.Fatalf("cut %d: OpenStore: %v", cut, err)
		}
		checkParity(t, fmt.Sprintf("truncated@%d", cut), a, b, 64)
		a.Close()
		b.Close()
		// The terminal error must never be a clean EOF: the index knows
		// more records were owed.
		c, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		_, termErr := drainBatch(c, 64)
		c.Close()
		if errors.Is(termErr, io.EOF) && !errors.Is(termErr, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d: truncated store drained cleanly (%v)", cut, termErr)
		}
	}
}

// TestBatchPartialThenError asserts the documented contract point that a
// truncation error surfaces after the records decoded earlier in the same
// call: dst[:n] is valid alongside err.
func TestBatchPartialThenError(t *testing.T) {
	dir, s := storeFixture(t, 29)
	chunkPath := filepath.Join(dir, ChunkFileName(0))
	whole, err := os.ReadFile(chunkPath)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the first chunk roughly in half, mid-payload.
	cut := chunkHeaderSize + (len(whole)-chunkHeaderSize)/2
	if err := os.WriteFile(chunkPath, whole[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]Record, 64)
	var got Stream
	var termErr error
	for {
		n, err := r.NextBatch(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			termErr = err
			break
		}
	}
	if !errors.Is(termErr, io.ErrUnexpectedEOF) {
		t.Fatalf("terminal error = %v, want ErrUnexpectedEOF", termErr)
	}
	if len(got) == 0 {
		t.Fatal("no records decoded before the truncation error")
	}
	for i := range got {
		if got[i] != s[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], s[i])
		}
	}
}

// TestStoreReadahead exercises the readahead machinery: interleaved
// Seek/Next/NextBatch across chunk boundaries while background loads are
// in flight, then Close with a load pending. Run under -race in CI, this
// is the data-race probe for the readahead goroutine.
func TestStoreReadahead(t *testing.T) {
	dir, s := storeFixture(t, 31)
	r, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]Record, 50)
	for round := 0; round < 20; round++ {
		off := uint64((round * 37) % (len(s) - 60))
		if err := r.Seek(off); err != nil {
			t.Fatalf("Seek(%d): %v", off, err)
		}
		if want, got := uint64(len(s))-off, r.Records(); got != want {
			t.Fatalf("Records after Seek(%d) = %d, want %d", off, got, want)
		}
		// Alternate pull styles so chunk turnover happens under both.
		if round%2 == 0 {
			n, err := r.NextBatch(buf)
			if err != nil {
				t.Fatalf("NextBatch after Seek(%d): %v", off, err)
			}
			for i := 0; i < n; i++ {
				if buf[i] != s[off+uint64(i)] {
					t.Fatalf("record %d after Seek(%d) mismatch", i, off)
				}
			}
		} else {
			for i := 0; i < 50; i++ {
				rec, err := r.Next()
				if err != nil {
					t.Fatalf("Next after Seek(%d): %v", off, err)
				}
				if rec != s[off+uint64(i)] {
					t.Fatalf("record %d after Seek(%d) mismatch", i, off)
				}
			}
		}
	}
	// Leave a readahead pending and Close immediately: must not leak or
	// race (the buffered channel lets the loader finish on its own).
	if err := r.Seek(0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close with pending readahead: %v", err)
	}
}

// TestCollectSizeHint asserts Counted sources collect with a single exact
// allocation (capacity == record count) and no re-growth.
func TestCollectSizeHint(t *testing.T) {
	dir, s := storeFixture(t, 37)

	r, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, want := r.Records(), uint64(len(s)); got != want {
		t.Fatalf("StoreReader.Records = %d, want %d", got, want)
	}
	got, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(s) || cap(got) != len(s) {
		t.Fatalf("Collect(StoreReader): len %d cap %d, want %d exactly (hint should preallocate)",
			len(got), cap(got), len(s))
	}

	w := Window{Off: 100, Len: 150}
	sr, err := OpenSlice(dir, w)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if got, want := sr.Records(), w.Len; got != want {
		t.Fatalf("SliceReader.Records = %d, want %d", got, want)
	}
	sliceGot, err := Collect(sr)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(sliceGot)) != w.Len || uint64(cap(sliceGot)) != w.Len {
		t.Fatalf("Collect(SliceReader): len %d cap %d, want %d exactly", len(sliceGot), cap(sliceGot), w.Len)
	}

	// StreamIter advertises its remaining length too.
	it := s.Iter()
	if _, err := it.Next(); err != nil {
		t.Fatal(err)
	}
	if got, want := it.Records(), uint64(len(s)-1); got != want {
		t.Fatalf("StreamIter.Records = %d, want %d", got, want)
	}
}

// uncounted hides an iterator's Counted size hint.
type uncounted struct{ BatchIterator }

// TestCollectNoHint asserts collection still works (growing) for
// iterators with no Counted hint.
func TestCollectNoHint(t *testing.T) {
	s := synthStream(41, 12345)
	got, err := Collect(uncounted{s.Iter()})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(s) {
		t.Fatalf("len = %d, want %d", len(got), len(s))
	}
	for i := range s {
		if got[i] != s[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}
