package trace

import (
	"errors"
	"io"
)

// Iterator is the pull-model interface over a retire-order record stream.
// Next returns io.EOF at a clean end of stream and io.ErrUnexpectedEOF
// (possibly wrapped) when the underlying source was truncated mid-record.
//
// Every record source in the repository implements it alongside the
// bulk BatchIterator: the store's StoreReader, SliceReader and
// ChunkReader, in-memory Streams (via Stream.Iter), and the live workload
// executor (workload.Executor.Iterator). Next is the per-record path for
// consumers that step one record at a time (tracegen -dump, seeks within
// a chunk); replay loops pull batches.
type Iterator interface {
	Next() (Record, error)
}

// BatchIterator is the bulk counterpart of Iterator: NextBatch decodes up
// to len(dst) records into the caller-owned dst and returns how many were
// filled. One NextBatch call amortizes the per-record interface dispatch
// of Next over thousands of records, which is what makes replay the
// decode loop's cost rather than the call overhead's — see DESIGN.md §10.
//
// The contract mirrors Next record for record:
//
//   - dst[:n] always holds valid records, even when err != nil.
//   - A clean end of stream is reported as (0, io.EOF), never alongside
//     records: a call that drains the final records returns them with a
//     nil error and the *next* call returns io.EOF.
//   - Truncation and corruption errors (io.ErrUnexpectedEOF, chunk
//     mismatches, ...) surface on the call that hits them, after any
//     records decoded earlier in the same call: consuming dst[:n] and
//     then failing on err reproduces the per-record sequence exactly.
//   - A zero-length dst returns (0, nil) without touching the stream.
type BatchIterator interface {
	Iterator
	NextBatch(dst []Record) (int, error)
}

// StreamIter iterates an in-memory Stream.
type StreamIter struct {
	s   Stream
	pos int
}

// Iter returns an Iterator over the stream.
func (s Stream) Iter() *StreamIter { return &StreamIter{s: s} }

// Next implements Iterator.
func (it *StreamIter) Next() (Record, error) {
	if it.pos >= len(it.s) {
		return Record{}, io.EOF
	}
	r := it.s[it.pos]
	it.pos++
	return r, nil
}

// NextBatch implements BatchIterator by copying from the backing stream.
func (it *StreamIter) NextBatch(dst []Record) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if it.pos >= len(it.s) {
		return 0, io.EOF
	}
	n := copy(dst, it.s[it.pos:])
	it.pos += n
	return n, nil
}

// Records reports how many records the iterator can still supply (the
// size hint Collect preallocates with).
func (it *StreamIter) Records() uint64 { return uint64(len(it.s) - it.pos) }

// Counted is implemented by iterators whose record budget is known up
// front (store and slice readers learn it from the index, stream
// iterators from the slice length). Collect uses it to preallocate.
type Counted interface {
	Records() uint64
}

// Collect drains an iterator into an in-memory Stream. It is the bridge
// for callers that genuinely need the whole stream (tests, small traces);
// streaming consumers should pull from the iterator directly. Sources
// that know their record count up front (Counted) have the stream
// preallocated; everything is decoded in batches directly into the
// stream's tail, so collection costs no per-record call and no re-copy.
// When capacity runs out, a small stack probe distinguishes "the count
// was exact, the stream is done" from "grow and keep going", so an exact
// count yields exactly one allocation of exactly the record count.
func Collect(it BatchIterator) (Stream, error) {
	var sizeHint uint64
	if c, ok := it.(Counted); ok {
		sizeHint = c.Records()
	}
	s := make(Stream, 0, sizeHint)
	for {
		if len(s) == cap(s) {
			var probe [64]Record
			n, err := it.NextBatch(probe[:])
			s = append(s, probe[:n]...)
			if err != nil {
				if errors.Is(err, io.EOF) {
					return s, nil
				}
				return s, err
			}
			continue
		}
		n, err := it.NextBatch(s[len(s):cap(s)])
		s = s[:len(s)+n]
		if err != nil {
			if errors.Is(err, io.EOF) {
				return s, nil
			}
			return s, err
		}
	}
}

// copyBatch is the decode granularity of CopyRecords: large enough to
// amortize the batch call, small enough to keep the buffer cache-warm.
const copyBatch = 4096

// CopyRecords pulls every record from it into w and returns the count
// copied. w is any record sink with StoreWriter's Write shape. Records
// are decoded in batches through a single preallocated buffer, so
// store-to-store copies (BuildStore, tracegen -source store/slice) run at
// batch-decode speed regardless of the sink.
func CopyRecords(w interface{ Write(Record) error }, it BatchIterator) (uint64, error) {
	buf := make([]Record, copyBatch)
	var n uint64
	for {
		k, berr := it.NextBatch(buf)
		for _, r := range buf[:k] {
			if err := w.Write(r); err != nil {
				return n, err
			}
			n++
		}
		if berr != nil {
			if errors.Is(berr, io.EOF) {
				return n, nil
			}
			return n, berr
		}
	}
}
