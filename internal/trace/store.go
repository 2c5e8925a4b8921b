package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/isa"
)

// Format version 2 (storeVersion): the sharded on-disk trace store. A
// store is a directory holding an index file (trace.idx) plus
// fixed-record-count chunk files.
// Each chunk header carries the chunk's base PC, so delta decoding restarts
// per chunk and any chunk can be decoded without its predecessors — the
// unit of random access to a trace window, and the natural work unit for
// distributing a trace across machines. The index records the per-chunk
// record counts and base PCs, so the total record count is known up front
// (Header.Records) and truncated or overgrown chunks are detected instead
// of being read as a clean short stream.
const (
	chunkMagic   uint32 = 0x50494643 // "PIFC"
	storeVersion uint32 = 2

	// IndexName is the index file inside a store directory.
	IndexName = "trace.idx"

	// DefaultChunkRecords is the records-per-chunk used when a caller
	// passes 0: 1M records ≈ 3 MB per chunk at typical delta density.
	DefaultChunkRecords = 1 << 20
)

// ChunkFileName returns the file name of chunk i within a store.
func ChunkFileName(i int) string { return fmt.Sprintf("chunk-%06d.pifc", i) }

// ChunkInfo is one chunk's entry in the store index.
type ChunkInfo struct {
	// Records is the exact record count of the chunk. Every chunk holds
	// the store's target count except the final one, which may be short.
	Records uint64
	// BasePC is the PC of the chunk's first record; delta decoding within
	// the chunk restarts from it.
	BasePC isa.Addr
}

// Index is a store's metadata, persisted as trace.idx.
type Index struct {
	// Workload is the traced workload's name.
	Workload string
	// ChunkTarget is the records-per-chunk the store was written with.
	ChunkTarget uint64
	// Phases records the executor phase boundaries the trace was
	// collected with (e.g. {warmup, measure}), when the writer declared
	// them. The executor starts a fresh transaction at each phase, so a
	// replay is only byte-identical to a live run that uses the same
	// split — recording it makes a mismatched replay detectable instead
	// of silently divergent. Empty when the writer declared none.
	Phases []uint64
	// Chunks describes every chunk in order.
	Chunks []ChunkInfo
}

// Records returns the store's total record count.
func (ix Index) Records() uint64 {
	var n uint64
	for _, c := range ix.Chunks {
		n += c.Records
	}
	return n
}

// Header returns the trace header implied by the index, with the record
// count filled in: a store knows its length without being read.
func (ix Index) Header() Header {
	return Header{Workload: ix.Workload, Records: ix.Records()}
}

// PhaseCompatible reports whether replaying warmup+measure records from
// this store reproduces a live run with that split byte-for-byte. A live
// run places an executor phase boundary (fresh transaction) exactly at
// warmup, so the recorded boundaries must include warmup (unless it is
// zero) and no recorded boundary may fall strictly inside the measured
// interval. Stores that recorded no phases cannot be validated and are
// accepted.
func (ix Index) PhaseCompatible(warmup, measure uint64) bool {
	if len(ix.Phases) == 0 {
		return true
	}
	okWarmup := warmup == 0
	var cum uint64
	for _, p := range ix.Phases {
		cum += p
		if cum == warmup {
			okWarmup = true
		}
		if cum > warmup && cum < warmup+measure {
			return false
		}
	}
	return okWarmup
}

// StoreWriter writes a sharded trace store. Records accumulate into chunk
// files of a fixed record count; Close seals the final chunk and writes
// the index. A StoreWriter is stuck after its first failure and Close
// re-reports it.
type StoreWriter struct {
	dir      string
	perChunk uint64
	ix       Index

	f       *os.File
	bw      *bufio.Writer
	lastPC  isa.Addr
	inChunk uint64
	n       uint64
	closed  bool
	err     error
}

// CreateStore creates (or truncates into) directory dir and returns a
// StoreWriter. chunkRecords is the per-chunk record count (0 selects
// DefaultChunkRecords).
func CreateStore(dir, workload string, chunkRecords uint64) (*StoreWriter, error) {
	if len(workload) > 255 {
		return nil, errors.New("trace: workload name too long")
	}
	if chunkRecords == 0 {
		chunkRecords = DefaultChunkRecords
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: create store: %w", err)
	}
	// Truncate any previous store: drop the index first (so a crash
	// mid-cleanup leaves an invalid store, never a wrong one), then the
	// old chunks — a shorter rewrite must not leave stale higher-ordinal
	// chunk files beside the new index.
	if err := os.Remove(filepath.Join(dir, IndexName)); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("trace: create store: %w", err)
	}
	stale, err := filepath.Glob(filepath.Join(dir, "chunk-*.pifc"))
	if err != nil {
		return nil, fmt.Errorf("trace: create store: %w", err)
	}
	for _, f := range stale {
		if err := os.Remove(f); err != nil {
			return nil, fmt.Errorf("trace: create store: %w", err)
		}
	}
	return &StoreWriter{
		dir:      dir,
		perChunk: chunkRecords,
		ix:       Index{Workload: workload, ChunkTarget: chunkRecords},
	}, nil
}

// Write appends one record, sealing and starting chunk files as needed.
func (w *StoreWriter) Write(r Record) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("trace: store write after Close")
	}
	if w.f == nil {
		if err := w.openChunk(r.PC); err != nil {
			w.err = err
			return w.err
		}
	}
	if err := encodeRecord(w.bw, w.lastPC, r); err != nil {
		w.err = fmt.Errorf("trace: write record: %w", err)
		return w.err
	}
	w.lastPC = r.PC
	w.inChunk++
	w.n++
	if w.inChunk == w.perChunk {
		if err := w.sealChunk(); err != nil {
			w.err = err
			return w.err
		}
	}
	return nil
}

// openChunk starts the next chunk file with basePC as its delta origin.
func (w *StoreWriter) openChunk(basePC isa.Addr) error {
	ordinal := len(w.ix.Chunks)
	f, err := os.Create(filepath.Join(w.dir, ChunkFileName(ordinal)))
	if err != nil {
		return fmt.Errorf("trace: create chunk: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	for _, v := range []uint32{chunkMagic, storeVersion, uint32(ordinal)} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			f.Close()
			return fmt.Errorf("trace: write chunk header: %w", err)
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(basePC)); err != nil {
		f.Close()
		return fmt.Errorf("trace: write chunk base PC: %w", err)
	}
	w.f, w.bw = f, bw
	w.lastPC = basePC
	w.inChunk = 0
	w.ix.Chunks = append(w.ix.Chunks, ChunkInfo{BasePC: basePC})
	return nil
}

// sealChunk flushes and closes the open chunk, recording its final count.
func (w *StoreWriter) sealChunk() error {
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return fmt.Errorf("trace: flush chunk: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("trace: close chunk: %w", err)
	}
	w.ix.Chunks[len(w.ix.Chunks)-1].Records = w.inChunk
	w.f, w.bw = nil, nil
	w.inChunk = 0
	return nil
}

// Count returns the number of records written so far.
func (w *StoreWriter) Count() uint64 { return w.n }

// SetPhases declares the executor phase boundaries the trace is being
// recorded with (see Index.Phases); call before Close.
func (w *StoreWriter) SetPhases(phases ...uint64) { w.ix.Phases = phases }

// fail poisons the writer with an external cause (e.g. the record source
// died mid-copy): Close will release resources but never write an index,
// so the partial store can't be mistaken for a complete one.
func (w *StoreWriter) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Close seals the final chunk and writes the index. The index is written
// to a temporary file and renamed into place, so a directory containing
// trace.idx always describes a completely written store; after any
// failure Close only releases the open chunk handle and re-reports the
// error, leaving the partial store index-less (and thus invalid).
func (w *StoreWriter) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err != nil {
		if w.f != nil {
			w.f.Close()
			w.f, w.bw = nil, nil
		}
		return w.err
	}
	if w.f != nil {
		if err := w.sealChunk(); err != nil {
			w.err = err
			return w.err
		}
	}
	if err := writeIndex(w.dir, w.ix); err != nil {
		w.err = err
	}
	return w.err
}

// writeIndex persists ix as dir/trace.idx via a temp-file rename.
func writeIndex(dir string, ix Index) error {
	tmp := filepath.Join(dir, IndexName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("trace: write index: %w", err)
	}
	bw := bufio.NewWriter(f)
	werr := func() error {
		for _, v := range []uint32{magic, storeVersion} {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		if err := bw.WriteByte(byte(len(ix.Workload))); err != nil {
			return err
		}
		if _, err := bw.WriteString(ix.Workload); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, ix.ChunkTarget); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(ix.Chunks))); err != nil {
			return err
		}
		for _, c := range ix.Chunks {
			if err := binary.Write(bw, binary.LittleEndian, c.Records); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, uint64(c.BasePC)); err != nil {
				return err
			}
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(ix.Phases))); err != nil {
			return err
		}
		for _, p := range ix.Phases {
			if err := binary.Write(bw, binary.LittleEndian, p); err != nil {
				return err
			}
		}
		// Trailing total record count: redundant with the per-chunk
		// counts, kept as a cheap integrity cross-check on read.
		return binary.Write(bw, binary.LittleEndian, ix.Records())
	}()
	if werr == nil {
		werr = bw.Flush()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("trace: write index: %w", werr)
	}
	if err := os.Rename(tmp, filepath.Join(dir, IndexName)); err != nil {
		return fmt.Errorf("trace: write index: %w", err)
	}
	return nil
}

// ReadIndex reads and validates a store directory's index.
func ReadIndex(dir string) (Index, error) {
	f, err := os.Open(filepath.Join(dir, IndexName))
	if err != nil {
		return Index{}, fmt.Errorf("trace: open index: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var m, v uint32
	if err := binary.Read(br, binary.LittleEndian, &m); err != nil {
		return Index{}, fmt.Errorf("trace: read index magic: %w", noEOF(err))
	}
	if m != magic {
		return Index{}, fmt.Errorf("trace: bad index magic %#x", m)
	}
	if err := binary.Read(br, binary.LittleEndian, &v); err != nil {
		return Index{}, fmt.Errorf("trace: read index version: %w", noEOF(err))
	}
	if v != storeVersion {
		return Index{}, fmt.Errorf("trace: unsupported store version %d", v)
	}
	nameLen, err := br.ReadByte()
	if err != nil {
		return Index{}, fmt.Errorf("trace: read index name length: %w", noEOF(err))
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return Index{}, fmt.Errorf("trace: read index name: %w", noEOF(err))
	}
	ix := Index{Workload: string(name)}
	if err := binary.Read(br, binary.LittleEndian, &ix.ChunkTarget); err != nil {
		return Index{}, fmt.Errorf("trace: read chunk target: %w", noEOF(err))
	}
	var numChunks uint32
	if err := binary.Read(br, binary.LittleEndian, &numChunks); err != nil {
		return Index{}, fmt.Errorf("trace: read chunk count: %w", noEOF(err))
	}
	// Sanity-cap the count against the file's actual size (16 bytes per
	// chunk entry) before allocating: a corrupt count field must be a
	// clean error, not a multi-gigabyte allocation.
	if fi, err := f.Stat(); err != nil {
		return Index{}, fmt.Errorf("trace: stat index: %w", err)
	} else if uint64(numChunks) > uint64(fi.Size())/16 {
		return Index{}, fmt.Errorf("trace: index claims %d chunks but is only %d bytes", numChunks, fi.Size())
	}
	ix.Chunks = make([]ChunkInfo, numChunks)
	for i := range ix.Chunks {
		if err := binary.Read(br, binary.LittleEndian, &ix.Chunks[i].Records); err != nil {
			return Index{}, fmt.Errorf("trace: read chunk %d records: %w", i, noEOF(err))
		}
		var base uint64
		if err := binary.Read(br, binary.LittleEndian, &base); err != nil {
			return Index{}, fmt.Errorf("trace: read chunk %d base PC: %w", i, noEOF(err))
		}
		ix.Chunks[i].BasePC = isa.Addr(base)
	}
	var numPhases uint32
	if err := binary.Read(br, binary.LittleEndian, &numPhases); err != nil {
		return Index{}, fmt.Errorf("trace: read phase count: %w", noEOF(err))
	}
	if fi, err := f.Stat(); err != nil {
		return Index{}, fmt.Errorf("trace: stat index: %w", err)
	} else if uint64(numPhases) > uint64(fi.Size())/8 {
		return Index{}, fmt.Errorf("trace: index claims %d phases but is only %d bytes", numPhases, fi.Size())
	}
	if numPhases > 0 {
		ix.Phases = make([]uint64, numPhases)
		for i := range ix.Phases {
			if err := binary.Read(br, binary.LittleEndian, &ix.Phases[i]); err != nil {
				return Index{}, fmt.Errorf("trace: read phase %d: %w", i, noEOF(err))
			}
		}
	}
	var total uint64
	if err := binary.Read(br, binary.LittleEndian, &total); err != nil {
		return Index{}, fmt.Errorf("trace: read record total: %w", noEOF(err))
	}
	if total != ix.Records() {
		return Index{}, fmt.Errorf("trace: index total %d does not match chunk sum %d", total, ix.Records())
	}
	return ix, nil
}

// chunkHeaderSize is the byte length of a chunk file's header: magic,
// version, ordinal (uint32 each) plus the base PC (uint64).
const chunkHeaderSize = 3*4 + 8

// ChunkReader decodes one chunk image. It implements Iterator and
// BatchIterator, returning io.EOF after exactly the record count the index
// promises; a chunk that ends early or holds extra records is reported as
// corrupt. The image comes from a ChunkSource — either a heap copy of the
// chunk file or an mmap of it — so decoding is a pure slice walk with no
// reader abstraction or syscalls on the record path. The reader owns the
// image's release callback and invokes it exactly once, from Close; on
// the mmap path that is the only point a mapping is torn down, so no
// decode can ever touch an unmapped page while the reader is open.
type ChunkReader struct {
	buf       []byte // chunk payload (header stripped)
	off       int
	lastPC    isa.Addr
	remaining uint64
	ordinal   int
	release   func() // returns the image to its source; nil after Close
}

// OpenChunkFrom opens chunk i of the store described by ix through src,
// validating the chunk header against the index.
func OpenChunkFrom(src ChunkSource, ix Index, i int) (*ChunkReader, error) {
	if i < 0 || i >= len(ix.Chunks) {
		return nil, fmt.Errorf("trace: chunk %d out of range [0,%d)", i, len(ix.Chunks))
	}
	data, release, err := src.ChunkData(i)
	if err != nil {
		return nil, err
	}
	c, err := newChunkReader(data, ix, i)
	if err != nil {
		if release != nil {
			release()
		}
		return nil, err
	}
	c.release = release
	return c, nil
}

// newChunkReader validates data as the image of chunk i and returns its
// reader.
func newChunkReader(data []byte, ix Index, i int) (*ChunkReader, error) {
	if len(data) < chunkHeaderSize {
		return nil, fmt.Errorf("trace: read chunk %d header: %w", i, io.ErrUnexpectedEOF)
	}
	m := binary.LittleEndian.Uint32(data[0:])
	v := binary.LittleEndian.Uint32(data[4:])
	ord := binary.LittleEndian.Uint32(data[8:])
	base := binary.LittleEndian.Uint64(data[12:])
	if m != chunkMagic {
		return nil, fmt.Errorf("trace: chunk %d: bad magic %#x", i, m)
	}
	if v != storeVersion {
		return nil, fmt.Errorf("trace: chunk %d: unsupported version %d", i, v)
	}
	if int(ord) != i {
		return nil, fmt.Errorf("trace: chunk %d: header claims ordinal %d", i, ord)
	}
	if isa.Addr(base) != ix.Chunks[i].BasePC {
		return nil, fmt.Errorf("trace: chunk %d: base PC %#x does not match index %#x",
			i, base, uint64(ix.Chunks[i].BasePC))
	}
	return &ChunkReader{
		buf:       data[chunkHeaderSize:],
		lastPC:    isa.Addr(base),
		remaining: ix.Chunks[i].Records,
		ordinal:   i,
	}, nil
}

// Next implements Iterator over the chunk's records.
func (c *ChunkReader) Next() (Record, error) {
	if c.remaining == 0 {
		// The index says the chunk is done; any trailing bytes mean the
		// chunk and index disagree.
		if c.off < len(c.buf) {
			return Record{}, fmt.Errorf("trace: chunk %d holds more records than the index", c.ordinal)
		}
		return Record{}, io.EOF
	}
	rec, off, err := decodeRecordBuf(c.buf, c.off, c.lastPC)
	if err != nil {
		if err == io.EOF {
			// Clean EOF with records still owed: the chunk was truncated
			// on a record boundary, which only the index can detect.
			return Record{}, fmt.Errorf("trace: chunk %d truncated (%d records missing): %w",
				c.ordinal, c.remaining, io.ErrUnexpectedEOF)
		}
		return Record{}, fmt.Errorf("trace: chunk %d: %w", c.ordinal, err)
	}
	c.off = off
	c.lastPC = rec.PC
	c.remaining--
	return rec, nil
}

// NextBatch implements BatchIterator over the chunk's records: the inner
// loop walks the in-memory chunk image with local state, so cost per
// record is the varint decode and nothing else.
func (c *ChunkReader) NextBatch(dst []Record) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if c.remaining == 0 {
		if c.off < len(c.buf) {
			return 0, fmt.Errorf("trace: chunk %d holds more records than the index", c.ordinal)
		}
		return 0, io.EOF
	}
	n := len(dst)
	if uint64(n) > c.remaining {
		n = int(c.remaining)
	}
	dst = dst[:n]
	// The hot loop runs entirely on locals (one write-back per batch, not
	// per record) and decodes with no calls at all: the one-byte-delta
	// case — the overwhelmingly common one, retire-order steps being
	// mostly +1 instruction — is a single branch, multi-byte varints spin
	// inline, and only malformed input takes the (cold) call that
	// reproduces the per-record error surface.
	buf, off, lastPC := c.buf, c.off, c.lastPC
	for i := range dst {
		if off+2 < len(buf) && buf[off] < 0x80 {
			v := uint64(buf[off])
			lastPC = isa.Addr(int64(lastPC) + (int64(v>>1) ^ -int64(v&1)))
			dst[i] = Record{PC: lastPC, TL: isa.TrapLevel(buf[off+1]), Flags: Flags(buf[off+2])}
			off += 3
			continue
		}
		var x uint64
		var shift uint
		j := 0
		ok := true
		for {
			if off+j >= len(buf) || j == binary.MaxVarintLen64 {
				ok = false
				break
			}
			bj := buf[off+j]
			if bj < 0x80 {
				if j == binary.MaxVarintLen64-1 && bj > 1 {
					ok = false
					break
				}
				x |= uint64(bj) << shift
				j++
				break
			}
			x |= uint64(bj&0x7f) << shift
			shift += 7
			j++
		}
		if !ok || off+j+1 >= len(buf) {
			// Cold path: re-decode at the failing offset for the exact
			// per-record diagnosis (truncation vs overflow).
			_, _, err := decodeRecordBuf(buf, off, lastPC)
			c.off, c.lastPC = off, lastPC
			c.remaining -= uint64(i)
			if err == io.EOF {
				err = fmt.Errorf("trace: chunk %d truncated (%d records missing): %w",
					c.ordinal, c.remaining, io.ErrUnexpectedEOF)
			} else {
				err = fmt.Errorf("trace: chunk %d: %w", c.ordinal, err)
			}
			return i, err
		}
		lastPC = isa.Addr(int64(lastPC) + (int64(x>>1) ^ -int64(x&1)))
		dst[i] = Record{PC: lastPC, TL: isa.TrapLevel(buf[off+j]), Flags: Flags(buf[off+j+1])}
		off += j + 2
	}
	c.off, c.lastPC = off, lastPC
	c.remaining -= uint64(n)
	return n, nil
}

// Records reports how many records the chunk can still supply.
func (c *ChunkReader) Records() uint64 { return c.remaining }

// Close releases the chunk image back to its source — on the mmap path
// this unmaps the pages. The buffer is nilled first, so a use-after-
// Close decodes an empty chunk (clean error surface) rather than
// touching an unmapped page; calling Close again is a no-op. Close
// never fails.
func (c *ChunkReader) Close() error {
	c.buf = nil
	if c.release != nil {
		rel := c.release
		c.release = nil
		rel()
	}
	return nil
}

// raChunk is one completed readahead: the chunk reader (or the open
// failure) for a specific ordinal.
type raChunk struct {
	ordinal int
	c       *ChunkReader
	err     error
}

// StoreReader streams a whole store in record order, holding at most two
// chunk images at a time (the one being decoded plus one readahead) —
// peak memory is bounded by the chunk size, not the trace length. It
// implements Iterator and BatchIterator.
//
// On the ReadFile path, while chunk N is being decoded a readahead
// goroutine loads chunk N+1 from disk, so file I/O overlaps decode
// instead of serializing with it. The readahead channel is buffered
// (capacity 1) and the goroutine's only action is a send into it, so an
// abandoned readahead — Seek away, Close, or an error path — can never
// leak the goroutine; the chunk image is simply dropped for the
// collector. On the mmap path the readahead goroutine never starts:
// the kernel prefetches mapped pages (helped by madvise(SEQUENTIAL)),
// and an abandoned readahead would otherwise strand a mapping no one
// ever unmaps — readaheads are owned by nobody until consumed, which
// only GC-managed images tolerate.
type StoreReader struct {
	dir      string
	ix       Index
	src      ChunkSource
	next     int // next chunk ordinal to open
	cur      *ChunkReader
	consumed uint64       // records handed out (or skipped past) so far
	ra       chan raChunk // pending readahead, nil when none in flight
}

// OpenStore opens the store directory at dir, positioned at record 0.
// Chunks are decoded from mapped pages when the platform and filesystem
// support it, falling back to per-chunk heap reads otherwise
// (ChunkSourceAuto); use OpenStoreMode to pin a path.
func OpenStore(dir string) (*StoreReader, error) {
	return OpenStoreMode(dir, ChunkSourceAuto)
}

// OpenStoreMode opens the store directory at dir with an explicit chunk
// source selection. ChunkSourceMmap fails where mapping is unavailable;
// ChunkSourceAuto (what OpenStore uses) falls back to ReadFile.
func OpenStoreMode(dir string, mode ChunkSourceMode) (*StoreReader, error) {
	ix, err := ReadIndex(dir)
	if err != nil {
		return nil, err
	}
	src, err := newChunkSource(dir, ix, mode)
	if err != nil {
		return nil, err
	}
	return &StoreReader{dir: dir, ix: ix, src: src}, nil
}

// ChunkSourceKind reports which chunk source the store opened with:
// "mmap" or "readfile". Benchmark artifacts record it so numbers are
// comparable across machines.
func (r *StoreReader) ChunkSourceKind() string { return r.src.Kind() }

// Index returns the store's index.
func (r *StoreReader) Index() Index { return r.ix }

// Header returns the store's trace header with the record count filled in.
func (r *StoreReader) Header() Header { return r.ix.Header() }

// Workload returns the workload name stored in the index.
func (r *StoreReader) Workload() string { return r.ix.Workload }

// startReadahead kicks off a background load of the next chunk ordinal if
// one exists and none is already in flight. Readahead runs only on the
// ReadFile path: mapped chunks are prefetched by the kernel, and a
// readahead mapping abandoned by Seek/Close would never be unmapped.
func (r *StoreReader) startReadahead() {
	if r.ra != nil || r.next >= len(r.ix.Chunks) || r.src.Kind() != "readfile" {
		return
	}
	ch := make(chan raChunk, 1)
	src, ix, ord := r.src, r.ix, r.next
	go func() {
		c, err := OpenChunkFrom(src, ix, ord)
		ch <- raChunk{ordinal: ord, c: c, err: err}
	}()
	r.ra = ch
}

// openNextChunk makes chunk r.next current, consuming a matching readahead
// when one is pending (falling back to a direct open when the readahead is
// stale or failed — a failed readahead is retried here so transient errors
// are reported from the consuming call, not a background goroutine), and
// starts the readahead for the chunk after it.
func (r *StoreReader) openNextChunk() error {
	ord := r.next
	var c *ChunkReader
	if r.ra != nil {
		ra := <-r.ra
		r.ra = nil
		if ra.ordinal == ord && ra.err == nil {
			c = ra.c
		} else if ra.c != nil {
			// A stale readahead's image goes back to its source
			// immediately instead of waiting on the collector.
			ra.c.Close()
		}
	}
	if c == nil {
		var err error
		c, err = OpenChunkFrom(r.src, r.ix, ord)
		if err != nil {
			return err
		}
	}
	r.cur, r.next = c, ord+1
	r.startReadahead()
	return nil
}

// Next implements Iterator across chunk boundaries.
func (r *StoreReader) Next() (Record, error) {
	for {
		if r.cur == nil {
			if r.next >= len(r.ix.Chunks) {
				return Record{}, io.EOF
			}
			if err := r.openNextChunk(); err != nil {
				return Record{}, err
			}
		}
		rec, err := r.cur.Next()
		if err == nil {
			r.consumed++
			return rec, nil
		}
		if !errors.Is(err, io.EOF) {
			return Record{}, err
		}
		r.cur.Close()
		r.cur = nil
	}
}

// NextBatch implements BatchIterator across chunk boundaries: each chunk
// contributes a slice-decoded run, and chunk turnover usually finds the
// next image already in memory thanks to the readahead.
func (r *StoreReader) NextBatch(dst []Record) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	n := 0
	for n < len(dst) {
		if r.cur == nil {
			if r.next >= len(r.ix.Chunks) {
				if n > 0 {
					return n, nil
				}
				return 0, io.EOF
			}
			if err := r.openNextChunk(); err != nil {
				return n, err
			}
		}
		k, err := r.cur.NextBatch(dst[n:])
		n += k
		r.consumed += uint64(k)
		if err != nil {
			if errors.Is(err, io.EOF) {
				r.cur.Close()
				r.cur = nil
				continue
			}
			return n, err
		}
		// A short, error-free batch means the chunk drained: loop and
		// re-poll it, which yields io.EOF (advance to the next chunk) or
		// an index-mismatch error — the same sequence Next produces.
	}
	return n, nil
}

// Records reports how many records the reader can still supply (the index
// total minus everything consumed or sought past) — the Counted size hint
// Collect preallocates with.
func (r *StoreReader) Records() uint64 { return r.ix.Records() - r.consumed }

// Seek positions the reader at absolute record n (0-based): the index
// locates the owning chunk and only that chunk's prefix is decoded, so a
// window anywhere in the trace is reachable without replaying from the
// start. Seeking to the record total positions the reader at EOF.
func (r *StoreReader) Seek(n uint64) error {
	if r.cur != nil {
		r.cur.Close()
		r.cur = nil
	}
	// Abandon any in-flight readahead: it targeted the old position's
	// successor. The buffered channel lets its goroutine finish and exit
	// regardless; the loaded image is garbage once unreferenced.
	r.ra = nil
	var cum uint64
	for i, c := range r.ix.Chunks {
		if n < cum+c.Records {
			cr, err := OpenChunkFrom(r.src, r.ix, i)
			if err != nil {
				return err
			}
			for skip := n - cum; skip > 0; skip-- {
				if _, err := cr.Next(); err != nil {
					cr.Close()
					return err
				}
			}
			r.cur, r.next = cr, i+1
			r.consumed = n
			r.startReadahead()
			return nil
		}
		cum += c.Records
	}
	if n == cum {
		r.next = len(r.ix.Chunks)
		r.consumed = n
		return nil
	}
	return fmt.Errorf("trace: seek to record %d past end of store (%d records)", n, cum)
}

// Close releases any open chunk (on the mmap path, unmapping it) and
// abandons any in-flight readahead. The reader is pinned at end-of-
// stream: later calls see io.EOF rather than reopening chunks, so a
// use-after-Close can never race a released mapping.
func (r *StoreReader) Close() error {
	r.ra = nil
	r.consumed = r.ix.Records()
	r.next = len(r.ix.Chunks)
	if r.cur == nil {
		return nil
	}
	err := r.cur.Close()
	r.cur = nil
	return err
}

// BuildStore drains an iterator into a new store at dir and returns the
// record count written. It is the one-call path from any record source —
// a live executor, another store or a window of one — to sharded storage.
// phases, when given, are recorded in the index as the executor phase
// boundaries the source was generated with (see Index.Phases).
func BuildStore(dir, workload string, chunkRecords uint64, it BatchIterator, phases ...uint64) (uint64, error) {
	w, err := CreateStore(dir, workload, chunkRecords)
	if err != nil {
		return 0, err
	}
	w.SetPhases(phases...)
	n, err := CopyRecords(w, it)
	if err != nil {
		// Poison the writer before closing: a source that died mid-copy
		// must not leave behind a valid-looking short store.
		w.fail(err)
		w.Close()
		return n, err
	}
	return n, w.Close()
}
