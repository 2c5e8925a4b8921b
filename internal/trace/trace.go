// Package trace defines the retire-order instruction trace records produced
// by the workload executor and consumed by every analysis in the repository,
// along with a compact binary on-disk format so traces can be generated once
// (cmd/tracegen) and replayed many times (cmd/pifsim, cmd/experiments).
//
// A Record corresponds to one retired instruction: its PC, its trap level,
// and flags describing how control arrived at it. The paper's central
// insight is that this stream — not the fetch-access or cache-miss stream —
// is the right input for an instruction prefetcher.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/isa"
)

// Flags annotate a retired instruction.
type Flags uint8

const (
	// FlagCallTarget marks the first instruction of a function invocation.
	FlagCallTarget Flags = 1 << iota
	// FlagReturnTarget marks the instruction after a returned call.
	FlagReturnTarget
	// FlagBranchTaken marks a control transfer that was taken.
	FlagBranchTaken
	// FlagCondBranch marks a conditional branch instruction.
	FlagCondBranch
	// FlagTrapEntry marks the first instruction of a trap handler.
	FlagTrapEntry
	// FlagTrapReturn marks the first instruction after a trap handler returns.
	FlagTrapReturn
)

// Has reports whether all bits of mask are set.
func (f Flags) Has(mask Flags) bool { return f&mask == mask }

// Record is one retired instruction.
type Record struct {
	PC    isa.Addr
	TL    isa.TrapLevel
	Flags Flags
}

// Block returns the instruction block containing the record's PC.
func (r Record) Block() isa.Block { return isa.BlockOf(r.PC) }

// BlockRun returns how many records after rs[0] continue it: the length
// of the same-block run rs[0] starts, minus one (0 for empty or
// one-record input). Record q continues its predecessor p when both sit
// in the same block at the same trap level, p ends no fetch group (it is
// neither a taken transfer nor a conditional branch), and q opens none
// (it is not a call, return, trap-entry or trap-return target). A
// continuation is invisible to the fetch engine — it resolves no branch
// and emits no L1-I access — and block-grain retire consumers drop it,
// which is what lets the simulator step a whole run at once.
func BlockRun(rs []Record) int {
	if len(rs) < 2 {
		return 0
	}
	const ends = FlagBranchTaken | FlagCondBranch
	const opens = FlagCallTarget | FlagReturnTarget | FlagTrapEntry | FlagTrapReturn
	p := rs[0]
	b := p.Block()
	for i, q := range rs[1:] {
		if p.Flags&ends != 0 || q.Flags&opens != 0 || q.TL != p.TL || q.Block() != b {
			return i
		}
		p = q
	}
	return len(rs) - 1
}

// Stream is an in-memory retire-order instruction trace.
type Stream []Record

// Blocks returns the sequence of block addresses visited by the stream with
// consecutive same-block records collapsed to a single entry — the
// block-grain retire stream the PIF compactor consumes.
func (s Stream) Blocks() []isa.Block {
	out := make([]isa.Block, 0, len(s)/4)
	var last isa.Block
	have := false
	for _, r := range s {
		b := r.Block()
		if have && b == last {
			continue
		}
		out = append(out, b)
		last, have = b, true
	}
	return out
}

// magic identifies the binary trace format; version guards layout changes.
// Version 1 is the single-file stream format (record count unknown until
// EOF); version 2 is the sharded store format (trace.idx plus chunk files,
// see store.go), whose index records per-chunk counts.
const (
	magic   uint32 = 0x50494654 // "PIFT"
	version uint32 = 1
)

// Header describes a stored trace. Records is zero for version-1 single
// file traces (the stream format carries no count); for version-2 sharded
// stores it is the exact record total from the chunk index.
type Header struct {
	Workload string
	Records  uint64
}

// encodeRecord delta-encodes r against lastPC into bw. The record costs
// one varint (PC delta) plus a trap-level byte and a flags byte.
func encodeRecord(bw *bufio.Writer, lastPC isa.Addr, r Record) error {
	delta := int64(r.PC) - int64(lastPC)
	var buf [binary.MaxVarintLen64 + 2]byte
	n := binary.PutVarint(buf[:], delta)
	buf[n] = byte(r.TL)
	buf[n+1] = byte(r.Flags)
	_, err := bw.Write(buf[:n+2])
	return err
}

// readVarint is binary.ReadVarint with truncation accounting: an EOF after
// at least one byte of the varint has been consumed is a torn record and is
// reported as io.ErrUnexpectedEOF, never as a clean end of stream.
func readVarint(br *bufio.Reader) (int64, error) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		b, err := br.ReadByte()
		if err != nil {
			if i > 0 && errors.Is(err, io.EOF) {
				return 0, io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if i == binary.MaxVarintLen64 {
			return 0, errVarintOverflow
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, errVarintOverflow
			}
			x |= uint64(b) << s
			break
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return int64(x>>1) ^ -int64(x&1), nil // zigzag decode
}

// decodeRecordBuf decodes one delta-encoded record from buf at offset
// off, resolving the PC against lastPC, and returns the record plus the
// offset one past it. It is the in-memory twin of decodeRecord with the
// same truncation accounting: io.EOF exactly on a record boundary
// (off == len(buf)), io.ErrUnexpectedEOF anywhere inside a record. The
// chunk readers decode whole chunk images through it, so the batch path's
// inner loop runs over a byte slice with no reader abstraction at all.
func decodeRecordBuf(buf []byte, off int, lastPC isa.Addr) (Record, int, error) {
	if off >= len(buf) {
		return Record{}, off, io.EOF
	}
	// Varint PC delta (zigzag), inlined from readVarint over the slice.
	var x uint64
	var s uint
	i := 0
	for {
		if off+i >= len(buf) {
			return Record{}, off, fmt.Errorf("trace: read delta: %w", io.ErrUnexpectedEOF)
		}
		b := buf[off+i]
		if i == binary.MaxVarintLen64 {
			return Record{}, off, fmt.Errorf("trace: read delta: %w", errVarintOverflow)
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return Record{}, off, fmt.Errorf("trace: read delta: %w", errVarintOverflow)
			}
			x |= uint64(b) << s
			i++
			break
		}
		x |= uint64(b&0x7f) << s
		s += 7
		i++
	}
	delta := int64(x>>1) ^ -int64(x&1) // zigzag decode
	if off+i >= len(buf) {
		return Record{}, off, fmt.Errorf("trace: read trap level: %w", io.ErrUnexpectedEOF)
	}
	tl := buf[off+i]
	if off+i+1 >= len(buf) {
		return Record{}, off, fmt.Errorf("trace: read flags: %w", io.ErrUnexpectedEOF)
	}
	fl := buf[off+i+1]
	pc := isa.Addr(int64(lastPC) + delta)
	return Record{PC: pc, TL: isa.TrapLevel(tl), Flags: Flags(fl)}, off + i + 2, nil
}

// errVarintOverflow matches readVarint's overflow diagnosis.
var errVarintOverflow = errors.New("trace: varint overflows 64 bits")

// decodeRecord reads one delta-encoded record, resolving the PC against
// lastPC. A clean io.EOF is returned only when the stream ends exactly on a
// record boundary; an EOF anywhere inside a record is io.ErrUnexpectedEOF.
func decodeRecord(br *bufio.Reader, lastPC isa.Addr) (Record, error) {
	delta, err := readVarint(br)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("trace: read delta: %w", err)
	}
	tl, err := br.ReadByte()
	if err != nil {
		return Record{}, fmt.Errorf("trace: read trap level: %w", noEOF(err))
	}
	fl, err := br.ReadByte()
	if err != nil {
		return Record{}, fmt.Errorf("trace: read flags: %w", noEOF(err))
	}
	pc := isa.Addr(int64(lastPC) + delta)
	return Record{PC: pc, TL: isa.TrapLevel(tl), Flags: Flags(fl)}, nil
}

// Writer streams records to an io.Writer in the binary trace format.
// Records are delta-encoded against the previous PC to keep files small:
// most retire-order steps are +4 bytes.
type Writer struct {
	w      *bufio.Writer
	lastPC isa.Addr
	n      uint64
	closed bool
	err    error // first write/flush failure, surfaced again by Close
}

// NewWriter writes a trace header and returns a Writer.
func NewWriter(w io.Writer, workload string) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := binary.Write(bw, binary.LittleEndian, magic); err != nil {
		return nil, fmt.Errorf("trace: write magic: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, version); err != nil {
		return nil, fmt.Errorf("trace: write version: %w", err)
	}
	name := []byte(workload)
	if len(name) > 255 {
		return nil, errors.New("trace: workload name too long")
	}
	if err := bw.WriteByte(byte(len(name))); err != nil {
		return nil, fmt.Errorf("trace: write name length: %w", err)
	}
	if _, err := bw.Write(name); err != nil {
		return nil, fmt.Errorf("trace: write name: %w", err)
	}
	return &Writer{w: bw}, nil
}

// Write appends one record. Once a write has failed, the writer is stuck:
// every subsequent Write (and Close) reports the first failure.
func (w *Writer) Write(r Record) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("trace: write after Close")
	}
	if err := encodeRecord(w.w, w.lastPC, r); err != nil {
		w.err = fmt.Errorf("trace: write record: %w", err)
		return w.err
	}
	w.lastPC = r.PC
	w.n++
	return nil
}

// WriteStream appends every record of s.
func (w *Writer) WriteStream(s Stream) error {
	for _, r := range s {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() uint64 { return w.n }

// Close flushes buffered output. The record count is not stored in the
// header (the format is stream-oriented); readers read to EOF. If any
// write has failed, Close reports that first failure — including on
// repeated calls — so a caller that ignored a Write error still cannot
// mistake a torn trace for a successful one.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err != nil {
		return w.err
	}
	if err := w.w.Flush(); err != nil {
		w.err = fmt.Errorf("trace: flush: %w", err)
	}
	return w.err
}

// noEOF converts io.EOF into io.ErrUnexpectedEOF: an EOF in the middle of a
// record means the trace was truncated, which callers must not confuse with
// a clean end of stream.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Reader reads records from a binary trace.
type Reader struct {
	r        *bufio.Reader
	lastPC   isa.Addr
	workload string
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var m, v uint32
	if err := binary.Read(br, binary.LittleEndian, &m); err != nil {
		return nil, fmt.Errorf("trace: read magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("trace: bad magic %#x", m)
	}
	if err := binary.Read(br, binary.LittleEndian, &v); err != nil {
		return nil, fmt.Errorf("trace: read version: %w", err)
	}
	if v != version {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	nameLen, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("trace: read name length: %w", err)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: read name: %w", err)
	}
	return &Reader{r: br, workload: string(name)}, nil
}

// Workload returns the workload name stored in the trace header.
func (r *Reader) Workload() string { return r.workload }

// Read returns the next record, or io.EOF at end of trace. A trace
// truncated anywhere inside a record — including mid-varint — is reported
// as io.ErrUnexpectedEOF, never as a clean end of stream.
func (r *Reader) Read() (Record, error) {
	rec, err := decodeRecord(r.r, r.lastPC)
	if err != nil {
		return Record{}, err
	}
	r.lastPC = rec.PC
	return rec, nil
}

// Next implements Iterator; it is Read under the iterator's name.
func (r *Reader) Next() (Record, error) { return r.Read() }

// NextBatch implements BatchIterator: up to len(dst) records are decoded
// per call, amortizing the per-record call overhead (see the contract on
// BatchIterator). Truncation surfaces exactly as it would from Read.
func (r *Reader) NextBatch(dst []Record) (int, error) {
	for i := range dst {
		rec, err := r.Read()
		if err != nil {
			if err == io.EOF {
				if i > 0 {
					return i, nil
				}
				return 0, io.EOF
			}
			return i, err
		}
		dst[i] = rec
	}
	return len(dst), nil
}

// ReadAll reads every remaining record into a Stream.
func (r *Reader) ReadAll() (Stream, error) { return Collect(r) }
