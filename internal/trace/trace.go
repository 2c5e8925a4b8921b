// Package trace defines the retire-order instruction trace records produced
// by the workload executor and consumed by every analysis in the repository,
// along with the sharded on-disk trace store (store.go) so traces can be
// generated once (cmd/tracegen) and replayed many times (cmd/pifsim,
// cmd/experiments).
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

// magic identifies a trace store's index file (trace.idx, see store.go);
// chunk files carry their own chunkMagic.
const magic uint32 = 0x50494654 // "PIFT"

// Header describes a stored trace: its workload name and exact record
// total, both read from the store index.
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

// decodeRecordBuf decodes one delta-encoded record from buf at offset
// off, resolving the PC against lastPC, and returns the record plus the
// offset one past it. Truncation is accounted exactly: io.EOF only on a
// record boundary (off == len(buf)), io.ErrUnexpectedEOF anywhere inside
// a record, including mid-varint. The chunk readers decode whole chunk
// images through it, so decoding runs over a byte slice with no reader
// abstraction at all.
func decodeRecordBuf(buf []byte, off int, lastPC isa.Addr) (Record, int, error) {
	if off >= len(buf) {
		return Record{}, off, io.EOF
	}
	// Varint PC delta (zigzag).
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

// errVarintOverflow reports a PC delta varint longer than 64 bits.
var errVarintOverflow = errors.New("trace: varint overflows 64 bits")

// noEOF converts io.EOF into io.ErrUnexpectedEOF: an EOF in the middle of a
// record means the trace was truncated, which callers must not confuse with
// a clean end of stream.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
