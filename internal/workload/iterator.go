package workload

import (
	"io"
	"sync"

	"repro/internal/trace"
)

// iterBatch is the record batch size the executor iterator hands across
// its channel: large enough to amortize synchronization, small enough
// that a live iterator's footprint stays a few hundred kilobytes.
const iterBatch = 8192

// Iterator adapts the push-model Executor to the pull-model
// trace.Iterator: the executor runs in its own goroutine, writing record
// batches that it hands across a bounded channel, so consumers pull one
// record at a time with bounded memory and the emitted stream is
// byte-identical to the equivalent sequence of Run calls. A drained batch
// goes back to the producer over a free channel, so an iterator allocates
// at most four batches however long its stream is.
//
// Callers that stop early must Close the iterator to release the
// producer goroutine; Close after exhaustion is a cheap no-op.
type Iterator struct {
	batches chan []trace.Record
	free    chan []trace.Record
	stop    chan struct{}
	once    sync.Once
	cur     []trace.Record
	pos     int
}

// Iterator starts the executor producing phases' instruction counts —
// one run per phase, in order — and returns the pull side. Phase
// boundaries matter: the executor begins a fresh transaction at each Run
// call, so Iterator(a, b) reproduces Run(a)+Run(b) exactly (the pattern
// the simulator uses for warmup then measurement), which differs near the
// boundary from a single Run(a+b).
func (e *Executor) Iterator(phases ...uint64) *Iterator {
	// At most four batches circulate: the two queued, the consumer's
	// and the producer's. free holds all of them, so none is dropped.
	it := &Iterator{
		batches: make(chan []trace.Record, 2),
		free:    make(chan []trace.Record, 4),
		stop:    make(chan struct{}),
	}
	go func() {
		defer close(it.batches)
		aborted := false
		flush := func(b []trace.Record) []trace.Record {
			select {
			case it.batches <- b:
			case <-it.stop:
				e.Abort()
				aborted = true
				return b[:0]
			}
			select {
			case b = <-it.free:
				return b[:0]
			default:
				return make([]trace.Record, 0, iterBatch)
			}
		}
		buf := make([]trace.Record, 0, iterBatch)
		for _, n := range phases {
			if aborted {
				return
			}
			buf = e.RunBatches(n, buf, flush)
		}
		if aborted || len(buf) == 0 {
			return
		}
		select {
		case it.batches <- buf:
		case <-it.stop:
		}
	}()
	return it
}

// NewIterator builds an executor over prog and returns its record
// iterator for the given phases (see Executor.Iterator).
func NewIterator(prog *Program, phases ...uint64) *Iterator {
	return NewExecutor(prog).Iterator(phases...)
}

// refill hands the drained current batch back to the producer and
// receives the next one; it reports false at the end of the final phase.
func (it *Iterator) refill() bool {
	if it.cur != nil {
		select {
		case it.free <- it.cur:
		default:
		}
		it.cur = nil
	}
	b, ok := <-it.batches
	it.cur, it.pos = b, 0
	return ok
}

// Next implements trace.Iterator; io.EOF marks the end of the final
// phase.
func (it *Iterator) Next() (trace.Record, error) {
	if it.pos >= len(it.cur) && !it.refill() {
		return trace.Record{}, io.EOF
	}
	r := it.cur[it.pos]
	it.pos++
	return r, nil
}

// NextBatch implements trace.BatchIterator by copying from the producer's
// current batch, so one channel receive feeds up to iterBatch records and
// the per-record synchronization of Next disappears from replay loops.
func (it *Iterator) NextBatch(dst []trace.Record) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if it.pos >= len(it.cur) && !it.refill() {
		return 0, io.EOF
	}
	n := copy(dst, it.cur[it.pos:])
	it.pos += n
	return n, nil
}

// Close aborts the producing executor and releases its goroutine. The
// aborted executor's stream state is unspecified, so a closed iterator
// must not be read further.
func (it *Iterator) Close() error {
	it.once.Do(func() { close(it.stop) })
	for range it.batches { // drain until the producer exits
	}
	return nil
}
