package sim

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/frontend"
	"repro/internal/prefetch"
	"repro/internal/trace"
)

// SameFront reports whether two jobs may run as one row (RunRow): they
// share the workload profile (whose seed drives the program, the front
// end and the polluter), the program image, the phases, the predictor
// and the wrong-path depth, and both execute live or both replay
// sources with equal specs (SpecOf). A source with no spec never shares
// a row. Engine, L1-I, PerfectL1, polluter and timing may differ.
func SameFront(a, b Job) bool {
	if !sameFront(a, b) {
		return false
	}
	sa, okA := SpecOf(a.From)
	sb, okB := SpecOf(b.From)
	return a.From == nil || okA && okB && sa == sb
}

// sameFront is SameFront without the source's identity.
func sameFront(a, b Job) bool {
	ca, cb := a.Config, b.Config
	return a.Workload == b.Workload && a.Program == b.Program &&
		ca.WarmupInstrs == cb.WarmupInstrs && ca.MeasureOffsetInstrs == cb.MeasureOffsetInstrs &&
		ca.MeasureInstrs == cb.MeasureInstrs && ca.System.Predictor == cb.System.Predictor &&
		ca.System.MaxWrongPathBlocks == cb.System.MaxWrongPathBlocks && (a.From == nil) == (b.From == nil)
}

// RunRow runs jobs that share a front half over one record stream (one
// live executor, or the first job's source opened once) and one front
// end, with one back half per job; each result equals the job's own
// RunJob result. A job whose engine spec does not resolve fails alone; a
// source failure or cancellation fails every job. Callers group jobs
// with SameFront; RunRow checks all of it but the source's identity, so
// a row over a source with no spec is the caller's promise of one stream.
func RunRow(ctx context.Context, jobs []Job) (results []Result, errs []error) {
	results, errs = make([]Result, len(jobs)), make([]error, len(jobs))
	var at []int
	var row []Job
	var pfs []prefetch.Prefetcher
	for i, j := range jobs {
		p, err := resolveEngine(j)
		if errs[i] = err; err == nil {
			at, row, pfs = append(at, i), append(row, j), append(pfs, p)
		}
	}
	if len(row) == 0 {
		return results, errs
	}
	rs, err := runRow(ctx, row, pfs)
	for k, i := range at {
		if errs[i] = err; err == nil {
			results[i] = rs[k]
		}
	}
	return results, errs
}

// runRow runs a row of jobs, pfs[i] being job i's private engine. The
// first job supplies the record stream and the phases.
func runRow(ctx context.Context, jobs []Job, pfs []prefetch.Prefetcher) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	j := jobs[0]
	for _, m := range jobs[1:] {
		if !sameFront(j, m) {
			return nil, fmt.Errorf("sim: row of %q jobs mixes front halves (workload, program, phases, predictor or source kind differ)", j.Workload.Name)
		}
	}
	if j.Config.MeasureInstrs == 0 {
		return nil, fmt.Errorf("sim: zero measurement interval")
	}
	r := newRow(ctx, jobs, pfs)
	if j.From != nil {
		return replayRow(j, r)
	}
	return liveRow(j, r)
}

// The hand-off between a row's halves.
const (
	// handoffRecords is how many records' front-pass output a handoff
	// gathers before the front half hands it over (a phase's last
	// handoff carries the rest): enough that the two goroutines meet a
	// few times per 100K records, few enough that the ring stays small.
	handoffRecords = 16384
	// ringSize is the number of handoffs a row cycles: the front half
	// fills one while the back halves step the other. The front half is
	// the lighter one, so a third handoff bought no speed, and it raised
	// peak memory.
	ringSize = 2
)

// row runs one record stream through one front end and the back halves
// of the jobs sharing it, as a two-stage pipeline (run). The front half,
// the record feed and the front end, runs on a producer goroutine and
// owns fe, cur and emit; the caller's goroutine owns sims. The halves
// meet only at the ring: ringSize handoffs cycle from free through the
// front pass (pass) to full, and through every back half (phase) back to
// free, so a row allocates nothing per batch.
type row struct {
	ctx  context.Context // polled by the front half once per feed batch
	fe   *frontend.Frontend
	sims []*Simulator

	full, free chan *handoff
	stop       chan struct{} // closed once the back halves stop reading
	cur        *handoff      // the handoff the front pass fills; nil between handoffs
	emit       func(frontend.Access)
}

// handoff is one ring slot: the front pass's output over consecutive
// feed batches, which is all a back half reads.
type handoff struct {
	runs    []blockRun
	acc     []frontend.Access
	records int   // the records front-passed into runs
	end     bool  // the handoff closes a phase
	err     error // the feed's error, which follows runs in the stream
}

// blockRun is a same-block run (trace.BlockRun) after the front pass.
type blockRun struct {
	head trace.Record // the run's first record, which OnRetire sees
	k    int32        // the continuation records after head
	a1   int32        // end of head's accesses in handoff.acc; they start at the previous run's a1
}

// handoffs recycles handoffs across rows: a row takes its ring when it
// starts and returns it once its producer has exited, so a job after
// the first allocates no handoff (a 16,384-record handoff holds about
// 160 KB, which every short job would otherwise allocate and clear).
var handoffs = sync.Pool{New: func() any {
	// A handoff of the eight standard and XL profiles' streams holds at
	// most 17% as many runs and 22% as many accesses as records, so a
	// quarter rarely runs out; append grows past it.
	return &handoff{
		runs: make([]blockRun, 0, handoffRecords/4),
		acc:  make([]frontend.Access, 0, handoffRecords/4),
	}
}}

// newRow builds a row's front end, its ring and one back half per job.
func newRow(ctx context.Context, jobs []Job, pfs []prefetch.Prefetcher) *row {
	j := jobs[0]
	r := &row{
		ctx:  ctx,
		fe:   frontend.New(j.Config.System.Frontend(j.Workload.Seed)),
		full: make(chan *handoff, ringSize),
		free: make(chan *handoff, ringSize),
		stop: make(chan struct{}),
	}
	for i, m := range jobs {
		r.sims = append(r.sims, New(m.Config, pfs[i], j.Workload.Seed))
	}
	for range ringSize {
		r.free <- handoffs.Get().(*handoff)
	}
	r.emit = func(a frontend.Access) { r.cur.acc = append(r.cur.acc, a) }
	return r
}

// run steps the row through its phases. The front half runs feed(n) for
// each phase on a producer goroutine; feed pulls the stream's next n
// records into a buffer of its own, in batches, and hands each batch to
// pass. The caller's goroutine steps the back halves (drive). run
// returns only after the producer has exited, so no goroutine outlives
// it, and only then reads the front end's statistics, which are
// whole-feed.
func (r *row) run(j Job, feed func(n uint64) error) ([]Result, error) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.produce(j.Config, feed)
	}()
	res, err := func() ([]Result, error) {
		defer func() {
			close(r.stop)
			<-done
		}()
		return drive(j, r.sims, r.phase)
	}()
	// Every handoff is back in free: the back halves return each one
	// they read, up to the last one the producer sent.
	for range ringSize {
		handoffs.Put(<-r.free)
	}
	if err != nil {
		return nil, err
	}
	fe := r.fe.Stats()
	for i := range res {
		res[i].FE = fe
	}
	return res, nil
}

// produce is the front half. It feeds drive's phases of c in order and
// hands over the handoff that closes each, so no handoff spans a phase
// boundary; after the feed's first error it hands that over and stops.
func (r *row) produce(c Config, feed func(n uint64) error) {
	for _, n := range []uint64{c.WarmupInstrs, c.MeasureOffsetInstrs, c.MeasureInstrs} {
		if n == 0 {
			continue
		}
		err := feed(n)
		if !r.hand(err == nil, err) || err != nil {
			return
		}
	}
}

// pass is the front pass over one feed batch. It feeds each block run's
// head and last record to the front end (a continuation's Feed emits no
// access, DESIGN.md §10) and appends the run and the head's accesses to
// the current handoff, which it hands over once it covers
// handoffRecords records. It returns errStopped once the back halves
// have stopped, and otherwise the context's error.
func (r *row) pass(rs []trace.Record) error {
	if r.cur == nil && !r.take() {
		return errStopped
	}
	h := r.cur
	for i := 0; i < len(rs); {
		r.fe.Feed(rs[i], r.emit)
		k := trace.BlockRun(rs[i:])
		h.runs = append(h.runs, blockRun{head: rs[i], k: int32(k), a1: int32(len(h.acc))})
		if k > 0 {
			i += k
			r.fe.Feed(rs[i], r.emit)
		}
		i++
	}
	if h.records += len(rs); h.records >= handoffRecords {
		r.hand(false, nil)
	}
	return r.ctx.Err()
}

// errStopped tells a feed that the back halves stopped reading.
var errStopped = errors.New("sim: the row's back halves stopped")

// take makes a free handoff current, waiting for the back halves to
// return one. It reports false once they have stopped.
func (r *row) take() bool {
	select {
	case h := <-r.free:
		h.runs, h.acc, h.records, h.end, h.err = h.runs[:0], h.acc[:0], 0, false, nil
		r.cur = h
		return true
	case <-r.stop:
		return false
	}
}

// hand sends the current handoff, or an empty one, to the back halves,
// marked as closing a phase (end) or as carrying the feed's error. full
// holds the whole ring, so the send never blocks. hand reports false
// once the back halves have stopped.
func (r *row) hand(end bool, err error) bool {
	if r.cur == nil && !r.take() {
		return false
	}
	r.cur.end, r.cur.err = end, err
	r.full <- r.cur
	r.cur = nil
	return true
}

// phase steps every back half through the handoffs of one phase, in
// stream order, up to the one that closes it, and returns the feed's
// error if that comes first. Each back half steps the runs in turn, so
// its clock, lastTagged and polluter see its own job's sequence.
func (r *row) phase() error {
	for {
		h := <-r.full
		for _, s := range r.sims {
			s.stepRuns(h.runs, h.acc)
		}
		end, err := h.end, h.err
		r.free <- h
		if err != nil {
			return err
		}
		if end {
			return nil
		}
	}
}
