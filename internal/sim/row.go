package sim

import (
	"context"
	"fmt"

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
	r := &row{fe: frontend.New(j.Config.System.Frontend(j.Workload.Seed))}
	for i, m := range jobs {
		r.sims = append(r.sims, newSimulator(m.Config, pfs[i], j.Workload.Seed, r.fe))
	}
	r.emit = func(a frontend.Access) { r.acc = append(r.acc, a) }
	if j.From != nil {
		return replayRow(ctx, j, r)
	}
	return liveRow(ctx, j, r)
}

// row steps one record stream through one front end and the back halves
// of the jobs sharing it. runs and acc, the front pass's output, are
// reused across batches.
type row struct {
	fe   *frontend.Frontend
	sims []*Simulator
	runs []blockRun
	acc  []frontend.Access
	emit func(frontend.Access)
}

// blockRun is a batch's same-block run (trace.BlockRun) after the front
// pass.
type blockRun struct {
	head, k int32 // the head's index in the batch; continuation records
	a0, a1  int32 // the head's accesses: row.acc[a0:a1]
}

// step consumes one batch. A row of one steps its simulator's fused
// StepBatch. A longer row makes a front pass once: it feeds each block
// run's head and last record to the shared front end, as StepBatch
// does, and records the head's accesses (a continuation's Feed emits
// none). Each back half then steps the runs in StepBatch's order
// (stepRuns), so its clock, lastTagged and polluter see its own job's
// sequence.
func (r *row) step(rs []trace.Record) {
	if len(r.sims) == 1 {
		r.sims[0].StepBatch(rs)
		return
	}
	r.runs, r.acc = r.runs[:0], r.acc[:0]
	for i := 0; i < len(rs); {
		a0 := len(r.acc)
		r.fe.Feed(rs[i], r.emit)
		k := trace.BlockRun(rs[i:])
		r.runs = append(r.runs, blockRun{head: int32(i), k: int32(k), a0: int32(a0), a1: int32(len(r.acc))})
		if k > 0 {
			i += k
			r.fe.Feed(rs[i], r.emit)
		}
		i++
	}
	for _, s := range r.sims {
		s.stepRuns(rs, r.runs, r.acc)
	}
}
