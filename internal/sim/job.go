package sim

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/prefetch"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Job names one simulation: a record source (live workload execution by
// default), a configuration, and a declarative spec for the prefetch
// engine. Jobs are the unit of work of the execution backends
// (internal/runner): because every engine is stateful, a job carries a
// spec rather than an instance, and RunJob constructs every piece of
// mutable state it touches, so any number of jobs can run concurrently —
// goroutine safety by construction. The one package-level state on the
// simulation path is workload.ProgramFor's cache, which holds only
// immutable program images, each a pure function of its profile, so no
// result can depend on it. The spec is plain data, so the same job runs
// identically on a local worker or across the remote wire.
type Job struct {
	// Config parameterizes the run (system, warmup, measured interval).
	Config Config
	// Workload is the simulated workload profile. It supplies the
	// front-end seed and the result's name even when the record stream
	// comes from a recorded source.
	Workload workload.Profile
	// Program optionally supplies a pre-built program image. Programs are
	// immutable after construction, so one image may be shared by
	// concurrent jobs. When nil, a live job takes the image from
	// workload.ProgramFor, which shares it with every other holder.
	Program *workload.Program
	// From, when non-nil, supplies the job's record stream: RunJob opens
	// the source, pulls warmup plus measured records from the returned
	// iterator, and closes it (when it implements io.Closer) after the
	// run. Store and slice sources replay recorded traces instead of
	// executing the workload; a nil From executes it live. A source that
	// cannot supply WarmupInstrs+MeasureInstrs records is a hard error —
	// never a silently short run.
	From Source
	// Engine is the declarative spec of the job's prefetch engine: a
	// registry name plus parameters, resolved into a fresh private
	// instance through the prefetch registry when the job runs.
	Engine prefetch.Spec
	// Instrument, when non-nil, is invoked once with the job's freshly
	// constructed engine before the run starts (e.g. to attach a
	// stream-end hook). It is process-local state: remote backends
	// refuse jobs carrying it.
	Instrument func(prefetch.Prefetcher)
}

// RunJob executes one simulation job: resolve the engine spec into a
// fresh prefetcher, resolve the record source, take the program image
// (the job's own, or workload.ProgramFor's) when executing live, warm
// up, measure. The context is polled once per 4096-record batch; on
// cancellation the run is aborted and ctx.Err() returned. RunJob is safe
// for concurrent use — it shares no mutable state with other runs beyond
// the read-only Program.
func RunJob(ctx context.Context, j Job) (Result, error) {
	if j.Engine.Name == "" {
		return Result{}, fmt.Errorf("sim: job for %q names no engine", j.Workload.Name)
	}
	p, err := prefetch.Resolve(j.Engine)
	if err != nil {
		return Result{}, fmt.Errorf("sim: job for %q: %w", j.Workload.Name, err)
	}
	if j.Instrument != nil {
		j.Instrument(p)
	}
	return RunWith(ctx, j, p)
}

// RunWith executes a job with an already-constructed engine instance,
// bypassing the job's Engine spec. It exists for instance-based entry
// points (pif.SimulateSource, parity tests); the instance must be
// private to this run — engines are stateful.
func RunWith(ctx context.Context, j Job, p prefetch.Prefetcher) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if j.Config.MeasureInstrs == 0 {
		return Result{}, fmt.Errorf("sim: zero measurement interval")
	}
	if p == nil {
		return Result{}, fmt.Errorf("sim: job for %q has no prefetch engine", j.Workload.Name)
	}
	if j.From != nil {
		if j.Workload.Name == "" {
			// Replay sources supply records but not a profile, and the
			// profile's front-end seed shapes the result: running with
			// the zero profile would silently diverge from every
			// workload-named run of the same trace.
			return Result{}, fmt.Errorf("sim: job with a record source names no workload profile (the profile supplies the front-end seed)")
		}
		it, info, err := j.From.Open(ctx)
		if err != nil {
			return Result{}, err
		}
		res, rerr := runOpened(ctx, j, p, it, info)
		if c, ok := it.(io.Closer); ok {
			if cerr := c.Close(); cerr != nil && rerr == nil {
				rerr = cerr
			}
		}
		return res, rerr
	}
	return liveJob(ctx, j, p)
}

// runOpened validates an opened source against the job and replays it.
func runOpened(ctx context.Context, j Job, p prefetch.Prefetcher, it trace.BatchIterator, info SourceInfo) (Result, error) {
	if info.Workload != "" && info.Workload != j.Workload.Name {
		return Result{}, fmt.Errorf("sim: job for %q replays a source recorded from %q (%s)",
			j.Workload.Name, info.Workload, info)
	}
	if need := j.Config.WarmupInstrs + j.Config.MeasureOffsetInstrs + j.Config.MeasureInstrs; info.Records > 0 && info.Records < need {
		return Result{}, fmt.Errorf("sim: %s supplies %d records, need %d (warmup+offset+measure)",
			info, info.Records, need)
	}
	return replayJob(ctx, j, p, it)
}

// liveJob executes the job by running the workload program. The
// executor writes its records straight into one batch buffer, which is
// stepped (and the context polled) each time it fills and at each phase
// end.
func liveJob(ctx context.Context, j Job, p prefetch.Prefetcher) (Result, error) {
	prog := j.Program
	if prog == nil {
		var err error
		prog, err = workload.ProgramFor(j.Workload)
		if err != nil {
			return Result{}, err
		}
	}

	ex := workload.NewExecutor(prog)
	s := New(j.Config, p, j.Workload.Seed)
	buf := make([]trace.Record, 0, stepBatch)
	var err error
	step := func(b []trace.Record) []trace.Record {
		s.StepBatch(b)
		if err = ctx.Err(); err != nil {
			ex.Abort()
		}
		return b[:0]
	}
	// Each phase is one executor run, which starts a fresh transaction:
	// the phase boundaries are part of the live stream.
	return drive(j, s, func(n uint64) error {
		buf = step(ex.RunBatches(n, buf, step))
		return err
	})
}

// stepBatch is the record batch both drive loops step per call: large
// enough to amortize the batch call and the context poll, small enough
// that the buffer stays cache-warm across the step loop.
const stepBatch = 4096

// drive runs a job's warmup → offset → measure sequence on s. feed(n)
// steps the source's next n records through s in batches, polling the
// context once per batch; drive resets the statistics at the warmup
// boundary, snapshots them after the offset and reports the measured
// interval, so live and replay jobs share every phase rule.
func drive(j Job, s *Simulator, feed func(n uint64) error) (Result, error) {
	if j.Config.WarmupInstrs > 0 {
		if err := feed(j.Config.WarmupInstrs); err != nil {
			return Result{}, err
		}
		s.resetStats()
	}
	var snap Result
	if j.Config.MeasureOffsetInstrs > 0 {
		// The offset runs with statistics accumulating (no reset): the
		// measured interval is reported as deltas against this snapshot,
		// so state and clock evolve exactly as in an offset-free run
		// (see Config.MeasureOffsetInstrs).
		if err := feed(j.Config.MeasureOffsetInstrs); err != nil {
			return Result{}, err
		}
		snap = s.result(j.Workload.Name)
	}
	if err := feed(j.Config.MeasureInstrs); err != nil {
		return Result{}, err
	}
	res := s.result(j.Workload.Name)
	if j.Config.MeasureOffsetInstrs > 0 {
		res = res.deltaFrom(snap)
	}
	return res, nil
}

// replayJob drives a job from a record iterator instead of a live
// executor: records are decoded in batches into one preallocated buffer,
// so the replay loop performs no per-record interface calls and no
// allocation, and peak memory is the source's own buffer (one store
// chunk, one executor batch), never the trace length.
func replayJob(ctx context.Context, j Job, p prefetch.Prefetcher, src trace.BatchIterator) (Result, error) {
	s := New(j.Config, p, j.Workload.Seed)
	buf := make([]trace.Record, stepBatch)
	return drive(j, s, func(n uint64) error {
		for done := uint64(0); done < n; {
			k, err := src.NextBatch(buf[:min(n-done, stepBatch)])
			s.StepBatch(buf[:k])
			done += uint64(k)
			if err != nil {
				if errors.Is(err, io.EOF) {
					return fmt.Errorf("sim: trace source for %q exhausted after %d of %d records: %w",
						j.Workload.Name, done, n, io.ErrUnexpectedEOF)
				}
				return fmt.Errorf("sim: trace source for %q: %w", j.Workload.Name, err)
			}
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		return nil
	})
}
