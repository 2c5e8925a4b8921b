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
// engine. It is the one description of a simulation from a sweep cell
// (sweep.Settings embeds it) through the execution backends (runner.Job
// is an alias) to a remote worker (remote.EncodeJob). Because every
// engine is stateful, a job carries a spec rather than an instance, and
// RunJob constructs every piece of mutable state it touches, so any
// number of jobs can run concurrently — goroutine safety by
// construction. The package-level state on the simulation path is
// workload.ProgramFor's cache, which holds only immutable program
// images, each a pure function of its profile, and the pool of row
// hand-off buffers, which a row clears before each use; no result can
// depend on either. The spec is plain data, so the same job runs
// identically on a local worker or across the remote wire.
type Job struct {
	// Label identifies the job in progress output and result tables
	// (e.g. "fig10/OLTP DB2/PIF"). The simulation never reads it.
	Label string
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
	// never a silently short run. Sources are factories, not open
	// iterators, so every job — and every retry on another backend node —
	// opens its own.
	From Source
	// Engine is the declarative spec of the job's prefetch engine: a
	// registry name plus parameters, resolved into a fresh private
	// instance through the prefetch registry on whichever backend runs
	// the job, which is how tuned engines travel over the remote wire.
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
	p, err := resolveEngine(j)
	if err != nil {
		return Result{}, err
	}
	return RunWith(ctx, j, p)
}

// resolveEngine builds the job's private engine from its spec and hands
// it to the job's instrument hook.
func resolveEngine(j Job) (prefetch.Prefetcher, error) {
	if j.Engine.Name == "" {
		return nil, fmt.Errorf("sim: job for %q names no engine", j.Workload.Name)
	}
	p, err := prefetch.Resolve(j.Engine)
	if err != nil {
		return nil, fmt.Errorf("sim: job for %q: %w", j.Workload.Name, err)
	}
	if j.Instrument != nil {
		j.Instrument(p)
	}
	return p, nil
}

// RunWith executes a job with an already-constructed engine instance,
// bypassing the job's Engine spec. It exists for instance-based entry
// points (pif.SimulateSource, parity tests); the instance must be
// private to this run — engines are stateful.
func RunWith(ctx context.Context, j Job, p prefetch.Prefetcher) (Result, error) {
	if p == nil {
		return Result{}, fmt.Errorf("sim: job for %q has no prefetch engine", j.Workload.Name)
	}
	rs, err := runRow(ctx, []Job{j}, []prefetch.Prefetcher{p})
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// replayRow opens the job's source, validates it against the job and
// replays it through the row: the front half decodes records in batches
// into one preallocated buffer, so the replay loop performs no
// per-record interface calls and no allocation, and peak memory is the
// source's own buffer (one store chunk) plus the row's ring, never the
// trace length.
func replayRow(j Job, r *row) (res []Result, err error) {
	if j.Workload.Name == "" {
		// Replay sources supply records but not a profile, and the
		// profile's front-end seed shapes the result: running with the
		// zero profile would silently diverge from every workload-named
		// run of the same trace.
		return nil, fmt.Errorf("sim: job with a record source names no workload profile (the profile supplies the front-end seed)")
	}
	src, info, err := j.From.Open(r.ctx)
	if err != nil {
		return nil, err
	}
	if c, ok := src.(io.Closer); ok {
		defer func() {
			if cerr := c.Close(); cerr != nil && err == nil {
				res, err = nil, cerr
			}
		}()
	}
	if info.Workload != "" && info.Workload != j.Workload.Name {
		return nil, fmt.Errorf("sim: job for %q replays a source recorded from %q (%s)",
			j.Workload.Name, info.Workload, info)
	}
	if need := j.Config.WarmupInstrs + j.Config.MeasureOffsetInstrs + j.Config.MeasureInstrs; info.Records > 0 && info.Records < need {
		return nil, fmt.Errorf("sim: %s supplies %d records, need %d (warmup+offset+measure)",
			info, info.Records, need)
	}
	buf := make([]trace.Record, stepBatch)
	return r.run(j, func(n uint64) error {
		for done := uint64(0); done < n; {
			k, err := src.NextBatch(buf[:min(n-done, stepBatch)])
			perr := r.pass(buf[:k])
			done += uint64(k)
			if err != nil {
				if errors.Is(err, io.EOF) {
					return fmt.Errorf("sim: trace source for %q exhausted after %d of %d records: %w",
						j.Workload.Name, done, n, io.ErrUnexpectedEOF)
				}
				return fmt.Errorf("sim: trace source for %q: %w", j.Workload.Name, err)
			}
			if perr != nil {
				return perr
			}
		}
		return nil
	})
}

// liveRow executes the job's workload program through the row. The
// executor writes its records straight into one batch buffer, which the
// front half passes (polling the context) each time it fills and at
// each phase end.
func liveRow(j Job, r *row) ([]Result, error) {
	prog := j.Program
	if prog == nil {
		var err error
		prog, err = workload.ProgramFor(j.Workload)
		if err != nil {
			return nil, err
		}
	}

	ex := workload.NewExecutor(prog)
	buf := make([]trace.Record, 0, stepBatch)
	var err error
	flush := func(b []trace.Record) []trace.Record {
		if err = r.pass(b); err != nil {
			ex.Abort()
		}
		return b[:0]
	}
	// Each phase is one executor run, which starts a fresh transaction:
	// the phase boundaries are part of the live stream.
	return r.run(j, func(n uint64) error {
		buf = flush(ex.RunBatches(n, buf, flush))
		return err
	})
}

// stepBatch is the record batch a feed fills per call: large enough to
// amortize the batch call and the context poll, small enough that the
// buffer stays cache-warm between the feed's write and the front pass.
const stepBatch = 4096

// drive runs a row's warmup → offset → measure sequence on each of its
// back halves; j supplies the phases and the workload name. phase()
// steps the back halves through the next phase's records, which the
// row's front half cuts at the phase boundaries (row.produce), and
// returns the feed's error. drive resets the statistics at the warmup
// boundary, snapshots them after the offset and reports the measured
// interval, so live and replay rows share every phase rule.
func drive(j Job, sims []*Simulator, phase func() error) ([]Result, error) {
	if j.Config.WarmupInstrs > 0 {
		if err := phase(); err != nil {
			return nil, err
		}
		for _, s := range sims {
			s.resetStats()
		}
	}
	var snaps []Result
	if j.Config.MeasureOffsetInstrs > 0 {
		// The offset runs with statistics accumulating (no reset): the
		// measured interval is reported as deltas against this snapshot,
		// so state and clock evolve exactly as in an offset-free run
		// (see Config.MeasureOffsetInstrs).
		if err := phase(); err != nil {
			return nil, err
		}
		for _, s := range sims {
			snaps = append(snaps, s.result(j.Workload.Name))
		}
	}
	if err := phase(); err != nil {
		return nil, err
	}
	res := make([]Result, len(sims))
	for i, s := range sims {
		res[i] = s.result(j.Workload.Name)
		if snaps != nil {
			res[i] = res[i].deltaFrom(snaps[i])
		}
	}
	return res, nil
}
