// Package remote is the first multi-node runner.Backend: a coordinator/
// worker pair speaking runner.Job/runner.Result over HTTP. The
// coordinator (see Core, Server) owns a lease-based queue of units (a
// row of jobs sharing a front half, or one job) — workers register,
// lease units, heartbeat, and post each unit's results keyed by its task
// ID; a worker that misses its heartbeat deadline has its units
// re-queued whole (bounded retries, then a hard error per job). The
// client side (see Backend) implements runner.Backend, so every existing
// driver — experiments, pifsim -shards, sweeps — distributes unchanged
// via -backend remote@ADDR.
//
// Layering follows the repo idiom: Core is a pure in-memory state
// machine with an injected clock, unit-testable without sockets; Server
// is a thin HTTP translation over it; Backend and Worker are HTTP
// clients. See DESIGN.md §11 for the wire protocol and failure-mode
// table.
package remote

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/prefetch"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// WireVersion stamps every wire object; a coordinator or worker
// receiving another version refuses it rather than misinterpreting
// fields.
//
// Version history:
//
//	1: engines traveled as a bare registry name — tuned cells were refused.
//	2: engines travel as a full prefetch.Spec (name + params), so every
//	   sweep cell — budget-derived, history-swept, hand-tuned — runs
//	   remotely exactly as it would locally.
//	3: sim.Config gained MeasureOffsetInstrs (exact sharded replay): a
//	   v2 worker would silently drop the offset and measure the wrong
//	   interval, so shard jobs must not reach one.
//	4: the unit of remote work is a row: a submission, a lease and a
//	   completion carry a whole unit; workers report their slots at
//	   registration, and a run's open and results answers carry the
//	   live workers' slots, the client's width.
const WireVersion = 4

// JobSpec is the wire form of a runner.Job: everything a worker needs to
// rebuild and run the job locally, and nothing that cannot cross a
// machine boundary. Workloads travel by registry name, sources by
// sim.SourceSpec, engines by declarative prefetch.Spec.
type JobSpec struct {
	V        int             `json:"v"`
	Label    string          `json:"label,omitempty"`
	Workload string          `json:"workload"`
	Config   sim.Config      `json:"config"`
	Engine   prefetch.Spec   `json:"engine"`
	Source   *sim.SourceSpec `json:"source,omitempty"`
}

// EncodeJob converts a runner.Job to its wire form. Jobs carrying
// process-local state — an instrument hook or an opaque source — are
// rejected with a descriptive error: the remote backend must refuse
// them loudly, never run a silently different job. The engine spec is
// validated against the registry before it travels, so a bad param
// fails at submission, not on a worker.
func EncodeJob(j runner.Job) (JobSpec, error) {
	if j.Engine.Name == "" {
		return JobSpec{}, fmt.Errorf("remote: job %q names no engine", j.Label)
	}
	if err := prefetch.Validate(j.Engine); err != nil {
		return JobSpec{}, fmt.Errorf("remote: job %q: %w", j.Label, err)
	}
	if j.Instrument != nil {
		return JobSpec{}, fmt.Errorf("remote: job %q carries an instrument callback; instruments are process-local", j.Label)
	}
	if j.Workload.Name == "" {
		return JobSpec{}, fmt.Errorf("remote: job %q has an unnamed workload", j.Label)
	}
	reg, err := workload.ByName(j.Workload.Name)
	if err != nil {
		return JobSpec{}, fmt.Errorf("remote: job %q: workload %q is not in the registry; remote workers resolve workloads by name: %w", j.Label, j.Workload.Name, err)
	}
	if reg != j.Workload {
		return JobSpec{}, fmt.Errorf("remote: job %q: workload %q differs from the registry profile of that name; a remote worker would simulate the wrong program", j.Label, j.Workload.Name)
	}
	spec := JobSpec{
		V:        WireVersion,
		Label:    j.Label,
		Workload: j.Workload.Name,
		Config:   j.Config,
		Engine:   j.Engine,
	}
	if j.From != nil {
		ss, ok := sim.SpecOf(j.From)
		if !ok {
			return JobSpec{}, fmt.Errorf("remote: job %q carries an opaque source (%T); only live/store/slice sources serialize", j.Label, j.From)
		}
		spec.Source = &ss
	}
	// Program images are deterministic functions of the profile, so
	// j.Program is dropped: the worker's job leaves it nil and RunJob
	// takes the image from the worker's workload.ProgramFor cache, where
	// consecutive jobs of one workload share it while any job holds it.
	return spec, nil
}

// Job rebuilds the runnable runner.Job a spec names, resolving the
// workload through its registry, the engine spec against the prefetch
// schemas (a spec corrupted or forged in transit fails here, before the
// worker burns cycles on it), and the source through sim.SourceSpec.New.
func (s JobSpec) Job() (runner.Job, error) {
	if s.V != WireVersion {
		return runner.Job{}, fmt.Errorf("remote: job spec has wire version %d, want %d", s.V, WireVersion)
	}
	w, err := workload.ByName(s.Workload)
	if err != nil {
		return runner.Job{}, fmt.Errorf("remote: job %q: %w", s.Label, err)
	}
	if s.Engine.Name == "" {
		return runner.Job{}, fmt.Errorf("remote: job %q names no engine", s.Label)
	}
	if err := prefetch.Validate(s.Engine); err != nil {
		return runner.Job{}, fmt.Errorf("remote: job %q: %w", s.Label, err)
	}
	j := runner.Job{
		Label:    s.Label,
		Workload: w,
		Config:   s.Config,
		Engine:   s.Engine,
	}
	if s.Source != nil {
		src, err := s.Source.New()
		if err != nil {
			return runner.Job{}, fmt.Errorf("remote: job %q: %w", s.Label, err)
		}
		j.From = src
	}
	return j, nil
}

// WireResult is the wire form of a runner.Result. Errors travel as
// strings: a remote job failure is diagnostic text by the time it
// crosses the wire, not a matchable error chain.
type WireResult struct {
	V            int        `json:"v"`
	Index        int        `json:"index"`
	Label        string     `json:"label,omitempty"`
	Sim          sim.Result `json:"sim"`
	Err          string     `json:"err,omitempty"`
	ElapsedNanos int64      `json:"elapsed_nanos"`
}

// EncodeResult converts a runner.Result to its wire form.
func EncodeResult(r runner.Result) WireResult {
	wr := WireResult{
		V:            WireVersion,
		Index:        r.Index,
		Label:        r.Label,
		Sim:          r.Sim,
		ElapsedNanos: r.Elapsed.Nanoseconds(),
	}
	if r.Err != nil {
		wr.Err = r.Err.Error()
	}
	return wr
}

// Result rebuilds the runner.Result a wire result names.
func (w WireResult) Result() (runner.Result, error) {
	if w.V != WireVersion {
		return runner.Result{}, fmt.Errorf("remote: result has wire version %d, want %d", w.V, WireVersion)
	}
	r := runner.Result{
		Index:   w.Index,
		Label:   w.Label,
		Sim:     w.Sim,
		Elapsed: time.Duration(w.ElapsedNanos),
	}
	if w.Err != "" {
		r.Err = errors.New(w.Err)
	}
	return r, nil
}
