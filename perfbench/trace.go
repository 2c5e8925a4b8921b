package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	rtrace "runtime/trace"
	"time"
)

// stepTimer times set-up steps, each bracketed by reference samples.
type stepTimer struct {
	ref   *refSampler
	r0    float64
	tr    *tracer // nil outside traced runs
	prev  float64 // the last reference sample, seconds
	adj   float64 // this pass's adjusted seconds
	raw   float64 // this pass's raw seconds
	steps []stepTime
}

// stepTime is one timed set-up step.
type stepTime struct {
	name string
	adj  float64 // adjusted seconds
	work float64 // units of work done (records recorded, programs built)
}

// begin starts a set-up pass.
func (s *stepTimer) begin() {
	s.prev = s.ref.sample()
	s.adj, s.raw = 0, 0
}

// step runs fn as one set-up step and adds its adjusted time to the pass.
func (s *stepTimer) step(name string, work float64, fn func() error) error {
	t0 := time.Now()
	var err error
	if s.tr != nil {
		_, err = s.tr.region(context.Background(), "setup."+name, -1, -1, fn)
	} else {
		err = fn()
	}
	raw := time.Since(t0).Seconds()
	after := s.ref.sample()
	adj := raw * refFactor(s.prev, after, s.r0)
	s.prev = after
	s.adj += adj
	s.raw += raw
	s.steps = append(s.steps, stepTime{name: name, adj: adj, work: work})
	return err
}

// tracer keeps a traced run's spans in memory and writes them out when
// the run ends, as Chrome trace-event JSON (chrome://tracing, Perfetto).
// Every span is also a runtime/trace region of the same name, so `go
// tool trace` on the companion file shows the same layer breakdown.
type tracer struct {
	t0     time.Time
	spans  []span
	rt     *os.File // nil once the runtime trace has stopped
	rtPath string
	path   string // the span file
}

// span is one timed call: its name, start and end relative to the run's
// start, the span that caused it (-1 for none), and its op (-1 for
// set-up).
type span struct {
	name       string
	start, end time.Duration
	parent     int
	op         int
}

func startTracer(dir, stem string) (*tracer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rtPath := filepath.Join(dir, stem+".trace")
	f, err := os.Create(rtPath)
	if err != nil {
		return nil, err
	}
	if err := rtrace.Start(f); err != nil {
		f.Close()
		return nil, err
	}
	return &tracer{t0: time.Now(), rt: f, rtPath: rtPath, path: filepath.Join(dir, stem+".spans.json")}, nil
}

// add records a finished span and returns its index.
func (t *tracer) add(name string, start, end time.Time, parent, op int) int {
	t.spans = append(t.spans, span{name: name, start: start.Sub(t.t0), end: end.Sub(t.t0), parent: parent, op: op})
	return len(t.spans) - 1
}

// region runs fn as a span and as a runtime/trace region named name, and
// returns fn's duration in seconds.
func (t *tracer) region(ctx context.Context, name string, parent, op int, fn func() error) (float64, error) {
	var err error
	start := time.Now()
	rtrace.WithRegion(ctx, name, func() { err = fn() })
	end := time.Now()
	t.add(name, start, end, parent, op)
	return end.Sub(start).Seconds(), err
}

// stop stops the runtime trace, if it still runs.
func (t *tracer) stop() error {
	if t.rt == nil {
		return nil
	}
	rtrace.Stop()
	err := t.rt.Close()
	t.rt = nil
	return err
}

// close stops the runtime trace and writes the span file.
func (t *tracer) close() error {
	if err := t.stop(); err != nil {
		return err
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{
			Name: s.name, Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": i, "parent": s.parent, "op": s.op},
		}
	}
	b, err := json.Marshal(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{evs, "ms"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(t.path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans in %s, runtime trace in %s\n", len(t.spans), t.path, t.rtPath)
	return nil
}

// opLayers is one op's layer replay: raw seconds per span name, the work
// each layer did, and the reference bracket that adjusts the times.
type opLayers struct {
	op     int
	sec    map[string]float64
	work   map[string]float64
	factor float64 // R0 / mean(reference before, after) of the replay
}

// layerReplay records the spans of one op's replay, all children of one
// "replay" span inside one runtime/trace task.
type layerReplay struct {
	opLayers
	tr   *tracer
	ctx  context.Context
	task *rtrace.Task
	root int
}

// replay starts the replay of op i.
func (t *tracer) replay(op int) *layerReplay {
	ctx, task := rtrace.NewTask(context.Background(), "replay")
	now := time.Now()
	return &layerReplay{
		opLayers: opLayers{op: op, sec: map[string]float64{}, work: map[string]float64{}},
		tr:       t, ctx: ctx, task: task,
		root: t.add("replay", now, now, -1, op),
	}
}

// end closes the replay's root span and task.
func (l *layerReplay) end() {
	l.task.End()
	l.tr.spans[l.root].end = time.Since(l.tr.t0)
}

// span times fn as a child span of the replay, adding its seconds to
// name's total.
func (l *layerReplay) span(name string, fn func() error) error {
	d, err := l.tr.region(l.ctx, name, l.root, l.op, fn)
	l.sec[name] += d
	return err
}

// addTime adds host seconds measured outside a span (a difference of
// spans, or a time the program reports) to name's total.
func (l *layerReplay) addTime(name string, seconds float64) { l.sec[name] += seconds }

// addWork adds units of work done by a layer.
func (l *layerReplay) addWork(name string, units float64) { l.work[name] += units }
