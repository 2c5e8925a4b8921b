// Package pif is the library surface of this reproduction of "Proactive
// Instruction Fetch" (Ferdman, Kaynak, Falsafi — MICRO 2011): an L1
// instruction prefetcher that records the correct-path, retire-order
// instruction stream in compact spatial-region form and replays recorded
// streams to eliminate instruction-fetch stalls.
//
// The package exports what a program embedding the simulator needs: the
// PIF engine and its baselines, the workloads of the paper's suite, the
// simulator, and the record sources that replay a recorded trace store
// (or one window of it) in place of live execution. The commands under
// cmd/ and everything else in this module (sweeps, execution backends,
// the results store, the experiment service) use the internal packages
// directly; this package re-exports none of them.
//
// Quick start:
//
//	res, err := pif.Simulate(pif.DefaultSimConfig(), pif.OLTPDB2(), pif.NewPIF(pif.DefaultPIFConfig()))
//	fmt.Printf("coverage=%.1f%%\n", res.Coverage()*100)
//
// Replay one window of a recorded trace store instead:
//
//	w, _ := pif.ParseTraceWindow("8M:2M")
//	res, err := pif.SimulateSource(cfg, wl, pif.SliceSource("apache.store", w), pif.NewPIF(pif.DefaultPIFConfig()))
//
// See README.md for the architecture overview and DESIGN.md for the
// substitutions made relative to the paper's testbed.
package pif

import (
	"context"

	"repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// PIF is the Proactive Instruction Fetch prefetcher (the paper's
// contribution): spatial + temporal compaction of the retire-order stream,
// a circular history buffer with an index of stream heads, and stream
// address buffers that replay recorded streams.
type PIF = core.PIF

// PIFConfig parameterizes a PIF instance.
type PIFConfig = core.Config

// NewPIF builds a PIF prefetcher.
func NewPIF(cfg PIFConfig) *PIF { return core.New(cfg) }

// DefaultPIFConfig is the paper's configuration: 8-block regions
// (2 preceding + trigger + 5 succeeding), 32K-region history, 4 SABs with
// a 7-region window, and per-trap-level stream separation.
func DefaultPIFConfig() PIFConfig { return core.DefaultConfig() }

// Prefetcher is the pluggable prefetch-engine interface shared by PIF and
// the baselines. Engines are stateful: use one instance per simulation.
type Prefetcher = prefetch.Prefetcher

// NewNextLine returns the aggressive next-line baseline prefetcher.
func NewNextLine(degree int) Prefetcher { return prefetch.NewNextLine(degree) }

// NewTIFS returns the Temporal Instruction Fetch Streaming baseline
// [MICRO 2008], which records and replays the L1-I miss stream.
func NewTIFS() Prefetcher { return prefetch.NewTIFS(prefetch.DefaultTIFSConfig()) }

// NoPrefetch is the no-prefetcher baseline.
func NoPrefetch() Prefetcher { return prefetch.None{} }

// Workload describes one synthetic server workload.
type Workload = workload.Profile

// Standard workloads of the paper's Table I (synthetic stand-ins; see
// DESIGN.md §4).
var (
	OLTPDB2    = workload.OLTPDB2
	OLTPOracle = workload.OLTPOracle
	WebApache  = workload.WebApache
	WebZeus    = workload.WebZeus
)

// SimConfig parameterizes a simulation run.
type SimConfig = sim.Config

// SimResult is the outcome of a run (coverage, UIPC, cache statistics).
type SimResult = sim.Result

// DefaultSimConfig returns a laptop-scale analog of the paper's
// methodology: warmed structures, then a measured interval.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// Simulate runs one workload through the front-end, L1-I, and prefetcher
// models and returns the measured-interval metrics.
func Simulate(cfg SimConfig, w Workload, p Prefetcher) (SimResult, error) {
	return sim.Run(cfg, w, p)
}

// Source names a recorded trace to simulate — a whole trace store or a
// window of one — independently of the engine simulating it. Simulate
// executes the workload live instead.
type Source = sim.Source

// StoreSource returns the source replaying the sharded trace store at
// dir (written by cmd/tracegen) from record 0.
func StoreSource(dir string) Source { return sim.StoreSource(dir) }

// SliceSource returns the source replaying only window w of the sharded
// store at dir, seeked through the store index so only the window's
// chunks are decoded.
func SliceSource(dir string, w TraceWindow) Source { return sim.SliceSource(dir, w) }

// TraceWindow addresses a half-open record range [Off, Off+Len) of a
// sharded trace store.
type TraceWindow = trace.Window

// ParseTraceWindow parses an "off:len" window spec (K/M suffixes are
// 1024 multiples): "8192:1M" is the 1Mi-record window at record 8192.
func ParseTraceWindow(s string) (TraceWindow, error) { return trace.ParseWindow(s) }

// SimulateSource runs one simulation fed by src; w supplies the result
// name and front-end seed. The source must supply at least
// warmup+measure records; a short source is a hard error, never a short
// run.
func SimulateSource(cfg SimConfig, w Workload, src Source, p Prefetcher) (SimResult, error) {
	return sim.RunWith(context.Background(), sim.Job{Config: cfg, Workload: w, From: src}, p)
}
