// Command perfbench is the repository's benchmark. One run sets up a
// named workload, runs its ops in a closed loop (one client, one op in
// flight) for a fixed time, checks every simulated result against the
// simulator's counter laws — and, on the default seed, against the
// committed per-op digests in digests.json — and prints its metrics as
// the last line of standard output:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run also replays each op's inputs through every layer's public
// functions and prints the per-layer metrics instead, writing the spans
// as Chrome trace-event JSON and a runtime/trace file under
// .bench_build/out. Host times are reference-adjusted (see ref.go).
// README.md describes the workloads and every metric.
//
// Run it through the wrapper that builds it, from the repository root:
//
//	bash perfbench/run.sh --r0-ms 12 --workload live-grid --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --r0-ms 12 --workload live-grid --seconds 30 steady -runs 10 -sets 2
//	bash perfbench/run.sh --r0-ms 12 --workload live-grid -write-digests
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	_ "repro/internal/core" // registers the PIF engines
)

// defaultSeed is the seed whose per-op digests digests.json commits.
const defaultSeed = 1

// options are the settings of one benchmark invocation.
type options struct {
	root         string
	workload     string
	seed         int64
	seconds      int
	trace        bool
	r0           float64 // reference time R0, seconds
	digests      string
	writeDigests bool
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	var r0ms float64
	fs.StringVar(&o.root, "root", ".", "repository checkout root; scratch files go under its .bench_build")
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", defaultSeed, "input seed: the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 30, "length of the timed loop in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run: per-layer metrics plus span and runtime/trace files")
	fs.Float64Var(&r0ms, "r0-ms", 0, "reference time R0 in ms that host times are scaled to (fixed in BENCHMARK.json)")
	fs.StringVar(&o.digests, "digests", "", "committed per-op digests (default perfbench/digests.json under -root)")
	fs.BoolVar(&o.writeDigests, "write-digests", false, "run each distinct op of the default seed once and record its digest")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	o.r0 = r0ms / 1e3
	if o.digests == "" {
		o.digests = filepath.Join(o.root, "perfbench", "digests.json")
	}
	switch {
	case lookupWorkload(o.workload) == nil:
		return usage("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	case traceFlag != 0 && traceFlag != 1:
		return usage("-trace must be 0 or 1")
	case o.r0 <= 0:
		return usage("-r0-ms must be positive (BENCHMARK.json fixes it)")
	case o.seconds < 1:
		return usage("-seconds must be at least 1")
	}
	rest := fs.Args()
	switch {
	case len(rest) > 0 && rest[0] == "steady":
		return steady(o, rest[1:])
	case len(rest) > 0:
		return usage("unexpected argument %q", rest[0])
	case o.writeDigests:
		return writeDigests(o)
	}
	return benchmark(o)
}

func usage(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	return 2
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 1
}

// scratchDir makes a private scratch directory under the checkout's
// .bench_build; the caller removes it.
func scratchDir(root string) (string, error) {
	dir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, "work-")
}
