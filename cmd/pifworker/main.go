// Command pifworker runs simulation jobs leased from a pifcoord
// coordinator. It registers with its -parallel slot count, pulls up to
// -parallel tasks at a time, heartbeats (idle or not, so the coordinator
// counts its slots as live), and posts each task's results keyed by its
// task ID so retried posts deduplicate. A task is a unit: a row of jobs
// that share a front half, run through one program image, executor and
// front end, or a single job. A client splits its rows for the slots
// live when its run opens, so start workers before the client; the
// coordinator's /v1/healthz reports the live slots.
//
// Usage:
//
//	pifworker -coord localhost:8077
//	pifworker -coord localhost:8077 -name lab-3 -parallel 4
//
// Jobs arrive as registry references — workload name, prefetcher name,
// simulator config, and optionally a trace-store path with a record
// window — and are resolved locally: live workloads are regenerated from
// the registry (deterministic, so every worker produces byte-identical
// traces), store paths must be readable at the same path on the worker
// (shared filesystem, or stores shipped ahead of time with tracegen).
//
// A worker killed mid-job simply stops heartbeating; the coordinator
// re-queues its tasks after the lease TTL. Ctrl-C abandons in-flight
// tasks the same way.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/remote"
	"repro/internal/runner"
)

func main() {
	coord := flag.String("coord", "localhost:8077", "coordinator address (host:port or http://host:port)")
	name := flag.String("name", "", "worker name in coordinator diagnostics (default: hostname)")
	parallel := flag.Int("parallel", 0, "tasks run concurrently (0 = GOMAXPROCS)")
	authToken := flag.String("auth-token", "", "bearer token for a token-protected coordinator (empty for an open one)")
	flag.Parse()

	if *name == "" {
		if h, err := os.Hostname(); err == nil {
			*name = h
		} else {
			*name = "pifworker"
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	w := &remote.Worker{Coord: *coord, Name: *name, Parallel: *parallel, Token: *authToken}
	fmt.Fprintf(os.Stderr, "pifworker: %s pulling from %s with %d slot(s)\n",
		*name, *coord, runner.Workers(*parallel))
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "pifworker:", err)
		os.Exit(1)
	}
}
