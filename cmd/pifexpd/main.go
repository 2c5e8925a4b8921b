// Command pifexpd runs the experiment service: a long-running daemon
// that accepts sweep specs over a versioned HTTP JSON API, queues them,
// executes each through the configured backend (a local worker pool or a
// pifcoord coordinator), and records every run in a persistent run
// database layered on the results store — one queryable corpus shared by
// every submitter.
//
// Usage:
//
//	pifexpd -listen :8078 -db results-svc
//	pifexpd -listen :8078 -db results-svc -backend remote@coord:8077 -tracedir traces
//	pifexpd -listen :8078 -db results-svc -auth-token SECRET
//
// The database directory holds one subdirectory per run: the service's
// exprun.json record (spec, queued→running→done/failed state machine,
// timings), and — once the run completes — the same run.json + artifact
// + jobs/ layout `experiments -out` writes, so any corpus tool (and
// `experiments diff`) reads service runs unchanged. Every file is
// written atomically and run.json last: a killed service never leaves a
// run directory that loads in a partial state, and on restart
// interrupted runs are requeued (or marked failed once their attempt
// budget is spent).
//
// With -auth-token every API request must carry the bearer token
// (health checks stay open); the same token is presented when dialing a
// token-protected coordinator. Submit and inspect runs with
// `experiments submit|status|diff -svc ADDR`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/expsvc"
	"repro/internal/httpapi"
)

func main() {
	listen := flag.String("listen", ":8078", "address to serve the experiment-service API on")
	dbDir := flag.String("db", "results-svc", "run database directory (one subdirectory per run; reused across restarts)")
	backend := flag.String("backend", "local", "execution backend: local, or remote@ADDR (a pifcoord coordinator)")
	parallel := flag.Int("parallel", 0, "local worker pool size per run (0 = GOMAXPROCS)")
	traceDir := flag.String("tracedir", "", "trace-store pool: spill generated retire streams under this directory and replay them across runs")
	maxAttempts := flag.Int("max-attempts", expsvc.DefaultMaxAttempts, "executions per run before restart recovery marks it failed")
	authToken := flag.String("auth-token", "", "bearer token required on every API request (also presented to the remote backend coordinator; empty = open API)")
	flag.Parse()

	svc, err := expsvc.New(expsvc.Config{
		DBDir:        *dbDir,
		Backend:      *backend,
		BackendToken: *authToken,
		Parallel:     *parallel,
		StoreDir:     *traceDir,
		MaxAttempts:  *maxAttempts,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "pifexpd: "+format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pifexpd:", err)
		os.Exit(1)
	}

	// Listen first, so the printed address is the bound one (-listen :0).
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pifexpd:", err)
		os.Exit(1)
	}
	handler := httpapi.RequireAuth(*authToken, expsvc.WireVersion, expsvc.NewServer(svc), "/v1/healthz")
	srv := &http.Server{Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		// Stop the executor first (a sweep in flight is canceled and its
		// record left running for the next incarnation's recovery), then
		// drain in-flight handlers.
		svc.Close()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()

	fmt.Fprintf(os.Stderr, "pifexpd: listening on %s (db %s, backend %s)\n", ln.Addr(), *dbDir, *backend)
	err = srv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		<-shutdownDone
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pifexpd:", err)
		os.Exit(1)
	}
}
