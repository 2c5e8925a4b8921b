// Command pifcoord runs the remote-execution coordinator: an HTTP server
// that accepts job batches from clients (pifsim or experiments with
// -backend remote@ADDR), leases them to pifworker processes, re-queues
// work whose worker misses its heartbeat deadline, and streams completed
// results back to the submitting client.
//
// Usage:
//
//	pifcoord -listen :8077
//	pifcoord -listen :8077 -results results-remote -lease-ttl 15s -max-attempts 3
//	pifcoord -listen :8077 -auth-token SECRET
//
// With -results DIR every accepted result is additionally persisted as it
// lands, to DIR/<run-id>/jobs/<key>.json in the same schema-versioned,
// atomically-written format as the experiments CLI's per-job store: a
// coordinator killed mid-sweep leaves only complete job files behind. Keys
// are sequence-prefixed sanitized job labels, so files sort in completion
// order and never collide. Run IDs embed the coordinator's incarnation, so
// a restarted coordinator reusing DIR never overwrites a previous run's
// salvage data. Failed tasks — including the max-attempts give-up result —
// never land in jobs/ (a failure carries no simulation data and must not
// be salvageable as one); they are appended to DIR/<run-id>/failed.jsonl.
//
// The lease TTL is the failure detector: a worker that has not heartbeat
// for a full TTL forfeits its leases and the tasks (each a row of jobs,
// or one job) are re-queued whole, up to -max-attempts leases per task
// before every job of the task completes with a hard error result (never
// a silent zero-valued one).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/httpapi"
	"repro/internal/remote"
	"repro/internal/report"
)

func main() {
	listen := flag.String("listen", ":8077", "address to serve the coordinator API on")
	resultsDir := flag.String("results", "", "stream accepted results into DIR/<run-id>/jobs/<key>.json (empty = no persistence)")
	leaseTTL := flag.Duration("lease-ttl", remote.DefaultLeaseTTL, "heartbeat deadline; a worker silent this long forfeits its leases")
	maxAttempts := flag.Int("max-attempts", remote.DefaultMaxAttempts, "leases per task before it completes with a hard error")
	authToken := flag.String("auth-token", "", "bearer token required on every API request — clients and workers must present it (empty = open API)")
	flag.Parse()

	opts := remote.CoreOptions{LeaseTTL: *leaseTTL, MaxAttempts: *maxAttempts}
	var store *resultStore
	if *resultsDir != "" {
		store = newResultStore(*resultsDir)
		// OnResult runs under the coordinator lock: hand the write to the
		// store's goroutine instead of touching the disk there.
		opts.OnResult = store.enqueue
	}
	core := remote.NewCore(opts)

	// Listen first, so the printed address is the bound one (-listen :0).
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pifcoord:", err)
		os.Exit(1)
	}
	handler := httpapi.RequireAuth(*authToken, remote.WireVersion, remote.NewServer(core), "/v1/healthz")
	srv := &http.Server{Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		core.Close()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()

	fmt.Fprintf(os.Stderr, "pifcoord: listening on %s (lease ttl %s, max attempts %d)\n",
		ln.Addr(), *leaseTTL, *maxAttempts)
	err = srv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		// Serve returns as soon as Shutdown closes the listener;
		// in-flight handlers (which may still enqueue results) run until
		// Shutdown returns. Only then is it safe to close the store.
		<-shutdownDone
	}
	if store != nil {
		store.close()
	}
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "pifcoord:", err)
		os.Exit(1)
	}
}

// resultStore persists accepted results off the coordinator's lock: the
// core's OnResult callback enqueues, a single goroutine writes.
type resultStore struct {
	dir string
	ch  chan storedResult
	wg  sync.WaitGroup

	mu     sync.Mutex
	closed bool
	seq    map[string]int // per-run completion sequence, prefixes keys
}

type storedResult struct {
	runID string
	res   remote.WireResult
}

func newResultStore(dir string) *resultStore {
	s := &resultStore{dir: dir, ch: make(chan storedResult, 256), seq: make(map[string]int)}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for sr := range s.ch {
			if err := s.write(sr); err != nil {
				fmt.Fprintln(os.Stderr, "pifcoord: persist result:", err)
			}
		}
	}()
	return s
}

func (s *resultStore) enqueue(runID string, res remote.WireResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		// A handler outliving the shutdown grace: drop rather than send
		// on the closed channel (the client still got the result).
		return
	}
	select {
	case s.ch <- storedResult{runID: runID, res: res}:
	default:
		// Never block the coordinator lock on a full queue; drop with a
		// note (the client still receives the result over the API).
		fmt.Fprintf(os.Stderr, "pifcoord: persist queue full, dropping %s result %q\n", runID, res.Label)
	}
}

func (s *resultStore) close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.ch)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *resultStore) write(sr storedResult) error {
	if sr.res.Err != "" {
		// A failed task — worker error or the coordinator's max-attempts
		// give-up — carries no simulation data. It must never appear in
		// jobs/, where LoadJobResults would read its zero-valued Sim as a
		// completed simulation; record it beside the salvage data instead.
		return s.writeFailure(sr)
	}
	s.mu.Lock()
	s.seq[sr.runID]++
	n := s.seq[sr.runID]
	s.mu.Unlock()
	key := fmt.Sprintf("r%04d-%s", n, jobKeyStem(sr.res.Label))
	j, err := report.NewJobResult(key, sr.res.Label, nil, sr.res.Sim)
	if err != nil {
		return err
	}
	dir := report.JobsDir(filepath.Join(s.dir, sr.runID))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return report.WriteJobResult(filepath.Join(dir, key+".json"), j)
}

// writeFailure appends a failed task's wire result as one JSON line to
// the run's failed.jsonl — outside jobs/, so per-job loaders can never
// mistake it for a completed simulation.
func (s *resultStore) writeFailure(sr storedResult) error {
	runDir := filepath.Join(s.dir, sr.runID)
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(sr.res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(runDir, "failed.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(line, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// jobKeyStem sanitizes a job label into the key charset accepted by
// report.ValidJobKey (alphanumerics plus '.', '_', '-'), truncated so the
// sequence prefix keeps the whole key under the 160-byte limit.
func jobKeyStem(label string) string {
	const maxStem = 120
	b := make([]byte, 0, len(label))
	for i := 0; i < len(label) && len(b) < maxStem; i++ {
		c := label[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			b = append(b, c)
		case c == '.' || c == '_' || c == '-':
			b = append(b, c)
		default:
			b = append(b, '_')
		}
	}
	if len(b) == 0 {
		return "job"
	}
	return string(b)
}
