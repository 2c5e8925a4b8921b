package remote

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
	"repro/internal/runner"
)

// resultsPollMS is the long-poll wait the client backend requests per
// results fetch.
const resultsPollMS = 1000

// Backend is the client half of the remote backend: a runner.Backend
// whose Submit serializes jobs to the coordinator and whose Results
// channel is fed by a poller streaming the run's completions. One
// Backend drives one coordinator run for its whole lifetime; like
// LocalBackend it serves sequential RunOn batches and closes its result
// stream at Close.
type Backend struct {
	base  string
	hc    *http.Client
	runID string
	width atomic.Int64 // live worker slots, as of the run's opening or latest results poll

	results chan runner.Result
	stop    chan struct{} // closed by Close: poller exits after drain

	mu     sync.Mutex
	closed bool
	once   sync.Once
}

// DialAuth connects to a coordinator at addr (host:port or
// http://host:port) and opens a run on it; the returned Backend is ready
// for RunOn. With a token, every request carries it as a bearer token
// (pifcoord -auth-token); an empty token dials an open coordinator.
func DialAuth(addr, token string) (*Backend, error) {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimSuffix(base, "/")
	b := &Backend{
		base:    base,
		hc:      httpapi.Client(token),
		results: make(chan runner.Result, 64),
		stop:    make(chan struct{}),
	}
	var resp openRunResponse
	if err := b.post(context.Background(), "/v1/runs", struct {
		V int `json:"v"`
	}{WireVersion}, &resp); err != nil {
		return nil, fmt.Errorf("remote: dial %s: %w", addr, err)
	}
	b.runID = resp.RunID
	b.width.Store(int64(max(resp.Slots, 1)))
	go b.poll()
	return b, nil
}

// DialSpec resolves a -backend spec: "" and "local" return a nil
// Backend (the caller runs in process, sizing its own
// runner.NewLocalBackend where it needs one), and "remote@ADDR" dials
// the coordinator at ADDR with the bearer token (empty for an open
// coordinator). The caller must Close a non-nil backend.
func DialSpec(spec, token string) (runner.Backend, error) {
	switch {
	case spec == "" || spec == "local":
		return nil, nil
	case strings.HasPrefix(spec, "remote@"):
		addr := strings.TrimPrefix(spec, "remote@")
		if addr == "" {
			return nil, fmt.Errorf("remote: backend remote@ADDR needs a coordinator address")
		}
		b, err := DialAuth(addr, token)
		if err != nil {
			// Return a nil interface, never a typed nil *Backend.
			return nil, err
		}
		return b, nil
	default:
		return nil, fmt.Errorf("remote: unknown backend %q (have local, remote@ADDR)", spec)
	}
}

// post sends one JSON request and decodes the JSON response. A 409
// (coordinator or run closed) maps to runner.ErrBackendClosed.
func (b *Backend) post(ctx context.Context, path string, req, resp any) error {
	return httpJSON(ctx, b.hc, http.MethodPost, b.base+path, req, resp)
}

// httpJSON is the shared request helper for backend and worker:
// httpapi.Do, with a 409 (coordinator or run closed) mapped to
// runner.ErrBackendClosed.
func httpJSON(ctx context.Context, hc *http.Client, method, url string, req, resp any) error {
	err := httpapi.Do(ctx, hc, method, url, req, resp)
	var se *httpapi.StatusError
	if errors.As(err, &se) && se.Status == http.StatusConflict {
		return fmt.Errorf("%w (coordinator: %s)", runner.ErrBackendClosed, se.Msg)
	}
	return err
}

// Submit implements runner.Backend: encode the unit's jobs, ship them as
// one task. A closed backend (local Close or coordinator refusal)
// returns runner.ErrBackendClosed.
func (b *Backend) Submit(ctx context.Context, idx []int, jobs []runner.Job) error {
	if ctx == nil {
		ctx = context.Background()
	}
	b.mu.Lock()
	closed := b.closed
	b.mu.Unlock()
	if closed {
		return runner.ErrBackendClosed
	}
	specs := make([]JobSpec, len(jobs))
	for k, j := range jobs {
		var err error
		if specs[k], err = EncodeJob(j); err != nil {
			return err
		}
	}
	return b.post(ctx, "/v1/runs/"+b.runID+"/jobs", submitUnitRequest{V: WireVersion, Indices: idx, Specs: specs}, nil)
}

// Width implements runner.Backend: the coordinator's live worker slots
// (Core.Slots) as of the run's opening or its latest results poll.
func (b *Backend) Width() int { return int(b.width.Load()) }

// Results implements runner.Backend.
func (b *Backend) Results() <-chan runner.Result { return b.results }

// Close implements runner.Backend: the coordinator run is closed (no
// more submissions), and the Results channel closes once every
// submitted job's result has been delivered.
func (b *Backend) Close() error {
	b.once.Do(func() {
		b.mu.Lock()
		b.closed = true
		b.mu.Unlock()
		// Best effort: if the coordinator is gone the poller will fail
		// out and close the stream anyway.
		_ = b.post(context.Background(), "/v1/runs/"+b.runID+"/close", struct {
			V int `json:"v"`
		}{WireVersion}, nil)
		close(b.stop)
	})
	return nil
}

// poll streams the run's results into the channel. It exits — closing
// the results channel — when the run reports done (all submitted jobs
// completed after Close) or the coordinator becomes unreachable after
// Close.
func (b *Backend) poll() {
	defer close(b.results)
	cursor := 0
	for {
		var resp resultsResponse
		url := fmt.Sprintf("%s/v1/runs/%s/results?cursor=%d&wait_ms=%d", b.base, b.runID, cursor, resultsPollMS)
		err := httpJSON(context.Background(), b.hc, http.MethodGet, url, nil, &resp)
		if err != nil {
			if httpapi.IsStatus(err, http.StatusNotFound) {
				// The run is gone: a restarted coordinator lost it. No
				// result can ever arrive; close the stream so RunOn
				// reports the mid-run loss instead of polling forever.
				return
			}
			// Transient coordinator trouble: keep polling while the
			// backend is open; after Close, give up — the consumer is
			// draining toward channel close.
			select {
			case <-b.stop:
				return
			case <-time.After(100 * time.Millisecond):
				continue
			}
		}
		b.width.Store(int64(max(resp.Slots, 1)))
		for _, wr := range resp.Results {
			res, rerr := wr.Result()
			if rerr != nil {
				res = runner.Result{Index: wr.Index, Label: wr.Label, Err: rerr}
			}
			b.results <- res
		}
		cursor += len(resp.Results)
		if resp.Done {
			return
		}
	}
}
