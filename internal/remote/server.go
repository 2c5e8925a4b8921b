package remote

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/httpapi"
)

// Wire envelopes: one request/response pair per endpoint. All are
// version-stamped JSON.

type openRunResponse struct {
	V     int    `json:"v"`
	RunID string `json:"run_id"`
}

type submitJobRequest struct {
	V     int     `json:"v"`
	Index int     `json:"index"`
	Spec  JobSpec `json:"spec"`
}

type resultsResponse struct {
	V       int          `json:"v"`
	Results []WireResult `json:"results"`
	Done    bool         `json:"done"`
}

type registerWorkerRequest struct {
	V    int    `json:"v"`
	Name string `json:"name"`
}

type registerWorkerResponse struct {
	V          int    `json:"v"`
	WorkerID   string `json:"worker_id"`
	LeaseTTLMS int64  `json:"lease_ttl_ms"`
}

type leaseRequest struct {
	V        int    `json:"v"`
	WorkerID string `json:"worker_id"`
	Max      int    `json:"max"`
	WaitMS   int64  `json:"wait_ms"`
}

type leaseResponse struct {
	V      int     `json:"v"`
	Leases []Lease `json:"leases"`
}

type heartbeatRequest struct {
	V        int    `json:"v"`
	WorkerID string `json:"worker_id"`
	TaskIDs  []int  `json:"task_ids"`
}

type heartbeatResponse struct {
	V    int   `json:"v"`
	Lost []int `json:"lost"`
}

type completeRequest struct {
	V        int        `json:"v"`
	WorkerID string     `json:"worker_id"`
	TaskID   int        `json:"task_id"`
	Result   WireResult `json:"result"`
}

type completeResponse struct {
	V        int  `json:"v"`
	Accepted bool `json:"accepted"`
}

type errorResponse struct {
	V     int    `json:"v"`
	Error string `json:"error"`
}

// Server is the thin HTTP translation over a coordinator Core: decode,
// delegate, encode. Long-polling (lease and results waits) is the only
// logic it owns, built on Core.Changed generations.
type Server struct {
	core *Core
	mux  *http.ServeMux
}

// NewServer wraps a core in its HTTP API.
func NewServer(core *Core) *Server {
	s := &Server{core: core, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/runs", s.handleOpenRun)
	s.mux.HandleFunc("POST /v1/runs/{id}/jobs", s.handleSubmitJob)
	s.mux.HandleFunc("POST /v1/runs/{id}/close", s.handleCloseRun)
	s.mux.HandleFunc("GET /v1/runs/{id}/results", s.handleResults)
	s.mux.HandleFunc("POST /v1/workers", s.handleRegisterWorker)
	s.mux.HandleFunc("POST /v1/lease", s.handleLease)
	s.mux.HandleFunc("POST /v1/heartbeat", s.handleHeartbeat)
	s.mux.HandleFunc("POST /v1/complete", s.handleComplete)
	s.mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, map[string]int{"v": WireVersion})
	})
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeErr maps core errors to HTTP statuses: ErrClosed -> 409 (the
// client Backend translates it to runner.ErrBackendClosed), unknown
// IDs -> 404, everything else -> 400.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrClosed):
		status = http.StatusConflict
	case errors.Is(err, ErrNoRun), errors.Is(err, ErrNoWorker):
		status = http.StatusNotFound
	}
	httpapi.WriteJSON(w, status, errorResponse{V: WireVersion, Error: err.Error()})
}

// decode parses a request body, enforcing the wire version.
func decode[T any](r *http.Request, v *T, version func(T) int) error {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		return fmt.Errorf("remote: bad request body: %w", err)
	}
	if got := version(*v); got != WireVersion {
		return fmt.Errorf("remote: request has wire version %d, want %d", got, WireVersion)
	}
	return nil
}

func (s *Server) handleOpenRun(w http.ResponseWriter, r *http.Request) {
	id, err := s.core.OpenRun()
	if err != nil {
		writeErr(w, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, openRunResponse{V: WireVersion, RunID: id})
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req submitJobRequest
	if err := decode(r, &req, func(q submitJobRequest) int { return q.V }); err != nil {
		writeErr(w, err)
		return
	}
	if err := s.core.SubmitJob(r.PathValue("id"), req.Index, req.Spec); err != nil {
		writeErr(w, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]int{"v": WireVersion})
}

func (s *Server) handleCloseRun(w http.ResponseWriter, r *http.Request) {
	if err := s.core.CloseRun(r.PathValue("id")); err != nil {
		writeErr(w, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]int{"v": WireVersion})
}

// handleResults streams the run's results from a cursor. With wait_ms,
// an empty batch long-polls for new completions (or run done) up to the
// wait, so the client backend sees results promptly without hot
// polling.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	runID := r.PathValue("id")
	q := r.URL.Query()
	cursor, _ := strconv.Atoi(q.Get("cursor"))
	waitMS, _ := strconv.ParseInt(q.Get("wait_ms"), 10, 64)
	deadline := time.Now().Add(httpapi.ClampWait(waitMS))
	for {
		changed := s.core.Changed()
		results, done, err := s.core.Results(runID, cursor)
		if err != nil {
			writeErr(w, err)
			return
		}
		if len(results) > 0 || done || time.Now().After(deadline) {
			httpapi.WriteJSON(w, http.StatusOK, resultsResponse{V: WireVersion, Results: results, Done: done})
			return
		}
		if !httpapi.WaitChange(r, changed, deadline) {
			httpapi.WriteJSON(w, http.StatusOK, resultsResponse{V: WireVersion, Results: nil, Done: false})
			return
		}
	}
}

func (s *Server) handleRegisterWorker(w http.ResponseWriter, r *http.Request) {
	var req registerWorkerRequest
	if err := decode(r, &req, func(q registerWorkerRequest) int { return q.V }); err != nil {
		writeErr(w, err)
		return
	}
	id, err := s.core.RegisterWorker(req.Name)
	if err != nil {
		writeErr(w, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, registerWorkerResponse{
		V:          WireVersion,
		WorkerID:   id,
		LeaseTTLMS: s.core.LeaseTTL().Milliseconds(),
	})
}

// handleLease hands pending tasks to a worker, long-polling while the
// queue is empty.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := decode(r, &req, func(q leaseRequest) int { return q.V }); err != nil {
		writeErr(w, err)
		return
	}
	deadline := time.Now().Add(httpapi.ClampWait(req.WaitMS))
	for {
		changed := s.core.Changed()
		leases, err := s.core.LeaseTasks(req.WorkerID, req.Max)
		if err != nil {
			writeErr(w, err)
			return
		}
		if len(leases) > 0 || time.Now().After(deadline) {
			httpapi.WriteJSON(w, http.StatusOK, leaseResponse{V: WireVersion, Leases: leases})
			return
		}
		if !httpapi.WaitChange(r, changed, deadline) {
			httpapi.WriteJSON(w, http.StatusOK, leaseResponse{V: WireVersion})
			return
		}
	}
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if err := decode(r, &req, func(q heartbeatRequest) int { return q.V }); err != nil {
		writeErr(w, err)
		return
	}
	lost, err := s.core.Heartbeat(req.WorkerID, req.TaskIDs)
	if err != nil {
		writeErr(w, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, heartbeatResponse{V: WireVersion, Lost: lost})
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if err := decode(r, &req, func(q completeRequest) int { return q.V }); err != nil {
		writeErr(w, err)
		return
	}
	accepted, err := s.core.Complete(req.WorkerID, req.TaskID, req.Result)
	if err != nil {
		writeErr(w, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, completeResponse{V: WireVersion, Accepted: accepted})
}
