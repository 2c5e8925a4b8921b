package expsvc

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/httpapi"
	"repro/internal/report"
)

// Wire envelopes: one request/response pair per endpoint, all
// version-stamped JSON. Errors use the shared httpapi envelope.

type submitRequest struct {
	V       int     `json:"v"`
	Request Request `json:"request"`
}

type runResponse struct {
	V   int    `json:"v"`
	Run Status `json:"run"`
}

type runsResponse struct {
	V    int      `json:"v"`
	Runs []Status `json:"runs"`
}

type artifactsResponse struct {
	V         int               `json:"v"`
	Run       report.Run        `json:"run"`
	Artifacts []report.Artifact `json:"artifacts"`
}

type jobsResponse struct {
	V    int                `json:"v"`
	Jobs []report.JobResult `json:"jobs"`
}

type diffRequest struct {
	V int      `json:"v"`
	A DiffSide `json:"a"`
	B DiffSide `json:"b"`
	// Abs/Rel are the default per-metric tolerances (the CLI's
	// -abs/-rel flags).
	Abs float64 `json:"abs"`
	Rel float64 `json:"rel"`
}

type diffResponse struct {
	V      int               `json:"v"`
	Report report.DiffReport `json:"report"`
}

// Server is the thin HTTP translation over a Service: decode, delegate,
// encode. Long-polling a run's status is the only logic it owns, built
// on Service.Changed generations. Authentication is layered outside by
// the daemon (httpapi.RequireAuth), keeping this handler transport-pure.
type Server struct {
	svc *Service
	mux *http.ServeMux
}

// NewServer wraps a service in its HTTP API.
func NewServer(svc *Service) *Server {
	s := &Server{svc: svc, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/runs", s.handleRuns)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleRun)
	s.mux.HandleFunc("GET /v1/runs/{id}/artifacts", s.handleArtifacts)
	s.mux.HandleFunc("GET /v1/runs/{id}/jobs", s.handleJobs)
	s.mux.HandleFunc("POST /v1/diff", s.handleDiff)
	s.mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, map[string]int{"v": WireVersion})
	})
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeErr maps service errors onto the versioned error envelope:
// unknown runs and run directories without a run.json are 404 (the ID
// does not name a loadable run), everything else 400.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if errors.Is(err, errNoRun) || errors.Is(err, os.ErrNotExist) {
		status = http.StatusNotFound
	}
	httpapi.WriteError(w, WireVersion, status, err.Error())
}

// decode parses a request body, enforcing the wire version.
func decode[T any](r *http.Request, v *T, version func(T) int) error {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		return fmt.Errorf("expsvc: bad request body: %w", err)
	}
	if got := version(*v); got != WireVersion {
		return fmt.Errorf("expsvc: request has wire version %d, want %d", got, WireVersion)
	}
	return nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if err := decode(r, &req, func(q submitRequest) int { return q.V }); err != nil {
		writeErr(w, err)
		return
	}
	st, err := s.svc.Submit(req.Request)
	if err != nil {
		writeErr(w, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, runResponse{V: WireVersion, Run: st})
}

func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	sts, err := s.svc.Runs()
	if err != nil {
		writeErr(w, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, runsResponse{V: WireVersion, Runs: sts})
}

// handleRun returns one run's status. With wait_ms, the handler
// long-polls: it returns early only once the run's state differs from
// the caller's `state` or its progress from `done` — live progress
// streaming without hot polling.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	q := r.URL.Query()
	waitMS, _ := strconv.ParseInt(q.Get("wait_ms"), 10, 64)
	prevState := q.Get("state")
	prevDone, _ := strconv.Atoi(q.Get("done"))
	deadline := time.Now().Add(httpapi.ClampWait(waitMS))
	for {
		changed := s.svc.Changed()
		st, err := s.svc.Run(id)
		if err != nil {
			writeErr(w, err)
			return
		}
		moved := prevState == "" || string(st.State) != prevState || st.Done != prevDone
		if moved || time.Now().After(deadline) {
			httpapi.WriteJSON(w, http.StatusOK, runResponse{V: WireVersion, Run: st})
			return
		}
		if !httpapi.WaitChange(r, changed, deadline) {
			httpapi.WriteJSON(w, http.StatusOK, runResponse{V: WireVersion, Run: st})
			return
		}
	}
}

func (s *Server) handleArtifacts(w http.ResponseWriter, r *http.Request) {
	run, arts, err := s.svc.Artifacts(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, artifactsResponse{V: WireVersion, Run: run, Artifacts: arts})
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs, err := s.svc.Jobs(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, jobsResponse{V: WireVersion, Jobs: jobs})
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	var req diffRequest
	if err := decode(r, &req, func(q diffRequest) int { return q.V }); err != nil {
		writeErr(w, err)
		return
	}
	tol := report.Tolerances{Default: report.Tolerance{Abs: req.Abs, Rel: req.Rel}}
	rep, err := s.svc.Diff(req.A, req.B, tol)
	if err != nil {
		writeErr(w, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, diffResponse{V: WireVersion, Report: rep})
}
