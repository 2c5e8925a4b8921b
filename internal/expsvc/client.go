package expsvc

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/httpapi"
	"repro/internal/report"
)

// statusPollMS is the long-poll wait WaitRun requests per status fetch.
const statusPollMS = 5000

// Client is the thin HTTP client of a pifexpd service — what the
// `experiments submit|status|diff -svc` CLI modes are built on.
type Client struct {
	base string
	hc   *http.Client
}

// DialService connects to a service at addr (host:port or
// http://host:port), verifying reachability and wire version via the
// health endpoint. token authenticates against a -auth-token protected
// service ("" for an open one).
func DialService(addr, token string) (*Client, error) {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimSuffix(base, "/")
	c := &Client{base: base, hc: httpapi.Client(token)}
	var health struct {
		V int `json:"v"`
	}
	if err := c.get(context.Background(), "/v1/healthz", &health); err != nil {
		return nil, fmt.Errorf("expsvc: dial %s: %w", addr, err)
	}
	if health.V != WireVersion {
		return nil, fmt.Errorf("expsvc: dial %s: service speaks wire version %d, want %d", addr, health.V, WireVersion)
	}
	return c, nil
}

func (c *Client) get(ctx context.Context, path string, resp any) error {
	return httpapi.Do(ctx, c.hc, http.MethodGet, c.base+path, nil, resp)
}

func (c *Client) post(ctx context.Context, path string, req, resp any) error {
	return httpapi.Do(ctx, c.hc, http.MethodPost, c.base+path, req, resp)
}

// Submit sends one sweep request; the returned status is the queued run.
func (c *Client) Submit(ctx context.Context, req Request) (Status, error) {
	var resp runResponse
	if err := c.post(ctx, "/v1/runs", submitRequest{V: WireVersion, Request: req}, &resp); err != nil {
		return Status{}, err
	}
	return resp.Run, nil
}

// Run fetches one run's status.
func (c *Client) Run(ctx context.Context, id string) (Status, error) {
	var resp runResponse
	if err := c.get(ctx, "/v1/runs/"+url.PathEscape(id), &resp); err != nil {
		return Status{}, err
	}
	return resp.Run, nil
}

// WaitRun long-polls one run until its state or progress moves past the
// given snapshot (or the server's poll window lapses) and returns the
// fresh status. onMove, when non-nil, is invoked with each fresh status;
// WaitRun returns once the run reaches a terminal state.
func (c *Client) WaitRun(ctx context.Context, id string, onMove func(Status)) (Status, error) {
	st, err := c.Run(ctx, id)
	if err != nil {
		return Status{}, err
	}
	for {
		if onMove != nil {
			onMove(st)
		}
		if st.State.Terminal() {
			return st, nil
		}
		var resp runResponse
		path := fmt.Sprintf("/v1/runs/%s?wait_ms=%d&state=%s&done=%d",
			url.PathEscape(id), statusPollMS, url.QueryEscape(string(st.State)), st.Done)
		if err := c.get(ctx, path, &resp); err != nil {
			return Status{}, err
		}
		st = resp.Run
	}
}

// Runs lists every run in the service's database.
func (c *Client) Runs(ctx context.Context) ([]Status, error) {
	var resp runsResponse
	if err := c.get(ctx, "/v1/runs", &resp); err != nil {
		return nil, err
	}
	return resp.Runs, nil
}

// Artifacts fetches a run's stored metadata and artifacts.
func (c *Client) Artifacts(ctx context.Context, id string) (report.Run, []report.Artifact, error) {
	var resp artifactsResponse
	if err := c.get(ctx, "/v1/runs/"+url.PathEscape(id)+"/artifacts", &resp); err != nil {
		return report.Run{}, nil, err
	}
	return resp.Run, resp.Artifacts, nil
}

// Jobs fetches a run's raw per-job results.
func (c *Client) Jobs(ctx context.Context, id string) ([]report.JobResult, error) {
	var resp jobsResponse
	if err := c.get(ctx, "/v1/runs/"+url.PathEscape(id)+"/jobs", &resp); err != nil {
		return nil, err
	}
	return resp.Jobs, nil
}
