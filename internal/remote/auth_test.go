package remote

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/runner"
	"repro/internal/runner/runnertest"
)

// TestAuthProtectedCoordinator covers the bearer-token deployment shape
// (pifcoord -auth-token): a tokenless or wrong-token client is refused
// with a 401 envelope, while a tokened backend plus a tokened worker run
// jobs through the protected stack end to end.
func TestAuthProtectedCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test runs real simulations")
	}
	const token = "sweep-fleet-secret"
	core := NewCore(CoreOptions{})
	defer core.Close()
	srv := httptest.NewServer(httpapi.RequireAuth(token, WireVersion, NewServer(core), "/v1/healthz"))
	defer srv.Close()

	// Tokenless and wrong-token dials die on the run-open request with the
	// 401 class, not a hang or a misparse.
	if _, err := DialAuth(srv.URL, ""); !httpapi.IsStatus(err, http.StatusUnauthorized) {
		t.Fatalf("tokenless Dial: err = %v, want 401", err)
	}
	if _, err := DialAuth(srv.URL, "wrong"); !httpapi.IsStatus(err, http.StatusUnauthorized) {
		t.Fatalf("wrong-token Dial: err = %v, want 401", err)
	}

	// A tokenless worker dies at registration with the same 401 class.
	ctxNoAuth, cancelNoAuth := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelNoAuth()
	bare := &Worker{Coord: srv.URL, Name: "bare", Parallel: 1}
	if err := bare.Run(ctxNoAuth); !httpapi.IsStatus(err, http.StatusUnauthorized) {
		t.Fatalf("tokenless worker Run: err = %v, want 401", err)
	}

	// The health endpoint stays open for probes.
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d, want 200", resp.StatusCode)
	}

	// Tokened stack: worker + backend complete real jobs.
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	w := &Worker{Coord: srv.URL, Name: "tokened", Parallel: 2, Token: token}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(wctx)
	}()
	defer func() { wcancel(); <-done }()

	b, err := DialAuth(srv.URL, token)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	jobs := runnertest.Jobs(t, 2)
	results, err := runner.RunOn(context.Background(), b, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("job %d (%s) failed through the protected stack: %v", i, r.Label, r.Err)
		}
	}
}
