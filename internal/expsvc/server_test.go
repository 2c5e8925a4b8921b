package expsvc

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/report"
)

// TestServerEndToEnd drives the full wire path — DialService, Submit,
// WaitRun's long-poll, Runs, Artifacts, Jobs — against a real
// service behind the token-auth middleware, exactly the daemon's stack.
func TestServerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("service tests run simulations; skipped in -short mode")
	}
	svc, err := New(Config{DBDir: t.TempDir(), Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	const token = "secret"
	ts := httptest.NewServer(httpapi.RequireAuth(token, WireVersion, NewServer(svc), "/v1/healthz"))
	defer ts.Close()

	// The health check is deliberately auth-exempt (liveness probes), so a
	// client with the wrong token dials fine — and is then refused with a
	// 401 envelope on its first real call, before any handler runs.
	badClient, err := DialService(ts.URL, "wrong")
	if err != nil {
		t.Fatalf("dial must succeed on the open health check: %v", err)
	}
	if _, err := badClient.Runs(context.Background()); !httpapi.IsStatus(err, http.StatusUnauthorized) {
		t.Fatalf("bad-token request: err = %v, want 401", err)
	}
	resp, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless request status = %d, want 401", resp.StatusCode)
	}

	client, err := DialService(ts.URL, token)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	st, err := client.Submit(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	var moves []State
	fin, err := client.WaitRun(ctx, st.ID, func(s Status) { moves = append(moves, s.State) })
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone {
		t.Fatalf("final state = %s (error %q), want %s", fin.State, fin.Error, StateDone)
	}
	if len(moves) == 0 || moves[len(moves)-1] != StateDone {
		t.Errorf("observed moves = %v, want a trail ending done", moves)
	}

	sts, err := client.Runs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 1 || sts[0].ID != st.ID {
		t.Fatalf("Runs() = %+v, want one %s", sts, st.ID)
	}
	run, arts, err := client.Artifacts(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if run.ID != st.ID || len(arts) != 1 {
		t.Errorf("Artifacts = run %q, %d artifact(s); want %q, 1", run.ID, len(arts), st.ID)
	}
	jobs, err := client.Jobs(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Errorf("Jobs = %d, want 2", len(jobs))
	}

	// What `experiments diff -svc` reads over the wire is what the run
	// directory holds, and an absent run is a 404 (its exit-2 error class).
	_, diskArts, err := report.Load(svc.db.Dir(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	diskJobs, err := report.LoadJobResults(svc.db.Dir(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(arts, diskArts) || !reflect.DeepEqual(jobs, diskJobs) {
		t.Errorf("served artifacts/jobs differ from the stored run")
	}
	_, _, err = client.Artifacts(ctx, "absent")
	if !httpapi.IsStatus(err, http.StatusNotFound) {
		t.Errorf("Artifacts(absent): err = %v, want 404", err)
	}
	_, err = client.Run(ctx, "absent")
	if !httpapi.IsStatus(err, http.StatusNotFound) {
		t.Errorf("Run(absent): err = %v, want 404", err)
	}
	if jobs, err := client.Jobs(ctx, "absent"); !httpapi.IsStatus(err, http.StatusNotFound) {
		t.Errorf("Jobs(absent) = %v, err = %v; want 404", jobs, err)
	}
}

// TestServerWireVersion: requests carrying a foreign wire version are
// refused, and DialService refuses a server speaking another version.
func TestServerWireVersion(t *testing.T) {
	svc, err := New(Config{DBDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	client, err := DialService(ts.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	var resp runResponse
	err = httpapi.Do(context.Background(), http.DefaultClient, http.MethodPost, ts.URL+"/v1/runs",
		submitRequest{V: WireVersion + 1, Request: testRequest()}, &resp)
	if !httpapi.IsStatus(err, http.StatusBadRequest) {
		t.Errorf("foreign wire version: err = %v, want 400", err)
	}
	_ = client

	wrong := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"v": 99}`))
	}))
	defer wrong.Close()
	if _, err := DialService(wrong.URL, ""); err == nil {
		t.Error("dial accepted a foreign wire version")
	}
}

// TestServerLongPollDeadline pins the long-poll cursor contract on a run
// that never moves: a poll whose state cursor already differs returns
// immediately, and a poll parked on the current state returns the
// unchanged status at its (clamped) deadline instead of hanging. The
// wake-on-transition path is covered end to end by WaitRun in
// TestServerEndToEnd, which follows a live run through queued → running
// → done.
func TestServerLongPollDeadline(t *testing.T) {
	dir := t.TempDir()
	store := report.Store{Root: dir}
	art, err := report.NewArtifact("a", "t", "b", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(report.Run{ID: "ext", CreatedAt: time.Now().UTC()}, []report.Artifact{art}); err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{DBDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	// Cursor mismatch: the run is stored, the caller claims queued — the
	// handler must answer without consuming the 10s window.
	start := time.Now()
	var resp runResponse
	if err := httpapi.Do(context.Background(), http.DefaultClient, http.MethodGet,
		ts.URL+"/v1/runs/ext?wait_ms=10000&state=queued&done=0", nil, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Run.State != StateStored {
		t.Fatalf("state = %s, want %s", resp.Run.State, StateStored)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("mismatched cursor waited %s; should answer immediately", elapsed)
	}

	// Cursor match: the poll parks and comes back at the deadline with the
	// unchanged status.
	start = time.Now()
	if err := httpapi.Do(context.Background(), http.DefaultClient, http.MethodGet,
		ts.URL+"/v1/runs/ext?wait_ms=200&state=stored&done=0", nil, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Run.State != StateStored {
		t.Fatalf("state = %s, want %s", resp.Run.State, StateStored)
	}
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Errorf("matched cursor answered in %s; should park until the deadline", elapsed)
	}
}

// TestServerSubmitErrorStatus: a refused submit is a 400 even when its
// error echoes user input that reads "no run"; 404 is kept for IDs that
// name no run.
func TestServerSubmitErrorStatus(t *testing.T) {
	svc, err := New(Config{DBDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	client, err := DialService(ts.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"bogus", "no run"} {
		req := testRequest()
		req.Axes = []string{"workload=" + wl}
		if _, err := client.Submit(context.Background(), req); !httpapi.IsStatus(err, http.StatusBadRequest) {
			t.Errorf("submit with workload %q: err = %v, want 400", wl, err)
		}
	}
}
