package expsvc

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/report"
)

// testRequest is a tiny two-cell sweep (one workload, two engines) small
// enough to execute in milliseconds but real enough to persist artifacts
// and per-job results.
func testRequest() Request {
	return Request{
		Name:          "svc",
		Axes:          []string{"workload=OLTP DB2", "engine=nextline,none"},
		Quick:         true,
		WarmupInstrs:  60_000,
		MeasureInstrs: 20_000,
	}
}

// waitTerminal polls one run until it reaches a terminal state.
func waitTerminal(t *testing.T, svc *Service, id string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := svc.Run(id)
		if err != nil {
			t.Fatalf("Run(%s): %v", id, err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck in state %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServiceLifecycle is the core submit→queued→running→done contract:
// a submitted sweep executes, its record walks the state machine, and the
// finished run directory is a complete report-store run (artifacts plus
// per-job results) that report.Load accepts.
func TestServiceLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("service tests run simulations; skipped in -short mode")
	}
	dir := t.TempDir()
	svc, err := New(Config{DBDir: dir, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	st, err := svc.Submit(testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued {
		t.Fatalf("submitted state = %s, want %s", st.State, StateQueued)
	}
	if st.ID == "" || !report.ValidArtifactID(st.ID) {
		t.Fatalf("submitted ID %q is not a valid store ID", st.ID)
	}

	fin := waitTerminal(t, svc, st.ID)
	if fin.State != StateDone {
		t.Fatalf("final state = %s (error %q), want %s", fin.State, fin.Error, StateDone)
	}
	if fin.TotalJobs != 2 {
		t.Errorf("TotalJobs = %d, want 2", fin.TotalJobs)
	}
	if fin.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1", fin.Attempts)
	}
	if fin.StartedAt == nil || fin.FinishedAt == nil {
		t.Errorf("timing not recorded: started %v finished %v", fin.StartedAt, fin.FinishedAt)
	}

	// The run directory is now a first-class corpus run.
	run, arts, err := report.Load(svc.db.Dir(st.ID))
	if err != nil {
		t.Fatalf("done run rejected by report.Load: %v", err)
	}
	if run.ID != st.ID {
		t.Errorf("stored run ID = %q, want %q", run.ID, st.ID)
	}
	if len(arts) != 1 || arts[0].ID != "svc" {
		t.Errorf("artifacts = %+v, want one %q", arts, "svc")
	}
	jobs, err := svc.Jobs(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Errorf("jobs = %d, want 2", len(jobs))
	}

	// The listing holds exactly this run, service-owned.
	sts, err := svc.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 1 || sts[0].ID != st.ID || sts[0].State != StateDone {
		t.Errorf("Runs() = %+v, want one done %s", sts, st.ID)
	}
}

// TestServiceStartedAtKept: the start time a running record shows is the
// one the finished record keeps, and it precedes the finish time (the
// finish must not overwrite the start).
func TestServiceStartedAtKept(t *testing.T) {
	if testing.Short() {
		t.Skip("service tests run simulations; skipped in -short mode")
	}
	started := make(chan time.Time, 1)
	var svc *Service
	svc, err := New(Config{
		DBDir:    t.TempDir(),
		Parallel: 2,
		hookRunning: func(id string) {
			st, err := svc.Run(id)
			if err != nil || st.StartedAt == nil {
				t.Errorf("running record %s: %v, started %v", id, err, st.StartedAt)
				close(started)
				return
			}
			started <- *st.StartedAt
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	st, err := svc.Submit(testRequest())
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, svc, st.ID)
	if fin.State != StateDone {
		t.Fatalf("final state = %s (error %q), want %s", fin.State, fin.Error, StateDone)
	}
	running, ok := <-started
	if !ok {
		t.FailNow()
	}
	if fin.StartedAt == nil || fin.FinishedAt == nil {
		t.Fatalf("timing not recorded: started %v finished %v", fin.StartedAt, fin.FinishedAt)
	}
	if !fin.StartedAt.Equal(running) {
		t.Errorf("finished record started at %v, running record at %v", *fin.StartedAt, running)
	}
	if !fin.StartedAt.Before(*fin.FinishedAt) {
		t.Errorf("started at %v, not before finished at %v", *fin.StartedAt, *fin.FinishedAt)
	}
}

// TestServiceSubmitValidation: malformed sweeps are refused at the API —
// before they ever occupy the queue — with the CLI's diagnostics.
func TestServiceSubmitValidation(t *testing.T) {
	svc, err := New(Config{DBDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	bad := []Request{
		{Name: "svc", Axes: []string{"workload=no-such-workload", "engine=none"}},
		{Name: "svc", Axes: []string{"bogus=1", "engine=none"}},
		{Name: "svc", Axes: []string{"workload=OLTP DB2", "engine=none"}, Shards: -1},
	}
	for _, req := range bad {
		if _, err := svc.Submit(req); err == nil {
			t.Errorf("Submit(%+v) accepted", req)
		}
	}
	recs, err := svc.db.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("rejected submissions persisted records: %+v", recs)
	}
}

// TestServiceCrashRestart is the crash-safety contract end to end: a
// service stopped at the exact instant a run's record has been persisted
// running (the crash shape — Close cancels the sweep and the record is
// never finalized) leaves a run directory that report.Load rejects; a new
// service on the same database requeues the interrupted run and completes
// it, after which the directory loads.
func TestServiceCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("service tests run simulations; skipped in -short mode")
	}
	dir := t.TempDir()
	entered := make(chan string, 1)
	release := make(chan struct{})
	svc, err := New(Config{
		DBDir:       dir,
		Parallel:    2,
		MaxAttempts: 2,
		hookRunning: func(id string) {
			entered <- id
			<-release
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	st, err := svc.Submit(testRequest())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("run never reached the running state")
	}
	// Close stops the service while the executor sits at the hook: cancel
	// first (so the sweep dies the moment the hook releases), then let the
	// hook return so Close's wait can finish.
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		svc.Close()
	}()
	close(release)
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close never returned")
	}

	// The crash shape on disk: record still running, attempt spent, and
	// the run directory is NOT a loadable results directory.
	db, err := OpenDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := db.LoadRecord(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateRunning {
		t.Fatalf("interrupted record state = %s, want %s", rec.State, StateRunning)
	}
	if rec.Attempts != 1 {
		t.Fatalf("interrupted record attempts = %d, want 1", rec.Attempts)
	}
	if _, _, err := report.Load(db.Dir(st.ID)); err == nil {
		t.Fatal("interrupted run directory passes report.Load; partial runs must be rejected")
	}

	// Restart on the same database: the run is requeued and completes.
	svc2, err := New(Config{DBDir: dir, Parallel: 2, MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	fin := waitTerminal(t, svc2, st.ID)
	if fin.State != StateDone {
		t.Fatalf("recovered run state = %s (error %q), want %s", fin.State, fin.Error, StateDone)
	}
	if fin.Attempts != 2 {
		t.Errorf("recovered run attempts = %d, want 2", fin.Attempts)
	}
	if _, _, err := report.Load(db.Dir(st.ID)); err != nil {
		t.Errorf("recovered run rejected by report.Load: %v", err)
	}
}

// TestServiceRecoveryGivesUp: an interrupted run whose attempt budget is
// already spent is marked failed at recovery, not requeued into a crash
// loop, and the failure is persisted.
func TestServiceRecoveryGivesUp(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{
		SchemaVersion: RecordSchemaVersion,
		ID:            "r20260807T000000-0001-aaaaaa",
		State:         StateRunning,
		Request:       testRequest(),
		CreatedAt:     time.Now().UTC(),
		Attempts:      2,
	}
	if err := db.SaveRecord(rec); err != nil {
		t.Fatal(err)
	}

	svc, err := New(Config{DBDir: dir, MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	st, err := svc.Run(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed {
		t.Fatalf("state = %s, want %s", st.State, StateFailed)
	}
	if !strings.Contains(st.Error, "giving up") {
		t.Errorf("error = %q, want the give-up diagnostic", st.Error)
	}
	onDisk, err := db.LoadRecord(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.State != StateFailed {
		t.Errorf("persisted state = %s, want %s", onDisk.State, StateFailed)
	}
}

// TestServiceRunsMergesStored: run directories written by other corpus
// tools (no exprun.json) appear in listings as the stored pseudo-state,
// and resolve individually the same way.
func TestServiceRunsMergesStored(t *testing.T) {
	dir := t.TempDir()
	store := report.Store{Root: dir}
	art, err := report.NewArtifact("a", "t", "body", nil)
	if err != nil {
		t.Fatal(err)
	}
	created := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	if err := store.Save(report.Run{ID: "external", CreatedAt: created}, []report.Artifact{art}); err != nil {
		t.Fatal(err)
	}

	svc, err := New(Config{DBDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sts, err := svc.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 1 || sts[0].ID != "external" || sts[0].State != StateStored {
		t.Fatalf("Runs() = %+v, want one stored external run", sts)
	}
	if !sts[0].CreatedAt.Equal(created) {
		t.Errorf("stored run CreatedAt = %v, want %v", sts[0].CreatedAt, created)
	}
	st, err := svc.Run("external")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateStored {
		t.Errorf("Run(external) state = %s, want %s", st.State, StateStored)
	}
	if _, err := svc.Run("absent"); err == nil {
		t.Error("Run(absent) resolved")
	}
}

// TestServiceRunMatchesRunSweep: a service run stores byte for byte the
// artifact and per-job files that experiments.RunSweep and SweepRun.Save
// store for the same request, the path `experiments sweep -out` takes.
func TestServiceRunMatchesRunSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("service tests run simulations; skipped in -short mode")
	}
	svc, err := New(Config{DBDir: t.TempDir(), Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	req := testRequest()
	st, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, svc, st.ID); fin.State != StateDone {
		t.Fatalf("final state = %s (error %q), want %s", fin.State, fin.Error, StateDone)
	}

	opts := experiments.PresetOptions(req.Quick, req.WarmupInstrs, req.MeasureInstrs)
	opts.Parallel = 2
	env := experiments.NewEnv(opts)
	spec, err := req.Spec(env)
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.RunSweep(env, spec)
	if err != nil {
		t.Fatal(err)
	}
	local := filepath.Join(t.TempDir(), "local")
	if err := res.Save(local, "local"); err != nil {
		t.Fatal(err)
	}

	// run.json differs by run ID and timings; every other file matches.
	files := func(dir string) map[string][]byte {
		out := map[string][]byte{}
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, _ := filepath.Rel(dir, path)
			if rel != "run.json" && rel != recordFile {
				out[rel], err = os.ReadFile(path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	got, want := files(svc.db.Dir(st.ID)), files(local)
	if len(want) != 3 { // the artifact and two job files
		t.Fatalf("local sweep stored %d files, want 3", len(want))
	}
	if !reflect.DeepEqual(got, want) {
		for name := range want {
			if !bytes.Equal(got[name], want[name]) {
				t.Errorf("%s differs between the service run and the local sweep", name)
			}
		}
		t.Errorf("service run stores %d files, local sweep %d", len(got), len(want))
	}
}

// TestServiceRecoversFullQueue: one service can leave queueCap runs
// queued and one running; a service reopened on that database starts
// without blocking, and requeues every run without failing any.
func TestServiceRecoversFullQueue(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	created := time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC)
	n := queueCap + 1
	for i := range n {
		rec := Record{
			SchemaVersion: RecordSchemaVersion,
			ID:            fmt.Sprintf("r20260807T000000-%04d-aaaaaa", i),
			State:         StateQueued,
			Request:       testRequest(),
			CreatedAt:     created.Add(time.Duration(i) * time.Second),
		}
		if i == 0 {
			rec.State, rec.Attempts = StateRunning, 1
		}
		if err := db.SaveRecord(rec); err != nil {
			t.Fatal(err)
		}
	}

	// Park the executor on the first run it takes, so every other run
	// stays queued while the test looks.
	entered := make(chan string, n)
	release := make(chan struct{})
	opened := make(chan *Service, 1)
	go func() {
		svc, err := New(Config{DBDir: dir, hookRunning: func(id string) {
			entered <- id
			<-release
		}})
		if err != nil {
			t.Error(err)
		}
		opened <- svc
	}()
	var svc *Service
	select {
	case svc = <-opened:
	case <-time.After(10 * time.Second):
		t.Fatalf("New still blocked after 10s with %d runs pending", n)
	}
	if svc == nil {
		t.FailNow()
	}
	defer func() {
		closed := make(chan struct{})
		go func() {
			defer close(closed)
			svc.Close()
		}()
		close(release)
		<-closed
	}()
	var running string
	select {
	case running = <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("executor never started a recovered run")
	}

	sts, err := svc.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != n {
		t.Fatalf("Runs() lists %d runs, want %d", len(sts), n)
	}
	for _, st := range sts {
		want := StateQueued
		if st.ID == running {
			want = StateRunning
		}
		if st.State != want {
			t.Errorf("run %s: state %s (error %q), want %s", st.ID, st.State, st.Error, want)
		}
	}
	if got := len(svc.queue); got != n-1 {
		t.Errorf("queue holds %d runs, want %d", got, n-1)
	}
}

// TestDBRecordRoundtrip pins the record file's integrity checks: schema
// version and declared-vs-directory ID mismatches are rejected, and the
// record never collides with report's run.json.
func TestDBRecordRoundtrip(t *testing.T) {
	db, err := OpenDB(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{ID: "r1", State: StateQueued, Request: testRequest(), CreatedAt: time.Now().UTC()}
	if err := db.SaveRecord(rec); err != nil {
		t.Fatal(err)
	}
	got, err := db.LoadRecord("r1")
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateQueued || got.Request.Name != "svc" {
		t.Errorf("roundtrip = %+v", got)
	}
	// A record alone must not make the directory a loadable results run.
	if _, _, err := report.Load(db.Dir("r1")); err == nil {
		t.Error("record-only directory passes report.Load")
	}
	if err := db.SaveRecord(Record{ID: "run dir", State: StateQueued}); err == nil {
		t.Error("invalid record ID accepted")
	}
	if _, err := db.LoadRecord("absent"); err == nil {
		t.Error("absent record loaded")
	}

	// Foreign schema versions are refused, not guessed at.
	rec2 := rec
	rec2.ID = "r2"
	if err := db.SaveRecord(rec2); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(db.Dir("r2"), recordFile)
	raw, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	mutated := strings.Replace(string(raw), `"schema_version": 1`, `"schema_version": 99`, 1)
	if mutated == string(raw) {
		t.Fatal("schema_version not found in record file")
	}
	if werr := report.AtomicWriteFile(path, []byte(mutated)); werr != nil {
		t.Fatal(werr)
	}
	if _, lerr := db.LoadRecord("r2"); lerr == nil {
		t.Error("foreign schema version accepted")
	}
}

// TestServiceClosedSubmit: submissions after shutdown are refused.
func TestServiceClosedSubmit(t *testing.T) {
	svc, err := New(Config{DBDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if _, err := svc.Submit(testRequest()); err == nil {
		t.Error("Submit on a closed service accepted")
	}
}

// TestServiceChanged: the generation channel closes on state mutations,
// so long-pollers wake without hot loops.
func TestServiceChanged(t *testing.T) {
	svc, err := New(Config{DBDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ch := svc.Changed()
	select {
	case <-ch:
		t.Fatal("generation channel closed with no mutation")
	default:
	}
	svc.bump()
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("generation channel did not close on bump")
	}
}
