package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/remote"
	"repro/internal/report"
	"repro/internal/sim"
)

// TestResultStoreSkipsFailedResults locks the salvage-store invariant:
// jobs/ holds only completed simulations. A failed task — a worker
// error, or the coordinator's max-attempts give-up whose Sim is
// zero-valued — must never be written where LoadJobResults would read
// it as a success; it lands in failed.jsonl instead.
func TestResultStoreSkipsFailedResults(t *testing.T) {
	dir := t.TempDir()
	s := newResultStore(dir)
	s.enqueue("run-a", remote.WireResult{V: remote.WireVersion, Label: "good", Sim: sim.Result{Instructions: 42}})
	s.enqueue("run-a", remote.WireResult{V: remote.WireVersion, Label: "bad", Err: "remote: task 2 (bad) lost its worker 3 times; giving up"})
	s.close()

	jobs, err := report.LoadJobResults(filepath.Join(dir, "run-a"))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Label != "good" {
		t.Fatalf("jobs/ holds %d results, want exactly the successful one: %+v", len(jobs), jobs)
	}
	b, err := os.ReadFile(filepath.Join(dir, "run-a", "failed.jsonl"))
	if err != nil {
		t.Fatalf("failure record: %v", err)
	}
	if !strings.Contains(string(b), "lost its worker") {
		t.Fatalf("failed.jsonl = %q, want the task's error text", b)
	}
}

// TestResultStoreEnqueueAfterClose guards the shutdown ordering: a
// handler completing inside the shutdown grace may call enqueue after
// the store closed; that must drop the result, not panic on a closed
// channel.
func TestResultStoreEnqueueAfterClose(t *testing.T) {
	s := newResultStore(t.TempDir())
	s.close()
	s.enqueue("run-a", remote.WireResult{V: remote.WireVersion, Label: "late"})
	s.close() // idempotent
}

// TestMain runs the command itself when TestListenPrintsBoundAddr
// re-executes the test binary with PIFCOORD_TEST_MAIN=1.
func TestMain(m *testing.M) {
	if os.Getenv("PIFCOORD_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestListenPrintsBoundAddr: started with -listen 127.0.0.1:0, the
// command prints the port the kernel chose, and the health check answers
// there.
func TestListenPrintsBoundAddr(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-listen", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), "PIFCOORD_TEST_MAIN=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(os.Interrupt)
		cmd.Wait()
	}()
	sc := bufio.NewScanner(stderr)
	var addr string
	for addr == "" && sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "pifcoord: listening on "); ok {
			addr, _, _ = strings.Cut(rest, " ")
		}
	}
	go io.Copy(io.Discard, stderr)
	if _, port, err := net.SplitHostPort(addr); err != nil || port == "0" {
		t.Fatalf("printed address %q (%v), want the bound port", addr, err)
	}
	resp, err := http.Get("http://" + addr + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/healthz at %s: %s", addr, resp.Status)
	}
}
