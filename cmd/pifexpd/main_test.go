package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when TestListenPrintsBoundAddr
// re-executes the test binary with PIFEXPD_TEST_MAIN=1.
func TestMain(m *testing.M) {
	if os.Getenv("PIFEXPD_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestListenPrintsBoundAddr: started with -listen 127.0.0.1:0, the
// command prints the port the kernel chose, and the health check answers
// there.
func TestListenPrintsBoundAddr(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-listen", "127.0.0.1:0", "-db", t.TempDir())
	cmd.Env = append(os.Environ(), "PIFEXPD_TEST_MAIN=1")
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
		if rest, ok := strings.CutPrefix(sc.Text(), "pifexpd: listening on "); ok {
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
