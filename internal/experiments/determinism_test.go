package experiments

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

// determinismOptions is a reduced-but-complete scale: every artifact runs
// with two workloads so the test stays fast under -race while still
// exercising cross-workload job interleaving.
func determinismOptions(parallel int) Options {
	opts := QuickOptions()
	opts.Workloads = workload.StandardSuite()[:2]
	// One workload for the sweep artifacts keeps the -race runtime sane
	// while still interleaving their grids with the figure jobs.
	opts.SweepWorkloads = workload.StandardSuite()[:1]
	opts.WarmupInstrs = 400_000
	opts.MeasureInstrs = 200_000
	opts.Parallel = parallel
	return opts
}

func renderAll(t *testing.T, parallel int) string {
	t.Helper()
	reports, err := RunAll(NewEnv(determinismOptions(parallel)))
	if err != nil {
		t.Fatalf("RunAll (parallel=%d): %v", parallel, err)
	}
	if len(reports) != len(IDs()) {
		t.Fatalf("RunAll (parallel=%d) = %d reports, want %d", parallel, len(reports), len(IDs()))
	}
	var b strings.Builder
	for _, rep := range reports {
		b.WriteString("== " + rep.ID + ": " + rep.Title + " ==\n")
		b.WriteString(rep.Text)
		b.WriteString("\n")
	}
	return b.String()
}

// TestParallelSerialDeterminism is the engine's acceptance criterion: a
// parallel (8-worker) regeneration of every artifact renders byte-identical
// to a serial (1-worker) regeneration. Run under -race this also proves
// the job fan-out and the Env caches are data-race free.
func TestParallelSerialDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism test skipped in -short mode")
	}
	serial := renderAll(t, 1)
	parallel := renderAll(t, 8)
	if serial != parallel {
		d := firstDiff(serial, parallel)
		t.Fatalf("parallel rendering differs from serial at byte %d:\nserial:   %.120q\nparallel: %.120q",
			d, tail(serial, d), tail(parallel, d))
	}
}

// TestStructuredReportDeterminism extends TestParallelSerialDeterminism to
// the structured path: two full RunAll passes — serial and 8-wide — must
// serialize every artifact to byte-identical canonical JSON, not just
// render identical text. (Byte-stability of full QuickOptions passes
// across processes is additionally pinned by the golden suite, which
// compares a fresh pass against committed fixtures.)
func TestStructuredReportDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism test skipped in -short mode")
	}
	encodeAll := func(parallel int) string {
		reports, err := RunAll(NewEnv(determinismOptions(parallel)))
		if err != nil {
			t.Fatalf("RunAll (parallel=%d): %v", parallel, err)
		}
		arts, err := Artifacts(reports)
		if err != nil {
			t.Fatalf("Artifacts (parallel=%d): %v", parallel, err)
		}
		var b strings.Builder
		for _, a := range arts {
			enc, err := a.Encode()
			if err != nil {
				t.Fatalf("encode %s: %v", a.ID, err)
			}
			if a.Data == nil {
				t.Fatalf("%s: artifact has no structured data", a.ID)
			}
			b.Write(enc)
		}
		return b.String()
	}
	serial := encodeAll(1)
	parallel := encodeAll(8)
	if serial != parallel {
		d := firstDiff(serial, parallel)
		t.Fatalf("structured JSON differs between serial and parallel runs at byte %d:\nserial:   %.120q\nparallel: %.120q",
			d, tail(serial, d), tail(parallel, d))
	}
}

func firstDiff(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func tail(s string, from int) string {
	if from >= len(s) {
		return ""
	}
	return s[from:]
}
