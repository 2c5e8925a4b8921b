package sim

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/prefetch"
	"repro/internal/trace"
	"repro/internal/workload"
)

// rowConfig is a short run with a second L1-I geometry in reach: the
// row tests vary only back-half settings on top of it.
func rowConfig() Config {
	cfg := replayConfig()
	cfg.WarmupInstrs, cfg.MeasureInstrs = 60_000, 40_000
	return cfg
}

// checkRow runs jobs as one row and each job on its own, and requires
// equal results.
func checkRow(t *testing.T, name string, jobs []Job) {
	t.Helper()
	rows, errs := RunRow(context.Background(), jobs)
	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatalf("%s: row member %d (%s): %v", name, i, j.Engine.Name, errs[i])
		}
		want, err := RunJob(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		if rows[i] != want {
			t.Errorf("%s, %s (perfect %v, L1 %d B):\n row  %+v\n want %+v",
				name, j.Engine.Name, j.Config.PerfectL1, j.Config.System.L1ISizeBytes, rows[i], want)
		}
	}
}

// TestRowMatchesJobs: a row's results equal its jobs' separate RunJob
// results for every registered engine, executed live and replayed from a
// store, with and without a measure offset. Each row holds every engine
// at the default L1-I, at a quarter-size L1-I and with a perfect L1, so
// back halves of different geometry share one front end.
func TestRowMatchesJobs(t *testing.T) {
	wl := workload.OLTPDB2()
	prog, err := workload.BuildProgram(wl)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	recordStore(t, dir, wl, rowConfig(), 1<<14)

	for _, offset := range []uint64{0, 25_000} {
		for _, src := range []Source{nil, StoreSource(dir)} {
			base := rowConfig()
			if offset > 0 {
				// The store holds warmup+measure records; the offset
				// comes out of the measured interval.
				base.MeasureOffsetInstrs = offset
				base.MeasureInstrs -= offset
			}
			small, perfect := base, base
			small.System.L1ISizeBytes /= 4
			perfect.PerfectL1 = true
			var jobs []Job
			for _, e := range prefetch.Names() {
				for _, cfg := range []Config{base, small, perfect} {
					jobs = append(jobs, Job{Config: cfg, Workload: wl, Program: prog, From: src, Engine: prefetch.Spec{Name: e}})
				}
			}
			name := "live"
			if src != nil {
				name = "store"
			}
			checkRow(t, fmt.Sprintf("%s, offset %d", name, offset), jobs)
		}
	}
}

// TestRowMemberFailsAlone: a row member whose engine spec does not
// resolve fails alone, and the other members still match their own runs.
func TestRowMemberFailsAlone(t *testing.T) {
	wl := workload.DSSQry2()
	cfg := rowConfig()
	jobs := []Job{
		{Config: cfg, Workload: wl, Engine: prefetch.Spec{Name: "nextline"}},
		{Config: cfg, Workload: wl, Engine: prefetch.Spec{Name: "dropout"}},
		{Config: cfg, Workload: wl, Engine: prefetch.Spec{Name: "pif", Params: map[string]float64{"bogus": 1}}},
		{Config: cfg, Workload: wl, Engine: prefetch.Spec{Name: "none"}},
	}
	rows, errs := RunRow(context.Background(), jobs)
	if errs[1] == nil || errs[2] == nil {
		t.Fatalf("bad engine specs accepted: %v, %v", errs[1], errs[2])
	}
	for _, i := range []int{0, 3} {
		want, err := RunJob(context.Background(), jobs[i])
		if err != nil {
			t.Fatal(err)
		}
		if errs[i] != nil || rows[i] != want {
			t.Errorf("member %d: %v\n row  %+v\n want %+v", i, errs[i], rows[i], want)
		}
	}
}

// TestRowRejectsMixedFronts: a row whose jobs differ in a front-half
// field fails every member instead of feeding one of them a front end
// it does not own.
func TestRowRejectsMixedFronts(t *testing.T) {
	wl := workload.DSSQry2()
	cfg := rowConfig()
	for name, mod := range map[string]func(j *Job){
		"seed":      func(j *Job) { j.Workload.Seed++ },
		"warmup":    func(j *Job) { j.Config.WarmupInstrs++ },
		"predictor": func(j *Job) { j.Config.System.Predictor.BTBEntries *= 2 },
		"wrongpath": func(j *Job) { j.Config.System.MaxWrongPathBlocks++ },
		"source":    func(j *Job) { j.From = StoreSource("x") },
	} {
		jobs := []Job{
			{Config: cfg, Workload: wl, Engine: prefetch.Spec{Name: "none"}},
			{Config: cfg, Workload: wl, Engine: prefetch.Spec{Name: "nextline"}},
		}
		mod(&jobs[1])
		if SameFront(jobs[0], jobs[1]) {
			t.Errorf("%s: SameFront holds", name)
		}
		_, errs := RunRow(context.Background(), jobs)
		for i, err := range errs {
			if err == nil || !strings.Contains(err.Error(), "mixes front halves") {
				t.Errorf("%s: member %d: err = %v, want a mixed-row error", name, i, err)
			}
		}
	}
}

// TestSameFront: back-half settings never split a row, equal source
// specs share one, and a source with no spec shares none — not even
// with itself.
func TestSameFront(t *testing.T) {
	wl := workload.DSSQry2()
	a := Job{Config: rowConfig(), Workload: wl, Engine: prefetch.Spec{Name: "none"}}
	b := a
	b.Engine = prefetch.Spec{Name: "pif", Params: map[string]float64{"history": 1024}}
	b.Config.PerfectL1 = true
	b.Config.System.L1ISizeBytes /= 2
	b.Config.System.CtxSwitchEveryInstrs = 1000
	b.Config.System.MemAccessNanos *= 2
	if !SameFront(a, b) {
		t.Error("jobs differing only in back-half settings do not share a front")
	}
	a.From, b.From = SliceSource("s", trace.Window{Len: 10}), SliceSource("s", trace.Window{Len: 10})
	if !SameFront(a, b) {
		t.Error("equal slice sources do not share a front")
	}
	b.From = SliceSource("s", trace.Window{Off: 10, Len: 10})
	if SameFront(a, b) {
		t.Error("different windows share a front")
	}
	opaque := openerSource(nil)
	a.From, b.From = opaque, opaque
	if SameFront(a, b) {
		t.Error("opaque sources share a front")
	}
}

// TestRowCanceled: a canceled row fails every member with the context's
// error.
func TestRowCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := rowConfig()
	wl := workload.DSSQry2()
	_, errs := RunRow(ctx, []Job{
		{Config: cfg, Workload: wl, Engine: prefetch.Spec{Name: "none"}},
		{Config: cfg, Workload: wl, Engine: prefetch.Spec{Name: "tifs"}},
	})
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("member %d: err = %v, want context.Canceled", i, err)
		}
	}
}
