package sim

import (
	"context"
	"errors"
	"testing"

	"repro/internal/isa"
	"repro/internal/prefetch"
	"repro/internal/workload"
)

func jobConfig() Config {
	cfg := DefaultConfig()
	cfg.WarmupInstrs = 200_000
	cfg.MeasureInstrs = 200_000
	return cfg
}

func TestRunJobMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test skipped in -short mode")
	}
	cfg := jobConfig()
	wl := workload.DSSQry2()

	serial, err := Run(cfg, wl, prefetch.NewNextLine(4))
	if err != nil {
		t.Fatal(err)
	}
	viaJob, err := RunJob(context.Background(), Job{
		Config:   cfg,
		Workload: wl,
		Engine:   prefetch.Spec{Name: "nextline"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if serial != viaJob {
		t.Errorf("RunJob result differs from Run:\nRun:    %+v\nRunJob: %+v", serial, viaJob)
	}
}

func TestRunJobSharedProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test skipped in -short mode")
	}
	cfg := jobConfig()
	wl := workload.WebApache()
	prog, err := workload.BuildProgram(wl)
	if err != nil {
		t.Fatal(err)
	}
	own, err := RunJob(context.Background(), Job{
		Config:   cfg,
		Workload: wl,
		Engine:   prefetch.Spec{Name: "none"},
	})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := RunJob(context.Background(), Job{
		Config:   cfg,
		Workload: wl,
		Program:  prog,
		Engine:   prefetch.Spec{Name: "none"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if own != shared {
		t.Errorf("pre-built program changes result:\nbuilt: %+v\nshared: %+v", own, shared)
	}
}

func TestRunJobValidation(t *testing.T) {
	wl := workload.OLTPDB2()
	if _, err := RunJob(context.Background(), Job{Config: Config{}, Workload: wl}); err == nil {
		t.Error("zero measurement interval accepted")
	}
	cfg := jobConfig()
	if _, err := RunJob(context.Background(), Job{Config: cfg, Workload: wl}); err == nil {
		t.Error("nil prefetcher factory accepted")
	}
}

func TestRunJobCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := jobConfig()
	_, err := RunJob(ctx, Job{
		Config:   cfg,
		Workload: workload.OLTPDB2(),
		Engine:   prefetch.Spec{Name: "none"},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunJobCancelMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test skipped in -short mode")
	}
	// Cancel from within the measured interval via an observer; the
	// context is polled once per 4096-record batch.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := jobConfig()
	cfg.MeasureInstrs = 5_000_000
	fired := false
	_, err := RunJob(ctx, Job{
		Config:   cfg,
		Workload: workload.OLTPDB2(),
		Engine:   prefetch.Spec{Name: "none"},
		Observer: obsFunc(func() {
			if !fired {
				fired = true
				cancel()
			}
		}),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// obsFunc adapts a closure to the Observer interface.
type obsFunc func()

func (f obsFunc) OnCorrectFetch(_ isa.TrapLevel, _, _ bool) { f() }
