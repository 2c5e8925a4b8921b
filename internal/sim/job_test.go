package sim

import (
	"context"
	"errors"
	"testing"

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
	// Cancel from inside a live run via the engine instance; the
	// context is polled once per 4096-record batch. A block access
	// covers several instructions, so the cancel lands after the
	// warmup, inside the measured interval.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := jobConfig()
	cfg.MeasureInstrs = 5_000_000
	eng := &cancelEngine{after: cfg.WarmupInstrs, cancel: cancel}
	_, err := RunWith(ctx, Job{Config: cfg, Workload: workload.OLTPDB2()}, eng)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if eng.seen <= eng.after {
		t.Fatalf("engine saw %d accesses, cancel never fired", eng.seen)
	}
}

// cancelEngine is a no-prefetch engine that cancels its run once it has
// observed more than after demand accesses.
type cancelEngine struct {
	prefetch.None
	after, seen uint64
	cancel      context.CancelFunc
}

func (e *cancelEngine) OnAccess(prefetch.AccessEvent, prefetch.Issuer) {
	if e.seen++; e.seen == e.after+1 {
		e.cancel()
	}
}
