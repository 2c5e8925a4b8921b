package sim

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/prefetch"
	"repro/internal/trace"
	"repro/internal/workload"
)

// waitGoroutines fails unless the goroutine count falls back to base
// within a few seconds: a row's front half must not outlive RunRow.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the row returned, %d before:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}

// countingIter counts the records a store reader delivers and runs hook,
// when set, after each batch.
type countingIter struct {
	*trace.StoreReader
	n    *uint64
	hook func(n uint64)
}

func (c countingIter) NextBatch(dst []trace.Record) (int, error) {
	k, err := c.StoreReader.NextBatch(dst)
	*c.n += uint64(k)
	if c.hook != nil {
		c.hook(*c.n)
	}
	return k, err
}

// pipelineJobs is a row of two engines over src (live when nil).
func pipelineJobs(cfg Config, wl workload.Profile, src Source) []Job {
	return []Job{
		{Config: cfg, Workload: wl, From: src, Engine: prefetch.Spec{Name: "nextline"}},
		{Config: cfg, Workload: wl, From: src, Engine: prefetch.Spec{Name: "pif"}},
	}
}

// TestPipelineCancelMidRow: a row canceled while its front half is
// mid-stream fails every member with the context's error, and its
// producer goroutine is gone once RunRow returns. The replay row cancels
// from its source at a fixed record; the live row runs far longer than
// the timer that cancels it.
func TestPipelineCancelMidRow(t *testing.T) {
	wl := workload.DSSQry2()
	cfg := rowConfig()
	dir := filepath.Join(t.TempDir(), "store")
	recordStore(t, dir, wl, cfg, 1<<12)

	t.Run("replay", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var n uint64
		src := openerSource(func() (trace.BatchIterator, error) {
			r, err := trace.OpenStore(dir)
			return countingIter{StoreReader: r, n: &n, hook: func(n uint64) {
				if n >= 30_000 {
					cancel()
				}
			}}, err
		})
		base := runtime.NumGoroutine()
		_, errs := RunRow(ctx, pipelineJobs(cfg, wl, src))
		waitGoroutines(t, base)
		for i, err := range errs {
			if !errors.Is(err, context.Canceled) {
				t.Errorf("member %d: err = %v, want context.Canceled", i, err)
			}
		}
		if n >= cfg.WarmupInstrs+cfg.MeasureInstrs {
			t.Errorf("the source delivered all %d records after the cancel", n)
		}
	})

	t.Run("live", func(t *testing.T) {
		long := cfg
		long.MeasureInstrs = 1 << 40
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		base := runtime.NumGoroutine()
		stop := time.AfterFunc(20*time.Millisecond, cancel)
		_, errs := RunRow(ctx, pipelineJobs(long, wl, nil))
		stop.Stop()
		waitGoroutines(t, base)
		for i, err := range errs {
			if !errors.Is(err, context.Canceled) {
				t.Errorf("member %d: err = %v, want context.Canceled", i, err)
			}
		}
	})
}

// TestPipelineSourceFailsMidStream: a store whose chunk is emptied after
// it opened fails the row with the store's error once the front half
// reaches that chunk — after exactly the records before it, as a row
// stepped on one goroutine failed — and leaves no goroutine behind.
func TestPipelineSourceFailsMidStream(t *testing.T) {
	wl := workload.DSSQry2()
	cfg := rowConfig()
	dir := filepath.Join(t.TempDir(), "store")
	const chunk, bad = 1 << 12, 10
	recordStore(t, dir, wl, cfg, chunk)
	var names []string
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != trace.IndexName {
			names = append(names, e.Name())
		}
	}
	slices.Sort(names)

	var n uint64
	src := openerSource(func() (trace.BatchIterator, error) {
		r, err := trace.OpenStore(dir)
		if err != nil {
			return nil, err
		}
		if err := os.Truncate(filepath.Join(dir, names[bad]), 0); err != nil {
			r.Close()
			return nil, err
		}
		return countingIter{StoreReader: r, n: &n}, nil
	})
	base := runtime.NumGoroutine()
	_, errs := RunRow(context.Background(), pipelineJobs(cfg, wl, src))
	waitGoroutines(t, base)
	const want = `sim: trace source for "DSS Qry2": trace: read chunk 10 header: unexpected EOF`
	for i, err := range errs {
		if err == nil || err.Error() != want {
			t.Errorf("member %d: err = %v, want %s", i, err, want)
		}
	}
	if n != bad*chunk {
		t.Errorf("the source failed after %d records, want %d", n, bad*chunk)
	}
}

// TestPipelineFailedEnginesStartNothing: a row whose every engine spec
// fails to resolve never starts its front half.
func TestPipelineFailedEnginesStartNothing(t *testing.T) {
	cfg := rowConfig()
	wl := workload.DSSQry2()
	base := runtime.NumGoroutine()
	_, errs := RunRow(context.Background(), []Job{
		{Config: cfg, Workload: wl, Engine: prefetch.Spec{Name: "dropout"}},
		{Config: cfg, Workload: wl, Engine: prefetch.Spec{Name: "pif", Params: map[string]float64{"bogus": 1}}},
	})
	waitGoroutines(t, base)
	for i, err := range errs {
		if err == nil {
			t.Errorf("member %d: bad engine spec accepted", i)
		}
	}
}
