package workload

import (
	"errors"
	"io"
	"testing"

	"repro/internal/trace"
)

// TestIteratorMatchesRun asserts the pull-model iterator reproduces the
// push-model Run stream exactly, phase boundaries included: Iterator(a, b)
// must equal Run(a) followed by Run(b) on an identical executor (the
// warmup-then-measure call pattern the simulator uses), record for record.
func TestIteratorMatchesRun(t *testing.T) {
	prog, err := BuildProgram(OLTPDB2())
	if err != nil {
		t.Fatal(err)
	}
	const warmup, measure = 30_000, 20_000

	var want []trace.Record
	ex := NewExecutor(prog)
	ex.Run(warmup, func(r trace.Record) { want = append(want, r) })
	ex.Run(measure, func(r trace.Record) { want = append(want, r) })

	it := NewIterator(prog, warmup, measure)
	defer it.Close()
	got, err := trace.Collect(it)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("iterator emitted %d records, Run emitted %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if _, err := it.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("Next after exhaustion = %v, want EOF", err)
	}
}

// TestIteratorBatchParity asserts NextBatch yields the identical record
// sequence to Next on an identically seeded executor, for batch sizes
// below, at, and above the producer's internal batch, mixed with
// occasional per-record pulls.
func TestIteratorBatchParity(t *testing.T) {
	prog, err := BuildProgram(OLTPDB2())
	if err != nil {
		t.Fatal(err)
	}
	const warmup, measure = 30_000, 20_000
	want, err := trace.Collect(NewIterator(prog, warmup, measure))
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 7, iterBatch - 1, iterBatch, iterBatch + 1, 3 * iterBatch} {
		it := NewIterator(prog, warmup, measure)
		var got []trace.Record
		buf := make([]trace.Record, batch)
		for i := 0; ; i++ {
			if i%5 == 4 { // interleave a per-record pull
				r, err := it.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatalf("batch %d: Next: %v", batch, err)
				}
				got = append(got, r)
				continue
			}
			n, err := it.NextBatch(buf)
			got = append(got, buf[:n]...)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("batch %d: NextBatch: %v", batch, err)
			}
		}
		it.Close()
		if len(got) != len(want) {
			t.Fatalf("batch %d: %d records, want %d", batch, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch %d: record %d = %+v, want %+v", batch, i, got[i], want[i])
			}
		}
	}
}

// TestIteratorPhaseBoundaryMatters pins down why the iterator takes
// phases instead of one total: the executor starts a fresh transaction at
// each Run call, so a single-phase stream and a split-phase stream of the
// same total length diverge after the boundary. If this ever stops
// holding, the phases parameter can be dropped.
func TestIteratorPhaseBoundaryMatters(t *testing.T) {
	prog, err := BuildProgram(OLTPDB2())
	if err != nil {
		t.Fatal(err)
	}
	const a, b = 10_000, 10_000
	one, err := trace.Collect(NewIterator(prog, a+b))
	if err != nil {
		t.Fatal(err)
	}
	two, err := trace.Collect(NewIterator(prog, a, b))
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != len(two) {
		t.Fatalf("lengths differ: %d vs %d", len(one), len(two))
	}
	same := true
	for i := range one {
		if one[i] != two[i] {
			same = false
			break
		}
	}
	if same {
		t.Log("single-phase and split-phase streams agree for this profile; phases kept for contract")
	}
}

// TestIteratorClose asserts an abandoned iterator releases its producer
// without deadlocking, and that Close is idempotent.
func TestIteratorClose(t *testing.T) {
	prog, err := BuildProgram(OLTPDB2())
	if err != nil {
		t.Fatal(err)
	}
	it := NewIterator(prog, 50_000_000) // far more than we will pull
	for i := 0; i < 10; i++ {
		if _, err := it.Next(); err != nil {
			t.Fatalf("Next: %v", err)
		}
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := it.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestIteratorEmpty covers the zero-phase and zero-length cases.
func TestIteratorEmpty(t *testing.T) {
	prog, err := BuildProgram(OLTPDB2())
	if err != nil {
		t.Fatal(err)
	}
	it := NewIterator(prog)
	if _, err := it.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("no-phase iterator Next = %v, want EOF", err)
	}
	it.Close()
}

// TestIteratorRecyclesBatches asserts the iterator's batches are reused:
// draining a 1.6M-record stream allocates no more than draining a
// 100K-record one, within a small constant (a longer stream may fill
// every circulating batch), where a fresh batch per hand-off would cost
// about 180 more.
func TestIteratorRecyclesBatches(t *testing.T) {
	prog, err := BuildProgram(OLTPDB2())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]trace.Record, 4096)
	drain := func(n uint64) float64 {
		return testing.AllocsPerRun(1, func() {
			it := NewIterator(prog, n)
			defer it.Close()
			for {
				if _, err := it.NextBatch(buf); err != nil {
					if !errors.Is(err, io.EOF) {
						t.Fatal(err)
					}
					return
				}
			}
		})
	}
	short, long := drain(100_000), drain(1_600_000)
	t.Logf("allocations: %.0f for 100K records, %.0f for 1.6M", short, long)
	if long > short+8 {
		t.Errorf("draining 1.6M records made %.0f allocations, 100K made %.0f: batches are not recycled", long, short)
	}
}
