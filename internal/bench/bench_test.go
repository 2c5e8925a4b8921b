package bench

import (
	"slices"
	"strings"
	"testing"
)

// smallConfig keeps the suite-under-test fast; the committed artifact's
// performance floors are asserted by CI on DefaultConfig, not here (tiny
// fixtures make thresholds flaky), so this test pins structure and the
// freshness comparison rules.
func smallConfig() Config {
	return Config{
		Workload:       "DSS Qry2",
		WarmupRecords:  10_000,
		MeasureRecords: 30_000,
		ChunkRecords:   4096,
		BatchRecords:   1024,
		Shards:         2,
	}
}

func TestRunArtifactStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real benchmark suite")
	}
	a, err := Run(smallConfig(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if a.Schema != SchemaVersion {
		t.Errorf("schema = %d, want %d", a.Schema, SchemaVersion)
	}
	want := []string{
		"engine/pif", "engine/tifs", "sim_live/none", "sim_live/row", "sim_live/separate", "sim_replay/pif",
		"sim_replay/pif_gomaxprocs_1", "sim_replay/store",
		"store_decode/batch", "store_decode/mmap", "store_decode/per_record",
		"sweep_cell/serial", "sweep_cell/sharded_2", "sweep_expand/cell", "workload/exec",
	}
	got := a.Names()
	if len(got) != len(want) {
		t.Fatalf("benchmarks = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("benchmarks = %v, want %v", got, want)
		}
	}
	for _, m := range a.Benchmarks {
		if m.NsPerOp <= 0 {
			t.Errorf("%s: ns/op = %f", m.Name, m.NsPerOp)
		}
		if strings.HasPrefix(m.Name, "store_decode/") || strings.HasPrefix(m.Name, "sim_replay/") {
			if m.RecordsPerSec <= 0 || m.MBPerSec <= 0 {
				t.Errorf("%s: throughput = %f records/s, %f MB/s, want > 0", m.Name, m.RecordsPerSec, m.MBPerSec)
			}
		}
	}
	// The isolated engine rows and the live rows count the fixture's
	// records but read no trace bytes.
	for _, name := range []string{"engine/pif", "engine/tifs", "sim_live/none", "sim_live/row", "sim_live/separate", "workload/exec"} {
		if m, ok := a.find(name); !ok || m.RecordsPerSec <= 0 || m.MBPerSec != 0 {
			t.Errorf("%s = %+v, want records/s > 0 and no MB/s", name, m)
		}
	}
	// sweep expansion is not measured in trace bytes.
	if m, ok := a.find("sweep_expand/cell"); !ok || m.MBPerSec != 0 {
		t.Errorf("sweep_expand/cell MB/s = %f, want 0", m.MBPerSec)
	}
	if a.Derived.BatchSpeedup <= 0 || a.Derived.MmapSpeedup <= 0 || a.Derived.SweepCellSpeedup <= 0 || a.Derived.RowSpeedup <= 0 || a.Derived.PipelineSpeedup <= 0 {
		t.Errorf("derived ratios = %+v, want > 0", a.Derived)
	}
	if a.Derived.PipelineSkipped != (a.GOMAXPROCS < PipelineFloorCPUs) {
		t.Errorf("pipeline ratio skipped = %v at GOMAXPROCS %d", a.Derived.PipelineSkipped, a.GOMAXPROCS)
	}
	// A simulation row runs its front half on a second goroutine; the
	// pinned pipeline row runs on one CPU.
	for name, want := range map[string]int{
		"sim_replay/pif": pipelined(1), "sim_replay/pif_gomaxprocs_1": 1, "sim_live/row": pipelined(1),
		"sweep_cell/sharded_2": pipelined(2), "engine/pif": 1, "store_decode/batch": 0,
	} {
		if m, _ := a.find(name); m.Parallelism != want {
			t.Errorf("%s parallelism = %d, want %d", name, m.Parallelism, want)
		}
	}
	if a.Config.ChunkSource != "mmap" && a.Config.ChunkSource != "readfile" {
		t.Errorf("chunk source = %q, want mmap or readfile", a.Config.ChunkSource)
	}

	// Freshness: identical structure passes; any structural drift fails.
	if err := CheckFresh(a, a); err != nil {
		t.Errorf("self-comparison: %v", err)
	}
	// The chunk-read path is machine state: a readfile-machine artifact
	// must still compare fresh against an mmap-machine regeneration.
	other := a
	other.Config.ChunkSource = "readfile"
	if err := CheckFresh(other, a); err != nil {
		t.Errorf("chunk-source difference treated as staleness: %v", err)
	}
	mutated := a
	mutated.Config.BatchRecords++
	if err := CheckFresh(mutated, a); err == nil {
		t.Error("config drift not detected")
	}
	mutated = a
	mutated.Schema++
	if err := CheckFresh(mutated, a); err == nil {
		t.Error("schema drift not detected")
	}
	mutated = a
	mutated.Benchmarks = append([]Measurement{}, a.Benchmarks[1:]...)
	if err := CheckFresh(mutated, a); err == nil {
		t.Error("benchmark-set drift not detected")
	}
}

func TestCheckInvariants(t *testing.T) {
	good := Artifact{
		Schema:     SchemaVersion,
		Config:     Config{ChunkSource: "mmap"},
		GOMAXPROCS: 4,
		Benchmarks: []Measurement{
			{Name: "store_decode/batch", AllocsPerRecord: 0.001},
			{Name: "store_decode/mmap", AllocsPerRecord: 0.001},
			{Name: "sim_replay/store", AllocsPerRecord: 0.01},
			{Name: "sim_replay/pif", AllocsPerRecord: 0.01},
			{Name: "sim_live/none", AllocsPerRecord: 0.01},
			{Name: "sim_live/row", AllocsPerRecord: 0.01},
			{Name: "workload/exec", AllocsPerRecord: 0.001},
			{Name: "engine/pif", AllocsPerRecord: 0.001},
			{Name: "engine/tifs", AllocsPerRecord: 0.001},
		},
		Derived: Derived{BatchSpeedup: 2.5, MmapSpeedup: 1.2, SweepCellSpeedup: 2.0, RowSpeedup: 1.4, PipelineSpeedup: 1.4},
	}
	if err := CheckInvariants(good); err != nil {
		t.Errorf("good artifact rejected: %v", err)
	}
	slow := good
	slow.Derived.BatchSpeedup = 1.4
	if err := CheckInvariants(slow); err == nil {
		t.Error("sub-2x batch speedup accepted")
	}
	slowRow := good
	slowRow.Derived.RowSpeedup = 1.0
	if err := CheckInvariants(slowRow); err == nil {
		t.Error("a row no faster than its separate jobs accepted")
	}
	// The pipeline floor binds only where a row's halves can overlap.
	slowPipe := good
	slowPipe.Derived.PipelineSpeedup = 1.05
	if err := CheckInvariants(slowPipe); err == nil {
		t.Error("sub-1.2x pipeline speedup accepted at 4 CPUs")
	}
	slowPipe.GOMAXPROCS, slowPipe.Derived.PipelineSkipped = 1, true
	if err := CheckInvariants(slowPipe); err != nil {
		t.Errorf("pipeline floor enforced on one CPU: %v", err)
	}
	// Every row under the allocation ceiling fails when it allocates.
	for _, name := range []string{"store_decode/batch", "store_decode/mmap", "sim_replay/store", "sim_replay/pif", "sim_live/none", "sim_live/row", "workload/exec", "engine/pif", "engine/tifs"} {
		leaky := good
		leaky.Benchmarks = slices.Clone(good.Benchmarks)
		for i := range leaky.Benchmarks {
			if leaky.Benchmarks[i].Name == name {
				leaky.Benchmarks[i].AllocsPerRecord = 0.2
			}
		}
		if err := CheckInvariants(leaky); err == nil {
			t.Errorf("%s allocating 0.2/record accepted", name)
		}
	}
	missing := good
	missing.Benchmarks = missing.Benchmarks[:1]
	if err := CheckInvariants(missing); err == nil {
		t.Error("missing benchmark accepted")
	}
	missing.Benchmarks = good.Benchmarks[:len(good.Benchmarks)-1]
	if err := CheckInvariants(missing); err == nil {
		t.Error("missing engine/tifs accepted")
	}

	// The mmap floor binds only where the mmap path actually served the
	// run: a regression on an mmap machine fails, a readfile machine
	// measuring the same path twice does not.
	slowMmap := good
	slowMmap.Derived.MmapSpeedup = 0.8
	if err := CheckInvariants(slowMmap); err == nil {
		t.Error("sub-1x mmap speedup accepted on an mmap machine")
	}
	slowMmap.Config.ChunkSource = "readfile"
	if err := CheckInvariants(slowMmap); err != nil {
		t.Errorf("mmap floor enforced on a readfile machine: %v", err)
	}

	// The sweep-cell floor binds only at 4+ CPUs, where the shard jobs
	// can actually overlap.
	slowCell := good
	slowCell.Derived.SweepCellSpeedup = 1.1
	if err := CheckInvariants(slowCell); err == nil {
		t.Error("sub-1.5x sweep-cell speedup accepted at 4 CPUs")
	}
	slowCell.GOMAXPROCS = 1
	if err := CheckInvariants(slowCell); err != nil {
		t.Errorf("sweep-cell floor enforced on one CPU: %v", err)
	}
}
