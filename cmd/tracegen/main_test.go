package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// readStore returns every record of the store at dir.
func readStore(t *testing.T, dir string) trace.Stream {
	t.Helper()
	r, err := trace.OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore(%s): %v", dir, err)
	}
	defer r.Close()
	s, err := trace.Collect(r)
	if err != nil {
		t.Fatalf("Collect(%s): %v", dir, err)
	}
	return s
}

// TestDeriveRefusesItsInput asserts -source store|slice with -o naming
// the -i store (directly, with a trailing slash, or through a symlink)
// fails before the output store empties the directory it would read.
func TestDeriveRefusesItsInput(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "in.store")
	if err := generate("DSS Qry2", 0, 5000, dir, 1000); err != nil {
		t.Fatal(err)
	}
	want := readStore(t, dir)
	link := filepath.Join(base, "link.store")
	if err := os.Symlink(dir, link); err != nil {
		t.Fatal(err)
	}
	for _, source := range []string{"store", "slice@0:100"} {
		for _, out := range []string{dir, dir + "/", link} {
			if err := derive(source, dir, out, 0); err == nil {
				t.Errorf("derive(%s, -o %s) into its own input succeeded", source, out)
			}
			got := readStore(t, dir)
			if len(got) != len(want) {
				t.Fatalf("after derive(%s, -o %s): %d records, want %d", source, out, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("after derive(%s, -o %s): record %d = %+v, want %+v", source, out, i, got[i], want[i])
				}
			}
		}
	}
}

// TestGenerateDefaultChunks asserts live generation with -shard-records 0
// writes a store of trace.DefaultChunkRecords-record chunks holding
// exactly the executor's stream.
func TestGenerateDefaultChunks(t *testing.T) {
	const n = 5000
	dir := filepath.Join(t.TempDir(), "out.store")
	if err := generate("DSS Qry2", 0, n, dir, 0); err != nil {
		t.Fatal(err)
	}
	ix, err := trace.ReadIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ix.ChunkTarget != trace.DefaultChunkRecords {
		t.Errorf("ChunkTarget = %d, want %d", ix.ChunkTarget, trace.DefaultChunkRecords)
	}
	prog, err := workload.ProgramFor(workload.DSSQry2())
	if err != nil {
		t.Fatal(err)
	}
	it := workload.NewIterator(prog, n)
	defer it.Close()
	want, err := trace.Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	got := readStore(t, dir)
	if len(got) != len(want) {
		t.Fatalf("store holds %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
