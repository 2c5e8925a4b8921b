// Command tracegen generates a workload's retire-order instruction trace
// and writes it as a sharded trace store, so analyses can replay a trace
// many times without regenerating it (the paper's methodology collects
// traces once and studies them offline).
//
// A store is a directory holding trace.idx plus chunk files of
// -shard-records records each (0 selects trace.DefaultChunkRecords),
// replayable with bounded memory and randomly accessible by chunk. -dump
// prints a store's records as text.
//
// Usage:
//
//	tracegen -workload "Web Apache" -n 10000000 -o apache.store
//	tracegen -workload "Web Apache" -n 10000000 -shard-records 1000000 -o apache.store
//	tracegen -workload "Web Apache" -warmup 8000000 -n 2000000 -shard-records 1000000 -o apache.store
//	tracegen -source store -i apache.store -shard-records 250000 -o apache-fine.store
//	tracegen -source slice@8M:2M -i apache.store -o apache-window.store
//	tracegen -dump -i apache.store | head
//
// With -warmup W the trace records W instructions as a separate executor
// phase before the -n instructions, matching the simulator's live
// warmup-then-measure call pattern: replaying such a store with
// "pifsim -trace ... -warmup W -measure N" is byte-identical to the live
// simulation.
//
// The -source flag selects where the records come from. The default,
// "live", executes the named workload. "store" replays an existing store
// (-i) into a new one — a re-shard, e.g. to a finer chunk size for
// distribution — preserving the recorded workload name and phase split.
// "slice@off:len" extracts only the record window [off, off+len) of the
// input store (located through the index, decoding no more chunks than
// the window touches) into a new store: the unit of work for shipping
// trace windows to other machines, and the on-disk twin of the
// simulator's slice-replay sources. A derived store's -o must differ
// from its -i: writing a store empties its directory first.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/prof"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	wlName := flag.String("workload", "OLTP DB2", "workload name")
	source := flag.String("source", "live", "record source: live (execute -workload), store (re-shard the -i store), or slice@off:len (extract a window of the -i store)")
	n := flag.Uint64("n", 10_000_000, "instructions to generate")
	warmup := flag.Uint64("warmup", 0, "record this many warmup instructions as a separate executor phase before -n; a store recorded with -warmup W -n M replays byte-identically in 'pifsim -trace -warmup W -measure M'")
	out := flag.String("o", "", "output store directory (required unless -dump)")
	shard := flag.Uint64("shard-records", 0, "records per chunk of the output store (0 = the default chunk size)")
	dump := flag.Bool("dump", false, "read a store and print records as text")
	in := flag.String("i", "", "input store directory for -dump and -source store|slice@off:len")
	limit := flag.Uint64("limit", 20, "records to print with -dump (0 = all)")
	var profile prof.Flags
	profile.Register(flag.CommandLine)
	flag.Parse()

	if err := profile.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		return 1
	}
	defer profile.Stop()

	if *dump {
		if err := dumpTrace(*in, *limit); err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			return 1
		}
		return 0
	}
	if *out == "" {
		fmt.Fprintln(os.Stderr, "tracegen: -o is required")
		return 1
	}
	if *source != "live" {
		// Deriving from an existing store: the generation flags would be
		// silently ignored, so reject explicit ones.
		for _, f := range []string{"workload", "n", "warmup"} {
			set := false
			flag.Visit(func(fl *flag.Flag) {
				if fl.Name == f {
					set = true
				}
			})
			if set {
				fmt.Fprintf(os.Stderr, "tracegen: -%s and -source %s are mutually exclusive (the input store defines the records)\n", f, *source)
				return 1
			}
		}
		if err := derive(*source, *in, *out, *shard); err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			return 1
		}
		return 0
	}
	if err := generate(*wlName, *warmup, *n, *out, *shard); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		return 1
	}
	return 0
}

// derive writes a new sharded store from an existing one: a full
// re-shard for -source store, a window extraction for -source slice.
func derive(source, in, out string, shardRecords uint64) error {
	if in == "" {
		return fmt.Errorf("-source %s needs -i STORE", source)
	}
	ix, err := trace.ReadIndex(in)
	if err != nil {
		return err
	}
	// Creating the output store empties its directory, so deriving a
	// store into its own input would delete the records before reading
	// them. os.SameFile sees through relative paths, trailing slashes
	// and symlinks.
	if inFi, err := os.Stat(in); err == nil {
		if outFi, err := os.Stat(out); err == nil && os.SameFile(inFi, outFi) {
			return fmt.Errorf("-o %s is the input store %s; derive into another directory", out, in)
		}
	}
	var (
		it     trace.BatchIterator
		phases []uint64
		closer io.Closer
	)
	switch {
	case source == "store":
		r, err := trace.OpenStore(in)
		if err != nil {
			return err
		}
		it, closer = r, r
		// A pure re-shard preserves the recorded phase split: replay
		// compatibility checks keep working against the derived store.
		phases = ix.Phases
	case strings.HasPrefix(source, "slice@"):
		w, err := trace.ParseWindow(strings.TrimPrefix(source, "slice@"))
		if err != nil {
			return err
		}
		sr, err := trace.OpenSlice(in, w)
		if err != nil {
			return err
		}
		it, closer = sr, sr
		// A window has no meaningful relation to the recorded executor
		// phases; the derived store records none.
	default:
		return fmt.Errorf("unknown -source %q (have live, store, slice@off:len)", source)
	}
	n, err := trace.BuildStore(out, ix.Workload, shardRecords, it, phases...)
	if cerr := closer.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	outIx, err := trace.ReadIndex(out)
	if err != nil {
		return err
	}
	fmt.Printf("derived %d records for %q from %s to %s (%d chunk(s))\n",
		n, ix.Workload, in, out, len(outIx.Chunks))
	return nil
}

// generate records the workload's live execution into a new store.
func generate(wlName string, warmup, n uint64, out string, shardRecords uint64) error {
	wl, err := workload.ByName(wlName)
	if err != nil {
		return err
	}
	prog, err := workload.ProgramFor(wl)
	if err != nil {
		return err
	}

	// The executor starts a fresh transaction at every phase, so the
	// recorded stream reproduces the simulator's warmup/measure phase
	// pattern exactly when -warmup is given. The index records the split,
	// so a replay with a different warmup/measure boundary is detected
	// instead of silently diverging from the live run.
	phases := []uint64{n}
	if warmup > 0 {
		phases = []uint64{warmup, n}
	}
	it := workload.NewIterator(prog, phases...)
	count, err := trace.BuildStore(out, wl.Name, shardRecords, it, phases...)
	// After a failed write, Close stops the executor instead of letting
	// it run out the remaining instructions.
	it.Close()
	if err != nil {
		return err
	}
	ix, err := trace.ReadIndex(out)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d records for %q to %s (%d chunk(s), %d records/chunk)\n",
		count, wl.Name, out, len(ix.Chunks), ix.ChunkTarget)
	return nil
}

// dumpTrace prints the store at in as text, one record per line, up to
// limit records (0 = all), followed by the record total.
func dumpTrace(in string, limit uint64) error {
	if in == "" {
		return errors.New("-i is required with -dump")
	}
	r, err := trace.OpenStore(in)
	if err != nil {
		return err
	}
	defer r.Close()
	h, ix := r.Header(), r.Index()
	fmt.Printf("# workload: %s\n", h.Workload)
	fmt.Printf("# store: %d records, %d chunk(s), %d records/chunk\n",
		h.Records, len(ix.Chunks), ix.ChunkTarget)
	var count uint64
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		count++
		if limit == 0 || count <= limit {
			fmt.Printf("%d %v %v flags=%#x\n", count, rec.PC, rec.TL, rec.Flags)
		}
	}
	fmt.Printf("# %d records\n", count)
	return nil
}
