package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strings"

	"repro/internal/sim"
)

// counterLaws returns the laws r breaks, for a result whose measured
// interval is window instructions.
func counterLaws(r sim.Result, window uint64) []string {
	var bad []string
	if r.Instructions != window {
		bad = append(bad, fmt.Sprintf("measured %d instructions, window is %d", r.Instructions, window))
	}
	if r.CoveredMisses+r.CorrectMisses > r.CorrectAccesses {
		bad = append(bad, fmt.Sprintf("covered %d + residual %d misses exceed %d correct-path accesses",
			r.CoveredMisses, r.CorrectMisses, r.CorrectAccesses))
	}
	if r.L1.PrefetchHits > r.L1.PrefetchFills {
		bad = append(bad, fmt.Sprintf("%d prefetch hits exceed %d prefetch fills", r.L1.PrefetchHits, r.L1.PrefetchFills))
	}
	if !(r.UIPC > 0) {
		bad = append(bad, fmt.Sprintf("UIPC %v is not positive", r.UIPC))
	}
	return bad
}

// digest is a short stable hash of an op's results: their JSON, which
// carries every counter of every job.
func digest(rs []sim.Result) string {
	b, err := json.Marshal(rs)
	if err != nil {
		// sim.Result holds integers and a UIPC that is never NaN or Inf.
		panic(fmt.Sprintf("marshal sim results: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// runDigest folds the digests of a seed's op list into one value that
// two commits can compare on any seed.
func runDigest(ds []string) string {
	sum := sha256.Sum256([]byte(strings.Join(ds, ",")))
	return hex.EncodeToString(sum[:8])
}

// gateReport is the correctness verdict over every op of a run.
type gateReport struct {
	failed    int
	mismatch  bool     // some op's digest differs from the committed one
	digests   []string // per op; "" for an op that produced no results
	runDigest string   // over the first period of ops
	problems  []string
}

// gate checks every op: it ran, each of its results obeys the counter
// laws, and — when want holds the committed digests (the default seed) —
// its digest equals want[i mod period]. An op failing any check counts
// once in failed.
func gate(outs []opResult, want []string, period int) gateReport {
	g := gateReport{digests: make([]string, len(outs))}
	for i, out := range outs {
		var problems []string
		switch {
		case out.err != nil:
			problems = append(problems, out.err.Error())
		case len(out.results) == 0 || len(out.results) != len(out.engines):
			problems = append(problems, fmt.Sprintf("%d results for engines %v", len(out.results), out.engines))
		default:
			for k, r := range out.results {
				for _, v := range counterLaws(r, out.window) {
					problems = append(problems, out.engines[k]+": "+v)
				}
			}
			g.digests[i] = digest(out.results)
			if want != nil && g.digests[i] != want[i%period] {
				problems = append(problems, fmt.Sprintf("digest %s, committed %s", g.digests[i], want[i%period]))
				g.mismatch = true
			}
		}
		if len(problems) > 0 {
			g.failed++
			for _, p := range problems {
				g.problems = append(g.problems, fmt.Sprintf("op %d: %s", i, p))
			}
		}
	}
	g.runDigest = runDigest(g.digests[:min(period, len(outs))])
	return g
}

// digestFile holds the committed per-op digests of the default seed: for
// each workload, the digest of op i's results for i < period.
type digestFile map[string][]string

func loadDigests(path string) (digestFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d := digestFile{}
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return d, nil
}

// expectedDigests returns the committed digests the run must match: nil
// unless the run uses the default seed.
func expectedDigests(o options, period int) ([]string, error) {
	if o.seed != defaultSeed {
		return nil, nil
	}
	d, err := loadDigests(o.digests)
	if err != nil {
		return nil, err
	}
	want := d[o.workload]
	if len(want) != period {
		return nil, fmt.Errorf("%s holds %d digests for %s, want %d (rerun with -write-digests)", o.digests, len(want), o.workload, period)
	}
	return want, nil
}

// writeDigests runs each distinct op of the default seed once, checks it,
// and records its digest in the digest file.
func writeDigests(o options) int {
	if o.seed != defaultSeed {
		return usage("-write-digests records the default seed %d only", defaultSeed)
	}
	work, err := scratchDir(o.root)
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(work)
	w := lookupWorkload(o.workload).make(o.seed, work)
	defer w.close()
	st := &stepTimer{ref: newRefSampler(), r0: o.r0}
	st.begin()
	if err := w.setup(st, 0); err != nil {
		return fail(fmt.Errorf("set-up: %w", err))
	}
	outs := make([]opResult, w.period())
	for i := range outs {
		outs[i] = w.op(i)
	}
	w.finish(outs)
	g := gate(outs, nil, w.period())
	if g.failed > 0 {
		for _, p := range g.problems {
			fmt.Fprintln(os.Stderr, "perfbench:", p)
		}
		return fail(fmt.Errorf("%d of %d ops failed; digests not written", g.failed, len(outs)))
	}
	d, err := loadDigests(o.digests)
	if errors.Is(err, fs.ErrNotExist) {
		d, err = digestFile{}, nil
	}
	if err != nil {
		return fail(err)
	}
	d[o.workload] = g.digests
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return fail(err)
	}
	if err := os.WriteFile(o.digests, append(b, '\n'), 0o644); err != nil {
		return fail(err)
	}
	fmt.Printf("wrote %d digests for %s to %s (results_digest %s)\n", len(g.digests), o.workload, o.digests, g.runDigest)
	return 0
}
