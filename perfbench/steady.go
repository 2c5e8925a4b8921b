package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// boundFile is the part of BENCHMARK.json the steadiness report reads.
type boundFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// spread summarizes one metric over a set of runs.
type spread struct {
	median, iqr, maxMin float64 // iqr is the interquartile range over the median
}

func spreadOf(xs []float64) spread {
	q := quartiles(xs)
	s := sorted(xs)
	return spread{median: median(xs), iqr: (q[2] - q[0]) / median(xs), maxMin: s[len(s)-1] / s[0]}
}

// firstSeed is the seed of each set's first run.
const firstSeed = 2

// steady is the steadiness report: it runs the workload -runs times per
// set in child processes, seeds firstSeed, firstSeed+1, ..., and prints
// for each end-to-end metric the median, IQR/median and max/min of the
// adjusted and of the raw values. It flags a metric whose spread exceeds
// its bound in BENCHMARK.json and, with two sets, one whose second median
// is worse than the first by more than the bound. It exits 1 when
// anything is flagged.
func steady(o options, args []string) int {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per set, each with the next seed")
	sets := fs.Int("sets", 1, "sets of runs; with 2 the report also compares their medians")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *runs < 2 || *sets < 1 {
		return usage("steady needs -runs >= 2 and -sets >= 1")
	}
	b, err := os.ReadFile(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	var bf boundFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return fail(fmt.Errorf("parse BENCHMARK.json: %w", err))
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	flagged := false
	var medians []map[string]float64
	for set := 1; set <= *sets; set++ {
		adj := map[string][]float64{}
		raw := map[string][]float64{}
		for i := 0; i < *runs; i++ {
			seed := firstSeed + int64(i)
			cmd := exec.Command(exe, "-root", o.root, "-r0-ms", strconv.FormatFloat(o.r0*1e3, 'g', -1, 64),
				"-workload", o.workload, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(o.seconds), "-digests", o.digests)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				os.Stderr.Write(stderr.Bytes())
				return fail(fmt.Errorf("set %d seed %d: %w", set, seed, err))
			}
			a, r, err := parseRun(out)
			if err != nil {
				return fail(fmt.Errorf("set %d seed %d: %w", set, seed, err))
			}
			var line []string
			for _, d := range endToEndDefs {
				adj[d.name] = append(adj[d.name], a[d.name])
				raw[d.name] = append(raw[d.name], r[d.name])
				line = append(line, fmt.Sprintf("%s=%.5g", d.name, a[d.name]))
			}
			fmt.Fprintf(os.Stderr, "set %d seed %d: %s\n", set, seed, strings.Join(line, " "))
		}
		fmt.Printf("%s: set %d, %d runs, seeds %d..%d, %ds each\n", o.workload, set, *runs, firstSeed, firstSeed+*runs-1, o.seconds)
		fmt.Printf("%-18s %12s %8s %8s | %12s %8s %8s | %6s\n", "metric", "median", "iqr/med", "max/min", "raw median", "iqr/med", "max/min", "bound")
		meds := map[string]float64{}
		for _, e := range bf.EndToEnd {
			a, r := spreadOf(adj[e.Name]), spreadOf(raw[e.Name])
			meds[e.Name] = a.median
			note := ""
			switch {
			case a.iqr > e.Bound:
				note = "FLAG: spread over bound"
				flagged = true
			case a.iqr > e.Bound/3:
				note = "spread over a third of bound"
			}
			fmt.Printf("%-18s %12.5g %8.4f %8.4f | %12.5g %8.4f %8.4f | %6.3f %s\n",
				e.Name, a.median, a.iqr, a.maxMin, r.median, r.iqr, r.maxMin, e.Bound, note)
		}
		medians = append(medians, meds)
	}
	if len(medians) == 2 {
		fmt.Println("second set against the first (positive = worse):")
		for _, e := range bf.EndToEnd {
			m1, m2 := medians[0][e.Name], medians[1][e.Name]
			worse := (m2 - m1) / m1
			if e.Better == "higher" {
				worse = -worse
			}
			note := ""
			if worse > e.Bound {
				note = "FLAG: worse by more than bound"
				flagged = true
			}
			fmt.Printf("%-18s %12.5g %12.5g %+8.4f | %6.3f %s\n", e.Name, m1, m2, worse, e.Bound, note)
		}
	}
	if flagged {
		return 1
	}
	return 0
}

// parseRun reads a run's output: the raw line and the result line.
func parseRun(out []byte) (adj, raw map[string]float64, err error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "raw "); ok {
			if err := json.Unmarshal([]byte(rest), &raw); err != nil {
				return nil, nil, fmt.Errorf("parse raw line: %w", err)
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, nil, fmt.Errorf("parse result line: %w", err)
	}
	if !res.Correct {
		return nil, nil, fmt.Errorf("run reported incorrect results (%d of %d ops failed)", res.Failed, res.Attempted)
	}
	adj = map[string]float64{}
	for k, m := range res.Metrics {
		adj[k] = m.Value
	}
	if raw == nil {
		return nil, nil, fmt.Errorf("no raw line")
	}
	return adj, raw, nil
}
