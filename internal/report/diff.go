package report

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Tolerance bounds the acceptable drift of one metric: a pair of values
// agrees when the absolute difference is at most Abs OR the relative
// difference (|a-b| / max(|a|,|b|)) is at most Rel. Zero means exact on
// that axis; a metric passes if either axis accepts it, so a tolerance of
// {Abs: 1e-9} absorbs float noise near zero without loosening large values.
type Tolerance struct {
	Abs float64 `json:"abs"`
	Rel float64 `json:"rel"`
}

// Within reports whether a and b agree under the tolerance.
func (t Tolerance) Within(a, b float64) bool {
	if a == b {
		return true
	}
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	abs := math.Abs(a - b)
	if abs <= t.Abs {
		return true
	}
	denom := math.Max(math.Abs(a), math.Abs(b))
	return denom > 0 && abs/denom <= t.Rel
}

// MetricDiff is one numeric leaf that differs between two runs. The JSON
// field names are part of the machine-readable diff contract of
// `experiments diff -json`.
type MetricDiff struct {
	// Path locates the metric: "<artifact>.<field path>", e.g.
	// "fig2.retire[3]".
	Path string  `json:"path"`
	A    float64 `json:"a"`
	B    float64 `json:"b"`
	// AbsDelta is |A-B|; RelDelta is |A-B| / max(|A|,|B|) (0 when both are
	// zero).
	AbsDelta float64 `json:"abs_delta"`
	RelDelta float64 `json:"rel_delta"`
	// Within reports whether the tolerance accepts the pair.
	Within bool `json:"within"`
}

// Diff is the comparison of two artifact sets.
type Diff struct {
	// OnlyInA and OnlyInB list artifact IDs present on one side only.
	OnlyInA []string `json:"only_in_a,omitempty"`
	OnlyInB []string `json:"only_in_b,omitempty"`
	// Metrics lists every numeric leaf that differs, in path order.
	Metrics []MetricDiff `json:"metrics,omitempty"`
	// Mismatches lists structural differences: metrics present on one side
	// only, type changes, and non-numeric leaves (names, labels) that
	// differ. Any entry is out of tolerance by definition.
	Mismatches []string `json:"mismatches,omitempty"`
}

// OutOfTolerance reports whether the diff should fail a gate: any
// structural mismatch, missing artifact, or metric beyond its tolerance.
func (d Diff) OutOfTolerance() bool {
	return d.HasMissing() || d.HasDrift()
}

// HasMissing reports artifacts or jobs present on one side only — the two
// runs regenerated different artifact sets, which is a comparison-setup
// problem rather than metric drift (distinct exit code in the CLI).
func (d Diff) HasMissing() bool {
	return len(d.OnlyInA) > 0 || len(d.OnlyInB) > 0
}

// HasDrift reports out-of-tolerance metric drift or structural mismatch
// within matched artifacts — the regression-gate condition.
func (d Diff) HasDrift() bool {
	if len(d.Mismatches) > 0 {
		return true
	}
	for _, m := range d.Metrics {
		if !m.Within {
			return true
		}
	}
	return false
}

// Clean reports a fully identical comparison (no drift at all).
func (d Diff) Clean() bool {
	return len(d.OnlyInA) == 0 && len(d.OnlyInB) == 0 &&
		len(d.Mismatches) == 0 && len(d.Metrics) == 0
}

// Code maps a computed diff onto the `experiments diff` exit-code
// contract: 3 when the two sides regenerated different artifact/job sets
// (comparison-setup problem), 1 on out-of-tolerance drift within matched
// artifacts, 0 when everything agrees. Code 2 — failure to load or fetch
// a side — never arises from a computed diff; callers report it as an
// error before a Diff exists.
func (d Diff) Code() int {
	switch {
	case d.HasMissing():
		return 3
	case d.HasDrift():
		return 1
	default:
		return 0
	}
}

// DiffReport is the machine-readable form of one comparison: the diff
// plus its exit-code verdict and rendered text. `experiments diff -json`
// prints it, whether its sides are local run directories or runs on the
// experiment service.
type DiffReport struct {
	// Code is the `experiments diff` exit-code verdict for this diff
	// (0 identical-within-tolerance, 1 drift, 3 missing artifacts/jobs).
	Code int `json:"code"`
	// A and B name the two sides (run IDs or local paths).
	A string `json:"a"`
	B string `json:"b"`
	// Diff is the full structural comparison.
	Diff Diff `json:"diff"`
	// Text is the human-rendered report (Diff.Render), so JSON consumers
	// can surface the same lines the CLI prints.
	Text string `json:"text"`
}

// NewDiffReport packages a computed diff with its verdict and rendering.
func NewDiffReport(a, b string, d Diff) DiffReport {
	return DiffReport{Code: d.Code(), A: a, B: b, Diff: d, Text: d.Render()}
}

// Render formats the diff as a per-metric report. Out-of-tolerance rows
// are marked "FAIL"; in-tolerance drift is listed as "ok" so a near-miss
// is visible before it becomes a failure.
func (d Diff) Render() string {
	var b strings.Builder
	for _, id := range d.OnlyInA {
		fmt.Fprintf(&b, "MISSING  %s: present only in A (not regenerated or not persisted in B)\n", id)
	}
	for _, id := range d.OnlyInB {
		fmt.Fprintf(&b, "MISSING  %s: present only in B (not regenerated or not persisted in A)\n", id)
	}
	for _, m := range d.Mismatches {
		fmt.Fprintf(&b, "FAIL  %s\n", m)
	}
	for _, m := range d.Metrics {
		verdict := "ok  "
		if !m.Within {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "%s  %-40s A=%-14.9g B=%-14.9g abs=%.3g rel=%.3g\n",
			verdict, m.Path, m.A, m.B, m.AbsDelta, m.RelDelta)
	}
	if b.Len() == 0 {
		return "identical\n"
	}
	return b.String()
}

// DiffArtifacts compares two artifact sets metric by metric. Artifacts are
// matched by ID; each matched pair's Data is flattened into numeric and
// non-numeric leaves rooted at the artifact ID.
func DiffArtifacts(a, b []Artifact, tol Tolerance) Diff {
	var d Diff
	byID := func(arts []Artifact) map[string]Artifact {
		m := make(map[string]Artifact, len(arts))
		for _, art := range arts {
			m[art.ID] = art
		}
		return m
	}
	am, bm := byID(a), byID(b)
	var common []string
	for id := range am {
		if _, ok := bm[id]; ok {
			common = append(common, id)
		} else {
			d.OnlyInA = append(d.OnlyInA, id)
		}
	}
	for id := range bm {
		if _, ok := am[id]; !ok {
			d.OnlyInB = append(d.OnlyInB, id)
		}
	}
	sort.Strings(d.OnlyInA)
	sort.Strings(d.OnlyInB)
	sort.Strings(common)

	for _, id := range common {
		an, ar, aerr := flattenData(id, am[id].Data)
		bn, br, berr := flattenData(id, bm[id].Data)
		if aerr != nil || berr != nil {
			d.Mismatches = append(d.Mismatches, fmt.Sprintf("%s: unparseable data (A: %v, B: %v)", id, aerr, berr))
			continue
		}
		diffLeaves(&d, an, bn, ar, br, tol)
	}
	return d
}

// diffLeaves merges one artifact's flattened leaves into the diff.
func diffLeaves(d *Diff, an, bn map[string]float64, ar, br map[string]string, tol Tolerance) {
	paths := make(map[string]struct{}, len(an)+len(bn)+len(ar)+len(br))
	for p := range an {
		paths[p] = struct{}{}
	}
	for p := range bn {
		paths[p] = struct{}{}
	}
	for p := range ar {
		paths[p] = struct{}{}
	}
	for p := range br {
		paths[p] = struct{}{}
	}
	sorted := make([]string, 0, len(paths))
	for p := range paths {
		sorted = append(sorted, p)
	}
	sort.Strings(sorted)

	for _, p := range sorted {
		av, aNum := an[p]
		bv, bNum := bn[p]
		as, aRaw := ar[p]
		bs, bRaw := br[p]
		switch {
		case aNum && bNum:
			if av == bv {
				continue
			}
			abs := math.Abs(av - bv)
			rel := 0.0
			if denom := math.Max(math.Abs(av), math.Abs(bv)); denom > 0 {
				rel = abs / denom
			}
			d.Metrics = append(d.Metrics, MetricDiff{
				Path: p, A: av, B: bv,
				AbsDelta: abs, RelDelta: rel,
				Within: tol.Within(av, bv),
			})
		case aRaw && bRaw:
			if as != bs {
				d.Mismatches = append(d.Mismatches, fmt.Sprintf("%s: %s != %s", p, as, bs))
			}
		case (aNum || aRaw) && !(bNum || bRaw):
			d.Mismatches = append(d.Mismatches, fmt.Sprintf("%s: only in A", p))
		case (bNum || bRaw) && !(aNum || aRaw):
			d.Mismatches = append(d.Mismatches, fmt.Sprintf("%s: only in B", p))
		default: // numeric on one side, non-numeric on the other
			d.Mismatches = append(d.Mismatches, fmt.Sprintf("%s: type changed", p))
		}
	}
}

// flattenData decodes an artifact's Data and flattens it into numeric
// leaves (metric path -> value) and non-numeric leaves (path -> rendered
// form). nil data yields empty maps.
func flattenData(root string, data json.RawMessage) (nums map[string]float64, rest map[string]string, err error) {
	nums = map[string]float64{}
	rest = map[string]string{}
	if data == nil {
		return nums, rest, nil
	}
	var v any
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.UseNumber()
	if err := dec.Decode(&v); err != nil {
		return nil, nil, err
	}
	flatten(root, v, nums, rest)
	return nums, rest, nil
}

// escapeKey backslash-escapes the path metacharacters '.', '[', '\' in an
// object key, so keys that contain them cannot collide with structural
// paths ({"a.b":1} vs {"a":{"b":1}}).
func escapeKey(k string) string {
	if !strings.ContainsAny(k, `.[\`) {
		return k
	}
	var b strings.Builder
	for _, r := range k {
		if r == '.' || r == '[' || r == '\\' {
			b.WriteByte('\\')
		}
		b.WriteRune(r)
	}
	return b.String()
}

// flatten walks a decoded JSON value accumulating leaf paths. Object keys
// append ".key" (metacharacters escaped); array elements append "[i]".
func flatten(path string, v any, nums map[string]float64, rest map[string]string) {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			flatten(path+"."+escapeKey(k), x[k], nums, rest)
		}
	case []any:
		for i, e := range x {
			flatten(fmt.Sprintf("%s[%d]", path, i), e, nums, rest)
		}
	case json.Number:
		if f, err := x.Float64(); err == nil {
			nums[path] = f
		} else {
			rest[path] = x.String()
		}
	case string:
		rest[path] = fmt.Sprintf("%q", x)
	case bool:
		rest[path] = fmt.Sprintf("%v", x)
	case nil:
		rest[path] = "null"
	}
}
