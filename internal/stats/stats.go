// Package stats provides the histograms, series, and tables the
// experiment drivers use to accumulate and render results in the same
// shape as the paper's tables and figures.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is a dense linear histogram over int keys. Keys may be
// negative (e.g., block offsets before a trigger access).
type Histogram struct {
	buckets map[int]uint64
	total   uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{buckets: make(map[int]uint64)}
}

// Observe adds one sample at key.
func (h *Histogram) Observe(key int) { h.ObserveN(key, 1) }

// ObserveN adds n samples at key.
func (h *Histogram) ObserveN(key int, n uint64) {
	h.buckets[key] += n
	h.total += n
}

// Total returns the number of samples observed.
func (h *Histogram) Total() uint64 { return h.total }

// Count returns the number of samples at key.
func (h *Histogram) Count(key int) uint64 { return h.buckets[key] }

// Fraction returns the fraction of all samples at key.
func (h *Histogram) Fraction(key int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.buckets[key]) / float64(h.total)
}

// Keys returns the observed keys in ascending order.
func (h *Histogram) Keys() []int {
	keys := make([]int, 0, len(h.buckets))
	for k := range h.buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Log2Bucket returns the log2 bucket index for a positive value:
// values 1 → 0, 2..3 → 1, 4..7 → 2, etc. Zero and negatives map to 0.
func Log2Bucket(v uint64) int {
	if v <= 1 {
		return 0
	}
	return int(math.Floor(math.Log2(float64(v))))
}

// Series is a named sequence of (label, value) points, the unit in which
// experiments hand results to the renderer — one Series per line/bar group
// of a paper figure.
type Series struct {
	Name   string
	Labels []string
	Values []float64
}

// Append adds one point.
func (s *Series) Append(label string, value float64) {
	s.Labels = append(s.Labels, label)
	s.Values = append(s.Values, value)
}

// Table is a rectangular result: one row per workload (or config), one
// column per measured quantity. It renders as aligned text, the textual
// equivalent of a paper figure.
type Table struct {
	Title   string
	ColName []string
	Rows    []TableRow
}

// TableRow is one row of a Table.
type TableRow struct {
	Label  string
	Values []float64
}

// AddRow appends a row.
func (t *Table) AddRow(label string, values ...float64) {
	t.Rows = append(t.Rows, TableRow{Label: label, Values: values})
}

// Render formats the table as aligned text with values printed as
// percentages when pct is true.
func (t *Table) Render(pct bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	width := 12
	for _, r := range t.Rows {
		if len(r.Label) > width {
			width = len(r.Label)
		}
	}
	fmt.Fprintf(&b, "%-*s", width+2, "")
	for _, c := range t.ColName {
		fmt.Fprintf(&b, "%12s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", width+2, r.Label)
		for _, v := range r.Values {
			if pct {
				fmt.Fprintf(&b, "%11.1f%%", v*100)
			} else {
				fmt.Fprintf(&b, "%12.3f", v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Mean returns the arithmetic mean of vs, or 0 for empty input.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}
