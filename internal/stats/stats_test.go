package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	h.Observe(1)
	h.Observe(1)
	h.Observe(-3)
	h.ObserveN(5, 7)
	if h.Total() != 10 {
		t.Fatalf("Total = %d, want 10", h.Total())
	}
	if h.Count(1) != 2 || h.Count(-3) != 1 || h.Count(5) != 7 {
		t.Errorf("unexpected counts: %d %d %d", h.Count(1), h.Count(-3), h.Count(5))
	}
	if got := h.Fraction(5); got != 0.7 {
		t.Errorf("Fraction(5) = %f, want 0.7", got)
	}
	keys := h.Keys()
	want := []int{-3, 1, 5}
	if len(keys) != len(want) {
		t.Fatalf("Keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Errorf("Keys[%d] = %d, want %d", i, keys[i], want[i])
		}
	}
}

func TestEmptyHistogram(t *testing.T) {
	h := NewHistogram()
	if h.Fraction(1) != 0 || h.Total() != 0 {
		t.Error("empty histogram should report zeros")
	}
}

func TestLog2Bucket(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3}, {1023, 9}, {1024, 10},
	}
	for _, c := range cases {
		if got := Log2Bucket(c.v); got != c.want {
			t.Errorf("Log2Bucket(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestLog2BucketMonotone(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := uint64(a), uint64(b)
		if x > y {
			x, y = y, x
		}
		return Log2Bucket(x) <= Log2Bucket(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Name: "cov"}
	s.Append("a", 0.5)
	s.Append("b", 0.9)
	if len(s.Labels) != 2 || len(s.Values) != 2 {
		t.Fatalf("points = %v %v", s.Labels, s.Values)
	}
	if s.Labels[1] != "b" || s.Values[1] != 0.9 {
		t.Errorf("unexpected point: %v %v", s.Labels, s.Values)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "Figure X", ColName: []string{"Miss", "Access"}}
	tab.AddRow("OLTP DB2", 0.75, 0.85)
	out := tab.Render(true)
	if !strings.Contains(out, "Figure X") || !strings.Contains(out, "OLTP DB2") {
		t.Errorf("render missing parts:\n%s", out)
	}
	if !strings.Contains(out, "75.0%") || !strings.Contains(out, "85.0%") {
		t.Errorf("render missing values:\n%s", out)
	}
	plain := tab.Render(false)
	if !strings.Contains(plain, "0.750") {
		t.Errorf("non-pct render wrong:\n%s", plain)
	}
}

func TestMeanGeoMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %f", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %f", got)
	}
}
