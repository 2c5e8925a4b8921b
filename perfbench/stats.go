package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// tail percentile resting on fewer samples is noise, not a measurement.
const minTail = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating
// linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// medianOr0 is median, reading 0 when there are no samples: the value of
// a layer metric for a layer the workload's ops never enter.
func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// percentile returns the p-th percentile of xs. It refuses a percentile
// with fewer than minTail samples strictly above it.
func percentile(xs []float64, p float64) (float64, error) {
	v := quantile(xs, p/100)
	above := 0
	for _, x := range xs {
		if x > v {
			above++
		}
	}
	if above < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, len(xs), above, minTail)
	}
	return v, nil
}

// quartiles returns the three quartile cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (method "exclusive"), the
// rule a benchmark's run-to-run spread is judged by.
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	n := len(s)
	var q [3]float64
	switch n {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
