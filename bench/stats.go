package main

import (
	"math"
	"sort"
)

// A metric is one reported number. N is the sample count it summarizes;
// Pct names the percentile a tail metric reports; Spread is the
// interquartile range over contiguous chunks of the run divided by their
// median, the within-run noise -compare weighs a difference against.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n,omitempty"`
	Pct    float64 `json:"pct,omitempty"`
	Spread float64 `json:"spread,omitempty"`
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile of xs (0 when xs is
// empty). A failed operation enters xs as +Inf and so lands in the tail.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99, 95, 90, 75, 50}

// beyond returns how many of n samples lie above the nearest-rank p-th
// percentile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// tailPct returns the highest percentile of the ladder that leaves at
// least ten of n samples beyond it, or the median when none does.
func tailPct(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// quartiles matches Python's statistics.quantiles(xs, n=4) with its
// default exclusive method.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile range of xs over its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 || math.IsInf(q3, 0) {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// chunkSpread splits xs into up to five contiguous chunks, applies stat to
// each, and returns the spread of the results.
func chunkSpread(xs []float64, stat func([]float64) float64) float64 {
	k := min(5, len(xs))
	if k < 2 {
		return 0
	}
	vals := make([]float64, k)
	for c := range vals {
		vals[c] = stat(xs[c*len(xs)/k : (c+1)*len(xs)/k])
	}
	return spread(vals)
}

// summarize reports stat over xs with its sample count and chunk spread.
func summarize(xs []float64, unit string, stat func([]float64) float64) metric {
	return metric{Value: stat(xs), Unit: unit, N: len(xs), Spread: chunkSpread(xs, stat)}
}
