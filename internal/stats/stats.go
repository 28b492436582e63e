// Package stats provides the small descriptive-statistics toolkit the
// simulator's service-quality reporting uses: an accumulating sample
// distribution with exact percentiles (nearest-rank on the sorted sample)
// and fixed-bucket histograms.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Distribution accumulates float64 observations. The zero value is ready
// to use. Not safe for concurrent use.
//
//gm:statemirror State RestoreState
type Distribution struct {
	values []float64
	sorted bool //gm:ephemeral derived flag; canonical order is re-derived on demand
	sum    float64
}

// Add records one observation.
func (d *Distribution) Add(v float64) {
	d.values = append(d.values, v)
	d.sorted = false
	d.sum += v
}

// N returns the number of observations.
func (d *Distribution) N() int { return len(d.values) }

// Sum returns the total of all observations.
func (d *Distribution) Sum() float64 { return d.sum }

// Mean returns the arithmetic mean (0 for an empty distribution).
func (d *Distribution) Mean() float64 {
	if len(d.values) == 0 {
		return 0
	}
	return d.sum / float64(len(d.values))
}

// Min returns the smallest observation (0 when empty).
func (d *Distribution) Min() float64 {
	d.ensureSorted()
	if len(d.values) == 0 {
		return 0
	}
	return d.values[0]
}

// Max returns the largest observation (0 when empty).
func (d *Distribution) Max() float64 {
	d.ensureSorted()
	if len(d.values) == 0 {
		return 0
	}
	return d.values[len(d.values)-1]
}

// Percentile returns the p-th percentile (0 <= p <= 100) by the
// nearest-rank method: the smallest observation such that at least p% of
// the sample is <= it. Empty distributions return 0; out-of-range p panics.
func (d *Distribution) Percentile(p float64) float64 {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v outside [0,100]", p))
	}
	d.ensureSorted()
	n := len(d.values)
	if n == 0 {
		return 0
	}
	if p == 0 {
		return d.values[0]
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return d.values[rank-1]
}

// Histogram counts observations per bucket. Boundaries must be ascending;
// the result has len(bounds)+1 entries: (-inf, b0], (b0, b1], ...,
// (b_last, +inf).
func (d *Distribution) Histogram(bounds []float64) ([]int, error) {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("stats: histogram bounds not ascending at %d", i)
		}
	}
	counts := make([]int, len(bounds)+1)
	for _, v := range d.values {
		// The bucket index is the number of bounds strictly below v, which
		// is exactly what SearchFloat64s (first index with bounds[i] >= v)
		// returns.
		counts[sort.SearchFloat64s(bounds, v)]++
	}
	return counts, nil
}

// Summary is a compact fixed-size digest of a distribution.
type Summary struct {
	N    int
	Mean float64
	P50  float64
	P95  float64
	P99  float64
	Max  float64
}

// Summarize digests the distribution.
func (d *Distribution) Summarize() Summary {
	return Summary{
		N:    d.N(),
		Mean: d.Mean(),
		P50:  d.Percentile(50),
		P95:  d.Percentile(95),
		P99:  d.Percentile(99),
		Max:  d.Max(),
	}
}

// State returns a copy of the observations in their current internal order
// plus the running sum, a complete serialization of the distribution.
// Capturing the order (rather than a canonical sorted form) matters because
// Mean divides the incrementally accumulated sum: restoring values and sum
// verbatim keeps every later statistic bit-identical to an uninterrupted
// accumulation.
func (d *Distribution) State() (values []float64, sum float64) {
	return append([]float64(nil), d.values...), d.sum
}

// RestoreState overwrites the distribution with a snapshot taken by State.
func (d *Distribution) RestoreState(values []float64, sum float64) {
	d.values = append(d.values[:0], values...)
	d.sorted = false
	d.sum = sum
}

func (d *Distribution) ensureSorted() {
	if !d.sorted {
		sort.Float64s(d.values)
		d.sorted = true
	}
}
