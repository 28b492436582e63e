// Package stats provides the small descriptive-statistics toolkit the
// simulator's service-quality reporting uses: a counted distribution with
// exact nearest-rank percentiles, whose size grows with the number of
// distinct observations rather than with the number of observations.
package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Distribution accumulates float64 observations in counted form: each
// distinct value (by bit pattern) once, in ascending order, with the number
// of times it was added, plus the running sum. The zero value is ready to
// use. Not safe for concurrent use.
//
//gm:statemirror State RestoreState
type Distribution struct {
	values []float64
	counts []int
	sum    float64
}

// order sorts values ascending as sort.Float64s does (NaNs first) and
// breaks ties between distinct bit patterns of one value by their signed
// bits, which puts -0 before +0.
func order(a, b float64) int {
	if c := cmp.Compare(a, b); c != 0 {
		return c
	}
	return cmp.Compare(int64(math.Float64bits(a)), int64(math.Float64bits(b)))
}

// Add records one observation. It allocates only for a value it has not
// seen before. A seen value is found by a scan of the distinct values,
// which for the few distinct latencies a read model produces is several
// times faster than a binary search through order.
func (d *Distribution) Add(v float64) {
	d.sum += v
	bits := math.Float64bits(v)
	for i, u := range d.values {
		if math.Float64bits(u) == bits {
			d.counts[i]++
			return
		}
	}
	i, _ := slices.BinarySearchFunc(d.values, v, order)
	d.values = slices.Insert(d.values, i, v)
	d.counts = slices.Insert(d.counts, i, 1)
}

// N returns the number of observations.
func (d *Distribution) N() int {
	n := 0
	for _, c := range d.counts {
		n += c
	}
	return n
}

// Mean returns the arithmetic mean (0 for an empty distribution).
func (d *Distribution) Mean() float64 {
	n := d.N()
	if n == 0 {
		return 0
	}
	return d.sum / float64(n)
}

// Max returns the largest observation (0 when empty).
func (d *Distribution) Max() float64 {
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
	n := d.N()
	if n == 0 {
		return 0
	}
	rank := min(max(int(math.Ceil(p/100*float64(n))), 1), n)
	for i, c := range d.counts {
		if rank -= c; rank <= 0 {
			return d.values[i]
		}
	}
	panic("unreachable: rank is at most N")
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

// State returns copies of the distinct values (ascending) and their counts
// plus the running sum, a complete serialization of the distribution. The
// sum is carried as accumulated, not recomputed from the counts, so Mean
// after a restore stays bit-identical to an uninterrupted accumulation.
func (d *Distribution) State() (values []float64, counts []int, sum float64) {
	return slices.Clone(d.values), slices.Clone(d.counts), d.sum
}

// RestoreState overwrites the distribution with a snapshot taken by State.
func (d *Distribution) RestoreState(values []float64, counts []int, sum float64) {
	d.values = append(d.values[:0], values...)
	d.counts = append(d.counts[:0], counts...)
	d.sum = sum
}
