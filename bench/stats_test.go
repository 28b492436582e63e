package main

import (
	"math"
	"testing"
)

func TestTailPctLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {50000, 99}} {
		if got := tailPct(c.n); got != c.want {
			t.Errorf("tailPct(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
	// The rule itself: the chosen percentile leaves at least ten samples
	// beyond it, and the next one up the ladder does not.
	for n := 20; n <= 3000; n++ {
		p := tailPct(n)
		if beyond(n, p) < 10 {
			t.Fatalf("n=%d: p%g leaves %d beyond", n, p, beyond(n, p))
		}
		for i, q := range tailLadder {
			if q == p && i > 0 && beyond(n, tailLadder[i-1]) >= 10 {
				t.Fatalf("n=%d: p%g also leaves ten beyond, but p%g was chosen", n, tailLadder[i-1], p)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{50, 3}, {80, 4}, {81, 5}, {100, 5}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(append(xs, math.Inf(1)), 99); !math.IsInf(got, 1) {
		t.Errorf("a failed request in the tail reads %g, want +Inf", got)
	}
}

// The steadiness figures in README.md use Python's
// statistics.quantiles(xs, n=4); these are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1.5, 2, 10, 4, 7, 3}, [3]float64{1.875, 3.5, 7.75}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
