package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42, "workload")
	b := New(42, "workload")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed+name diverged at draw %d", i)
		}
	}
}

func TestStreamIndependenceByName(t *testing.T) {
	a := New(42, "workload")
	b := New(42, "solar")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different names look identical: %d/100 equal draws", same)
	}
}

func TestStreamIndependenceBySeed(t *testing.T) {
	a := New(1, "x")
	b := New(2, "x")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds look identical: %d/100 equal draws", same)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(7, "u")
	for i := 0; i < 1000; i++ {
		v := s.Uniform(3, 9)
		if v < 3 || v >= 9 {
			t.Fatalf("Uniform(3,9) out of range: %v", v)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	s := New(7, "poisson")
	for _, mean := range []float64{0.5, 3, 20, 200} {
		n := 20000
		sum := 0
		for i := 0; i < n; i++ {
			sum += s.Poisson(mean)
		}
		got := float64(sum) / float64(n)
		// Standard error ~ sqrt(mean/n); allow 6 sigma.
		tol := 6 * math.Sqrt(mean/float64(n))
		if math.Abs(got-mean) > tol {
			t.Errorf("Poisson(%v) sample mean %v, want within %v", mean, got, tol)
		}
	}
}

func TestPoissonNonNegative(t *testing.T) {
	s := New(7, "poisson-nn")
	for i := 0; i < 5000; i++ {
		if s.Poisson(100) < 0 {
			t.Fatal("Poisson returned negative")
		}
	}
	// A NaN mean would never end the product loop: p <= exp(-NaN) is
	// always false.
	draws := s.Draws()
	if s.Poisson(0) != 0 || s.Poisson(-1) != 0 || s.Poisson(math.NaN()) != 0 {
		t.Error("Poisson of non-positive or NaN mean should be 0")
	}
	if s.Draws() != draws {
		t.Errorf("Poisson of non-positive or NaN mean took %d draws, want 0", s.Draws()-draws)
	}
}

func TestWeibullMean(t *testing.T) {
	s := New(7, "weibull")
	// k=2, lambda=8 has mean lambda*Gamma(1+1/2)=8*sqrt(pi)/2 ~= 7.0898
	n := 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Weibull(2, 8)
		if v < 0 {
			t.Fatal("Weibull negative")
		}
		sum += v
	}
	want := 8 * math.Sqrt(math.Pi) / 2
	got := sum / float64(n)
	if math.Abs(got-want) > 0.15 {
		t.Errorf("Weibull(2,8) sample mean %v, want ~%v", got, want)
	}
}

func TestBernoulliProbability(t *testing.T) {
	s := New(7, "bern")
	n := 50000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if math.Abs(got-0.3) > 0.02 {
		t.Errorf("Bernoulli(0.3) hit rate %v", got)
	}
}

func TestBoundedBetaRange(t *testing.T) {
	s := New(7, "beta")
	for i := 0; i < 2000; i++ {
		v := s.BoundedBeta(0.5, 0.4)
		if v < 0 || v > 1 {
			t.Fatalf("BoundedBeta out of [0,1]: %v", v)
		}
	}
}

func TestZipfDistribution(t *testing.T) {
	s := New(7, "zipf")
	z := NewZipf(s, 100, 1.0)
	if z.N() != 100 {
		t.Fatalf("N = %d", z.N())
	}
	counts := make([]int, 100)
	n := 100000
	for i := 0; i < n; i++ {
		k := z.Next()
		if k < 0 || k >= 100 {
			t.Fatalf("Zipf out of range: %d", k)
		}
		counts[k]++
	}
	// Item 0 should be about twice as popular as item 1 under theta=1.
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("Zipf(1) popularity ratio item0/item1 = %v, want ~2", ratio)
	}
	if counts[0] <= counts[50] {
		t.Error("Zipf head not more popular than middle")
	}
}

func TestZipfUniformWhenThetaZero(t *testing.T) {
	s := New(9, "zipf0")
	z := NewZipf(s, 10, 0)
	counts := make([]int, 10)
	n := 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	for i, c := range counts {
		got := float64(c) / float64(n)
		if math.Abs(got-0.1) > 0.01 {
			t.Errorf("theta=0 item %d frequency %v, want ~0.1", i, got)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	s := New(1, "p")
	assertPanic(t, func() { NewZipf(s, 0, 1) })
	assertPanic(t, func() { NewZipf(s, 5, -1) })
	assertPanic(t, func() { NewZipf(s, 5, math.NaN()) })
	assertPanic(t, func() { s.Weibull(0, 1) })
}

// bisectZipf is the binary search Zipf.Next used before its guide table:
// min{i : cdf[i] >= u}, the oracle the guided walk must match.
func bisectZipf(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestZipfGuideMatchesBisect checks the guided walk against the binary
// search on seeded draws, on every CDF value and guide boundary and on
// their neighbours one ulp away, where an off-by-one would show.
func TestZipfGuideMatchesBisect(t *testing.T) {
	draws := New(1, "zipf-guide-u")
	for _, n := range []int{1, 2, 3, 7, 300, 750, 3000} {
		for _, theta := range []float64{0, 0.5, 0.9, 1.5, 3, 8} {
			z := NewZipf(New(1, "zipf-guide"), n, theta)
			check := func(u float64) {
				if !(u >= 0 && u < 1) {
					return
				}
				if got, want := z.index(u), bisectZipf(z.cdf, u); got != want {
					t.Fatalf("n=%d theta=%v u=%v: guided walk %d, binary search %d", n, theta, u, got, want)
				}
			}
			for i := 0; i < 20000; i++ {
				check(draws.Float64())
			}
			edges := append([]float64{0}, z.cdf...)
			for k := range z.guide {
				edges = append(edges, float64(k)/float64(len(z.guide)))
			}
			for _, c := range edges {
				check(math.Nextafter(c, math.Inf(-1)))
				check(c)
				check(math.Nextafter(c, math.Inf(1)))
			}
			// The walk is exact from any start, so a scrambled guide may
			// only cost time.
			for k := range z.guide {
				z.guide[k] = int32(draws.Intn(n))
			}
			for i := 0; i < 2000; i++ {
				check(draws.Float64())
			}
			for _, c := range z.cdf {
				check(c)
			}

			// Next takes one Float64 draw and answers as the search would.
			a, b := New(5, "zipf-guide-next"), New(5, "zipf-guide-next")
			z = NewZipf(a, n, theta)
			for i := 0; i < 1000; i++ {
				if got, want := z.Next(), bisectZipf(z.cdf, b.Float64()); got != want {
					t.Fatalf("n=%d theta=%v draw %d: Next %d, binary search %d", n, theta, i, got, want)
				}
			}
			if a.Draws() != b.Draws() {
				t.Fatalf("n=%d theta=%v: Next took %d draws, binary search %d", n, theta, a.Draws(), b.Draws())
			}
		}
	}
}

// TestZipfNextAllocFree pins that a draw allocates nothing: the read model
// calls Next once per read.
func TestZipfNextAllocFree(t *testing.T) {
	z := NewZipf(New(1, "zipf-alloc"), 3000, 0.9)
	sum := 0
	if avg := testing.AllocsPerRun(1000, func() { sum += z.Next() }); avg != 0 {
		t.Fatalf("Zipf.Next allocates %.1f times per draw; want 0", avg)
	}
	if sum < 0 {
		t.Fatal("negative item index")
	}
}

func assertPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestPerm(t *testing.T) {
	s := New(3, "perm")
	p := s.Perm(10)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad permutation %v", p)
		}
		seen[v] = true
	}
}
