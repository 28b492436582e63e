package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestEmptyDistribution(t *testing.T) {
	var d Distribution
	if d.N() != 0 || d.Mean() != 0 || d.Percentile(0) != 0 || d.Max() != 0 || d.Percentile(50) != 0 {
		t.Fatal("empty distribution should report zeros")
	}
	s := d.Summarize()
	if s.N != 0 || s.P99 != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
}

func TestBasicMoments(t *testing.T) {
	var d Distribution
	for _, v := range []float64{4, 1, 3, 2} {
		d.Add(v)
	}
	if d.N() != 4 || d.sum != 10 || d.Mean() != 2.5 {
		t.Fatalf("moments wrong: n=%d sum=%v mean=%v", d.N(), d.sum, d.Mean())
	}
	if d.Percentile(0) != 1 || d.Max() != 4 {
		t.Fatalf("min/max wrong: %v %v", d.Percentile(0), d.Max())
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var d Distribution
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	cases := map[float64]float64{0: 1, 1: 1, 50: 50, 95: 95, 99: 99, 100: 100}
	for p, want := range cases {
		if got := d.Percentile(p); got != want {
			t.Errorf("P%v = %v, want %v", p, got, want)
		}
	}
}

func TestPercentilePanicsOutOfRange(t *testing.T) {
	var d Distribution
	d.Add(1)
	for _, p := range []float64{-1, 101} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Percentile(%v) did not panic", p)
				}
			}()
			d.Percentile(p)
		}()
	}
}

func TestAddAfterPercentile(t *testing.T) {
	var d Distribution
	d.Add(10)
	_ = d.Percentile(50)
	d.Add(1) // lands ahead of the value already counted
	if d.values[0] != 1 || d.Percentile(50) != 1 {
		t.Fatalf("min %v, P50 %v after adding a new smallest value", d.values[0], d.Percentile(50))
	}
}

func TestPercentileProperties(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		s := rng.New(seed, "stats-prop")
		var d Distribution
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = s.Uniform(-100, 100)
			d.Add(vals[i])
		}
		sort.Float64s(vals)
		// P0 = min, P100 = max, monotone in p.
		if d.Percentile(0) != vals[0] || d.Percentile(100) != vals[n-1] {
			return false
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := d.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	var d Distribution
	for i := 1; i <= 1000; i++ {
		d.Add(float64(i))
	}
	s := d.Summarize()
	if s.N != 1000 || s.P50 != 500 || s.P95 != 950 || s.P99 != 990 || s.Max != 1000 {
		t.Fatalf("summary wrong: %+v", s)
	}
	if math.Abs(s.Mean-500.5) > 1e-9 {
		t.Fatalf("mean %v", s.Mean)
	}
}

// sampleDistribution is the distribution as it was before the counted form:
// one stored value per observation, sorted on demand. The property test
// holds Distribution to it.
type sampleDistribution struct {
	values []float64
	sorted bool
	sum    float64
}

func (d *sampleDistribution) Add(v float64) {
	d.values = append(d.values, v)
	d.sorted = false
	d.sum += v
}

func (d *sampleDistribution) Mean() float64 {
	if len(d.values) == 0 {
		return 0
	}
	return d.sum / float64(len(d.values))
}

func (d *sampleDistribution) Percentile(p float64) float64 {
	if !d.sorted {
		sort.Float64s(d.values)
		d.sorted = true
	}
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

// TestDistributionMatchesSampleOracle feeds 10,000 seeded inputs to the
// counted distribution and to the sample-storing oracle. N, Min, Max and
// Mean must agree bit for bit, and so must every integer percentile. The
// one allowed difference is the sign of a zero when an input holds both
// -0 and +0: the oracle's unstable sort leaves their order unspecified.
func TestDistributionMatchesSampleOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(22))
	negZero := math.Copysign(0, -1)
	// The read model's latencies: a warm read, and a cold read on each
	// shipped disk profile (base latency plus spin-up seconds in ms).
	reads := []float64{8, 8 + 10.0*1000, 8 + 15.0*1000}
	special := []float64{0, negZero, 0.1, 0.2, 0.3, 1e16, -1e16, 1e-300, math.MaxFloat64 / 4, -7.25}
	for trial := 0; trial < 10000; trial++ {
		var pool []float64
		switch trial % 5 {
		case 0: // the read model's values, heavy repeats
			pool = reads[:1+rnd.Intn(len(reads))]
		case 1: // a single distinct value
			pool = []float64{special[rnd.Intn(len(special))]}
		case 2: // signed zeros among a few values
			pool = []float64{0, negZero, special[rnd.Intn(len(special))]}
		case 3: // a small pool of arbitrary values
			for k := 1 + rnd.Intn(6); k > 0; k-- {
				pool = append(pool, special[rnd.Intn(len(special))], rnd.NormFloat64()*100)
			}
		case 4: // mostly distinct values
			for k := 1 + rnd.Intn(300); k > 0; k-- {
				pool = append(pool, math.Round(rnd.Float64()*1e6)/8-6e4)
			}
		}
		var got Distribution
		var want sampleDistribution
		var hasNeg, hasPos bool
		for n := 1 + rnd.Intn(400); n > 0; n-- {
			v := pool[rnd.Intn(len(pool))]
			got.Add(v)
			want.Add(v)
			if v == 0 {
				hasNeg = hasNeg || math.Signbit(v)
				hasPos = hasPos || !math.Signbit(v)
			}
		}
		same := func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b) || (hasNeg && hasPos && a == 0 && b == 0)
		}
		if got.N() != len(want.values) {
			t.Fatalf("trial %d: N %d, oracle %d", trial, got.N(), len(want.values))
		}
		if math.Float64bits(got.Mean()) != math.Float64bits(want.Mean()) {
			t.Fatalf("trial %d: mean %v, oracle %v", trial, got.Mean(), want.Mean())
		}
		if !same(got.Max(), want.Percentile(100)) {
			t.Fatalf("trial %d: max %v, oracle %v", trial, got.Max(), want.Percentile(100))
		}
		for p := 0; p <= 100; p++ {
			if g, w := got.Percentile(float64(p)), want.Percentile(float64(p)); !same(g, w) {
				t.Fatalf("trial %d: P%d %v, oracle %v", trial, p, g, w)
			}
		}
	}
}

// TestDistributionCountsByBits checks that -0 and +0 are counted apart,
// -0 first, and that values equal in bits share one count.
func TestDistributionCountsByBits(t *testing.T) {
	var d Distribution
	for _, v := range []float64{0, math.Copysign(0, -1), 8, 0, 8, 8} {
		d.Add(v)
	}
	values, counts, sum := d.State()
	if len(values) != 3 || !math.Signbit(values[0]) || math.Signbit(values[1]) || values[2] != 8 {
		t.Fatalf("values %v, want [-0 0 8]", values)
	}
	if !slices.Equal(counts, []int{1, 2, 3}) || sum != 24 {
		t.Fatalf("counts %v sum %v, want [1 2 3] and 24", counts, sum)
	}
}

// TestDistributionStateRoundTrip checks that a restored distribution
// reports what the original does and keeps accumulating the same sum.
func TestDistributionStateRoundTrip(t *testing.T) {
	var d Distribution
	for _, v := range []float64{0.1, 8, 0.2, 10008, 8, 0.1} {
		d.Add(v)
	}
	var r Distribution
	r.RestoreState(d.State())
	d.Add(0.3)
	r.Add(0.3)
	if d.Summarize() != r.Summarize() || math.Float64bits(d.sum) != math.Float64bits(r.sum) || d.values[0] != r.values[0] {
		t.Fatalf("restored %+v, original %+v", r.Summarize(), d.Summarize())
	}
}

// TestDistributionAddAllocFree pins that adding a value already counted
// allocates nothing: a warm distribution costs no memory per read.
func TestDistributionAddAllocFree(t *testing.T) {
	var d Distribution
	d.Add(8)
	d.Add(10008)
	if n := testing.AllocsPerRun(1000, func() {
		d.Add(8)
		d.Add(10008)
	}); n != 0 {
		t.Fatalf("Add on a warm distribution allocates %v times per run", n)
	}
}
