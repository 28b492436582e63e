package match

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// planShapedGrouped builds a grouped instance shaped like the ones
// GreenMatch plans: g job classes over 24 slots, each class allowed a
// prefix of slots up to its latest start, greenness weights in [0, 1).
func planShapedGrouped(g int) (weights [][]float64, supply, capacity []int) {
	const m = 24
	s := rng.New(int64(g), "solver-tier-bench")
	weights = make([][]float64, g)
	supply = make([]int, g)
	for gi := range weights {
		row := make([]float64, m)
		latest := 4 + s.Intn(m-4)
		for k := range row {
			if k > latest {
				row[k] = Forbidden
			} else {
				row[k] = s.Uniform(0, 1)
			}
		}
		weights[gi] = row
		supply[gi] = 1 + s.Intn(4)
	}
	capacity = make([]int, m)
	for k := range capacity {
		capacity[k] = 2*g/m + 2
	}
	return weights, supply, capacity
}

// BenchmarkSolverTierSameInstance times the cold and arc-repair tiers on
// one identical instance, so the two differ only in how the graph is
// prepared: rebuild versus in-place overwrite. Before each timed solve
// the remembered previous instance is edited at its last arc cell (in
// row-major order): to another value for repair (same topology), to
// Forbidden for cold (one arc fewer). Both tiers then scan the whole
// instance in sameInstance and sameTopology before they diverge, run the
// same successive-shortest-paths solve from zero flow, and settle and
// snapshot alike.
func BenchmarkSolverTierSameInstance(b *testing.B) {
	for _, g := range []int{8, 32, 96} {
		weights, supply, capacity := planShapedGrouped(g)
		m := len(capacity)
		last := -1
		for gi, row := range weights {
			for s, w := range row {
				if supply[gi] > 0 && capacity[s] > 0 && !IsForbidden(w) {
					last = gi*m + s
				}
			}
		}
		for _, tier := range []string{"cold", "repair"} {
			b.Run(fmt.Sprintf("g%d/%s", g, tier), func(b *testing.B) {
				var sv Solver
				solve := func() {
					if _, err := sv.SolveGrouped(weights, supply, capacity); err != nil {
						b.Fatal(err)
					}
				}
				solve() // warm the graph and snapshot buffers
				prev := weights[last/m][last%m] + 1
				if tier == "cold" {
					prev = Forbidden
				}
				before := sv.Stats()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sv.prevW[last] = prev
					solve()
				}
				b.StopTimer()
				st := sv.Stats()
				hit := st.ArcRepairs - before.ArcRepairs
				if tier == "cold" {
					hit = st.ColdSolves - before.ColdSolves
				}
				if hit != b.N {
					b.Fatalf("tier %s took %d of %d solves: %+v", tier, hit, b.N, st)
				}
			})
		}
	}
}
