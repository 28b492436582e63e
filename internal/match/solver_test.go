package match

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// randomGrouped draws a random grouped instance: up to 3 jobs per group,
// up to 4 per slot, a quarter of the cells forbidden, weights on a
// half-unit grid so many assignments tie.
func randomGrouped(s *rng.Stream, g, m int) (weights [][]float64, supply, capacity []int) {
	weights = make([][]float64, g)
	supply = make([]int, g)
	for i := range weights {
		weights[i] = make([]float64, m)
		for k := range weights[i] {
			if s.Bernoulli(0.25) {
				weights[i][k] = Forbidden
			} else {
				weights[i][k] = math.Round(s.Uniform(0, 10)*2) / 2
			}
		}
		supply[i] = s.Intn(4)
	}
	capacity = make([]int, m)
	for k := range capacity {
		capacity[k] = s.Intn(5)
	}
	return weights, supply, capacity
}

// assertSameGrouped requires two solver results to match bit-for-bit:
// identical counts, identical Assigned, and identical Weight (== on
// float64, not approximate — the simulator's byte-determinism contract
// rides on this).
func assertSameGrouped(t *testing.T, tag string, got, want GroupedResult) {
	t.Helper()
	if got.Assigned != want.Assigned {
		t.Fatalf("%s: Assigned %d != %d", tag, got.Assigned, want.Assigned)
	}
	if got.Weight != want.Weight {
		t.Fatalf("%s: Weight %v != %v (must be bit-identical)", tag, got.Weight, want.Weight)
	}
	if len(got.Count) != len(want.Count) {
		t.Fatalf("%s: %d count rows != %d", tag, len(got.Count), len(want.Count))
	}
	for gi := range want.Count {
		for s := range want.Count[gi] {
			if got.Count[gi][s] != want.Count[gi][s] {
				t.Fatalf("%s: Count[%d][%d] = %d, want %d", tag, gi, s, got.Count[gi][s], want.Count[gi][s])
			}
		}
	}
}

// solveFresh solves one instance on a new Solver, so no state from an
// earlier solve can reach the result.
func solveFresh(t *testing.T, weights [][]float64, supply, capacity []int) GroupedResult {
	t.Helper()
	var sv Solver
	res, err := sv.SolveGrouped(weights, supply, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSolverSimple(t *testing.T) {
	// Two groups: 3 urgent jobs (only slot 0), 2 flexible jobs preferring
	// slot 1. Slot capacities 3 and 2.
	weights := [][]float64{
		{5, Forbidden},
		{1, 9},
	}
	res := solveFresh(t, weights, []int{3, 2}, []int{3, 2})
	if res.Count[0][0] != 3 || res.Count[1][1] != 2 {
		t.Fatalf("counts wrong: %+v", res.Count)
	}
	if res.Assigned != 5 || math.Abs(res.Weight-(15+18)) > 1e-9 {
		t.Fatalf("totals wrong: %+v", res)
	}
}

func TestSolverRespectsCapacity(t *testing.T) {
	res := solveFresh(t, [][]float64{{7}}, []int{10}, []int{4})
	if res.Count[0][0] != 4 || res.Assigned != 4 {
		t.Fatalf("capacity ignored: %+v", res)
	}
}

func TestSolverLexicographic(t *testing.T) {
	// Group 0 can use both slots (low weight); group 1 only slot 0 (high
	// weight). Max-assigned requires group 0 to vacate slot 0.
	weights := [][]float64{
		{1, 1},
		{100, Forbidden},
	}
	res := solveFresh(t, weights, []int{1, 1}, []int{1, 1})
	if res.Assigned != 2 {
		t.Fatalf("want both assigned: %+v", res)
	}
	if res.Count[1][0] != 1 || res.Count[0][1] != 1 {
		t.Fatalf("assignment wrong: %+v", res.Count)
	}
}

// expand replicates each group into per-job rows so Flow can solve the
// identical instance.
func expand(weights [][]float64, supply []int, capacity []int) Instance {
	in := Instance{Capacity: capacity}
	for g, n := range supply {
		for k := 0; k < n; k++ {
			row := append([]float64(nil), weights[g]...)
			in.Weights = append(in.Weights, row)
		}
	}
	return in
}

// The grouped transportation solve, once the standalone FlowGrouped, is a
// fresh Solver now; the TestFlowGrouped* tests keep checking it under their
// old names.

// TestFlowGroupedEqualsExpandedFlow feeds one reused Solver a random mix of
// shapes and checks every result against the per-job Flow on the expanded
// instance, an independent solve of the same problem (same Assigned, same
// Weight), and bit-for-bit against a fresh Solver.
func TestFlowGroupedEqualsExpandedFlow(t *testing.T) {
	s := rng.New(21, "grouped-cross")
	var sv Solver
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		g := 1 + s.Intn(5)
		m := 1 + s.Intn(5)
		weights, supply, capacity := randomGrouped(s, g, m)
		grouped, err := sv.SolveGrouped(weights, supply, capacity)
		if err != nil {
			t.Fatal(err)
		}
		tag := fmt.Sprintf("trial %d", trial)
		assertSameGrouped(t, tag, grouped, solveFresh(t, weights, supply, capacity))
		flat, err := Flow(expand(weights, supply, capacity))
		if err != nil {
			t.Fatal(err)
		}
		if grouped.Assigned != flat.Assigned || math.Abs(grouped.Weight-flat.Weight) > 1e-6 {
			t.Fatalf("%s: grouped (%d, %v) != expanded flow (%d, %v)\nweights=%v supply=%v capacity=%v",
				tag, grouped.Assigned, grouped.Weight, flat.Assigned, flat.Weight, weights, supply, capacity)
		}
		// Counts respect supply and capacity.
		for gi := range weights {
			tot := 0
			for k := range capacity {
				tot += grouped.Count[gi][k]
			}
			if tot > supply[gi] {
				t.Fatalf("%s: group %d over supply", tag, gi)
			}
		}
		for k := range capacity {
			tot := 0
			for gi := range weights {
				tot += grouped.Count[gi][k]
			}
			if tot > capacity[k] {
				t.Fatalf("%s: slot %d over capacity", tag, k)
			}
		}
	}
	if st := sv.Stats(); st.ColdSolves != trials || st.MemoHits != 0 || st.ArcRepairs != 0 {
		t.Fatalf("want %d cold solves and nothing else, got %+v", trials, st)
	}
}

// TestSolverMatchesFlowGroupedRandom checks a reused Solver bit-for-bit
// against a fresh one over random shapes, so reuse across changing shapes
// cannot leak state from one solve into the next.
func TestSolverMatchesFlowGroupedRandom(t *testing.T) {
	s := rng.New(37, "solver-cross")
	var sv Solver
	const trials = 120
	for trial := 0; trial < trials; trial++ {
		g := 1 + s.Intn(5)
		m := 1 + s.Intn(5)
		weights, supply, capacity := randomGrouped(s, g, m)
		got, err := sv.SolveGrouped(weights, supply, capacity)
		if err != nil {
			t.Fatal(err)
		}
		assertSameGrouped(t, fmt.Sprintf("trial %d", trial), got, solveFresh(t, weights, supply, capacity))
	}
	if st := sv.Stats(); st.ColdSolves != trials {
		t.Fatalf("%d solves counted %+v, want every one cold", trials, st)
	}
}

// badGrouped lists malformed grouped instances that validation must reject.
var badGrouped = []struct {
	name     string
	weights  [][]float64
	supply   []int
	capacity []int
}{
	{"supply length mismatch", [][]float64{{1}}, []int{1, 2}, []int{1}},
	{"ragged weights", [][]float64{{1, 2}}, []int{1}, []int{1}},
	{"negative weight", [][]float64{{-1}}, []int{1}, []int{1}},
	{"negative supply", [][]float64{{1}}, []int{-1}, []int{1}},
	{"negative capacity", [][]float64{{1}}, []int{1}, []int{-1}},
}

func TestFlowGroupedErrors(t *testing.T) {
	for _, c := range badGrouped {
		var sv Solver
		if _, err := sv.SolveGrouped(c.weights, c.supply, c.capacity); err == nil {
			t.Errorf("%s should fail", c.name)
		}
	}
}

// TestSolverValidationErrors runs every malformed instance through one
// reused Solver: each must fail, and a failed validation must not poison
// the valid solve that follows it.
func TestSolverValidationErrors(t *testing.T) {
	var sv Solver
	want := solveFresh(t, [][]float64{{7}}, []int{10}, []int{4})
	for _, c := range badGrouped {
		if _, err := sv.SolveGrouped(c.weights, c.supply, c.capacity); err == nil {
			t.Errorf("%s should fail", c.name)
		}
		got, err := sv.SolveGrouped([][]float64{{7}}, []int{10}, []int{4})
		if err != nil {
			t.Fatal(err)
		}
		assertSameGrouped(t, "after "+c.name, got, want)
	}
}

func TestSolverAllocFreeWhenWarm(t *testing.T) {
	s := rng.New(53, "solver-alloc")
	g, m := 6, 24
	// Two instances with different topologies, plus a value-only variant
	// of the first, alternated so every solve rebuilds a different graph.
	wA, supA, capA := randomGrouped(s, g, m)
	wB, supB, capB := randomGrouped(s, g, m)
	wC := make([][]float64, g)
	for i := range wA {
		wC[i] = append([]float64(nil), wA[i]...)
		for k := range wC[i] {
			if !IsForbidden(wC[i][k]) {
				wC[i][k] += 0.25
			}
		}
	}
	var sv Solver
	solves := 0
	solve := func(w [][]float64, sup, cap []int) {
		solves++
		if _, err := sv.SolveGrouped(w, sup, cap); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up the backing arrays.
	for i := 0; i < 4; i++ {
		solve(wA, supA, capA)
		solve(wB, supB, capB)
		solve(wC, supA, capA)
	}
	allocs := testing.AllocsPerRun(50, func() {
		solve(wA, supA, capA)
		solve(wC, supA, capA)
		solve(wB, supB, capB)
		solve(wB, supB, capB) // a repeated instance is solved again, too
	})
	if allocs != 0 {
		t.Fatalf("warm solver allocated %v per round, want 0", allocs)
	}
	if st := sv.Stats(); st.ColdSolves != solves {
		t.Fatalf("%d solves counted %+v, want every one cold", solves, st)
	}
}
