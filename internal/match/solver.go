package match

import (
	"fmt"
	"math"
)

// GroupedResult is the solution of a transportation-form assignment: how
// many jobs of each group go to each slot.
type GroupedResult struct {
	// Count[g][s] is the number of group-g jobs assigned to slot s.
	Count [][]int
	// Assigned is the total number of jobs placed.
	Assigned int
	// Weight is the total assignment weight.
	Weight float64
}

// SolverStats counts SolveGrouped calls, for diagnostics and benchmark
// reporting.
type SolverStats struct {
	// MemoHits is always zero. It exists only because the end-to-end
	// benchmark (bench/) still reads it for its match.memo_hits ledger
	// row; the next change to the benchmark drops both.
	MemoHits int
	// ArcRepairs is always zero, kept like MemoHits for the benchmark's
	// match.arc_repairs row.
	ArcRepairs int
	// ColdSolves counts validated solves; every one rebuilds the graph
	// into reused memory.
	ColdSolves int
}

// Solver is the transportation solve: it assigns groups of
// interchangeable jobs to capacitated slots exactly. Group gi consists of
// supply[gi] jobs sharing the weight row weights[gi] (same semantics as
// Instance.Weights, including Forbidden), and slot s accepts at most
// capacity[s] jobs. The objective is lexicographic (max assigned, then max
// weight), identical to Flow on the expanded per-job instance — the
// GreenMatch scheduler relies on this equivalence, which the tests verify,
// to plan hundreds of jobs through a graph whose size depends only on
// (groups x slots).
//
// Every call builds the flow network afresh and runs successive shortest
// paths from zero flow, but into backing arrays kept from the previous
// call, so repeat solves are allocation-free once warm.
//
// Deliberately absent: warm-starting the flow itself. The grouped
// transportation optimum is tie-degenerate (many flows share the optimal
// value), and the simulator's byte-determinism contract pins the *specific*
// flow SSP finds from a zero start; carrying flow across solves would pick
// a different (equally optimal) solution and break run-twice
// reproducibility. See docs/PROFILING.md.
//
// The returned GroupedResult's Count slices alias solver-owned memory and
// are valid only until the next SolveGrouped call; callers must not retain
// or mutate them. The zero value is ready to use. Not safe for concurrent
// use.
type Solver struct {
	stats SolverStats

	g flowGraph

	// edgeIdx[gi*m+s] is the forward group->slot edge index, or -1 when the
	// arc does not exist.
	edgeIdx []int

	res       GroupedResult
	countFlat []int
}

// Stats returns the counters accumulated since the solver was created.
func (sv *Solver) Stats() SolverStats { return sv.stats }

// SolveGrouped solves the grouped instance; see the Solver doc for the
// problem and for the reuse contract on the returned Count slices.
func (sv *Solver) SolveGrouped(weights [][]float64, supply []int, capacity []int) (GroupedResult, error) {
	g := len(weights)
	if len(supply) != g {
		return GroupedResult{}, fmt.Errorf("match: %d weight rows but %d supplies", g, len(supply))
	}
	m := len(capacity)
	maxW := 0.0
	for gi, row := range weights {
		if len(row) != m {
			return GroupedResult{}, fmt.Errorf("match: group %d has %d weights, want %d", gi, len(row), m)
		}
		for s, w := range row {
			if IsForbidden(w) {
				continue
			}
			if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
				return GroupedResult{}, fmt.Errorf("match: group %d slot %d weight %v must be finite and >= 0", gi, s, w)
			}
			if w > maxW {
				maxW = w
			}
		}
	}
	for gi, s := range supply {
		if s < 0 {
			return GroupedResult{}, fmt.Errorf("match: group %d has negative supply %d", gi, s)
		}
	}
	for s, c := range capacity {
		if c < 0 {
			return GroupedResult{}, fmt.Errorf("match: slot %d has negative capacity %d", s, c)
		}
	}

	sv.stats.ColdSolves++
	sv.rebuild(weights, supply, capacity, maxW+1)
	sv.g.minCostMaxFlow(0, g+m+1)
	if err := sv.settle(weights, g, m); err != nil {
		return GroupedResult{}, err
	}
	return sv.res, nil
}

// rebuild constructs the flow network into reused backing arrays. Node
// layout: 0 = source, 1..g = groups, g+1..g+m = slots, g+m+1 = sink.
func (sv *Solver) rebuild(weights [][]float64, supply, capacity []int, bigW float64) {
	g, m := len(weights), len(capacity)
	sv.g.reset(g + m + 2)
	sv.edgeIdx = resizeInts(sv.edgeIdx, g*m)
	src, sink := 0, g+m+1
	for gi := 0; gi < g; gi++ {
		base := gi * m
		for s := 0; s < m; s++ {
			sv.edgeIdx[base+s] = -1
		}
		if supply[gi] == 0 {
			continue
		}
		sv.g.addEdge(src, 1+gi, supply[gi], 0)
		for s, w := range weights[gi] {
			if IsForbidden(w) || capacity[s] == 0 {
				continue
			}
			edgeCap := supply[gi]
			if capacity[s] < edgeCap {
				edgeCap = capacity[s]
			}
			sv.edgeIdx[base+s] = sv.g.addEdge(1+gi, 1+g+s, edgeCap, bigW-w)
		}
	}
	for s := 0; s < m; s++ {
		if capacity[s] > 0 {
			sv.g.addEdge(1+g+s, sink, capacity[s], 0)
		}
	}
}

// settle reads flows off the group->slot arcs into the reusable result,
// accumulating Weight in group-major/slot-minor order. The order is part
// of the byte-determinism contract: Weight is a floating-point sum, so
// another order would round differently.
func (sv *Solver) settle(weights [][]float64, g, m int) error {
	sv.countFlat = resizeInts(sv.countFlat, g*m)
	flat := sv.countFlat
	for i := range flat {
		flat[i] = 0
	}
	if cap(sv.res.Count) < g {
		sv.res.Count = make([][]int, g)
	}
	sv.res.Count = sv.res.Count[:g]
	sv.res.Assigned = 0
	sv.res.Weight = 0
	for gi := 0; gi < g; gi++ {
		base := gi * m
		sv.res.Count[gi] = flat[base : base+m : base+m]
		for s := 0; s < m; s++ {
			ei := sv.edgeIdx[base+s]
			if ei < 0 {
				continue
			}
			f := sv.g.edges[ei].flow
			if f < 0 {
				return fmt.Errorf("match: negative flow on edge [%d %d]", gi, s)
			}
			if f > 0 {
				flat[base+s] = f
				sv.res.Assigned += f
				sv.res.Weight += float64(f) * weights[gi][s]
			}
		}
	}
	return nil
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
