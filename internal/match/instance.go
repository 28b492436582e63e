// Package match implements the assignment algorithms at the heart of the
// GreenMatch scheduler: given pending deferrable jobs and the slots of the
// planning horizon (each with a capacity in job units and a per-job
// attractiveness weight derived from forecast green headroom), choose for
// every job a slot inside its deadline window so that total weight is
// maximized.
//
// Three solvers are provided: a greedy heuristic (linear-time, used as the
// ablation baseline), the Hungarian algorithm (optimal, O(n^2 m) on the
// capacity-expanded matrix), and a successive-shortest-paths min-cost
// max-flow solver (optimal, handles slot capacities natively). Solver runs
// the same min-cost flow on the grouped (transportation) form, where jobs
// sharing a weight row collapse into one supply node; it is the solve
// GreenMatch runs in production. The objective is lexicographic: first
// maximize the number of assigned jobs, then total weight.
package match

import (
	"fmt"
	"math"
)

// Forbidden marks a (job, slot) pair that must not be assigned (the slot is
// outside the job's deadline window).
var Forbidden = math.Inf(-1)

// IsForbidden reports whether w is the Forbidden sentinel. It is the
// approved comparison helper (see docs/LINTING.md, floateq): -Inf is an
// exact IEEE value, so equality here is well-defined, and centralizing
// the check keeps raw float equality out of the solvers.
func IsForbidden(w float64) bool { return w == Forbidden }

// Instance is one assignment problem. Weights[j][s] is the benefit of
// placing job j in slot s (finite, >= 0) or Forbidden. Capacity[s] is the
// number of jobs slot s can take.
type Instance struct {
	Weights  [][]float64
	Capacity []int
}

// Jobs returns the job count.
func (in Instance) Jobs() int { return len(in.Weights) }

// Slots returns the slot count.
func (in Instance) Slots() int { return len(in.Capacity) }

// Validate reports a descriptive error for a malformed instance.
func (in Instance) Validate() error {
	for j, row := range in.Weights {
		if len(row) != in.Slots() {
			return fmt.Errorf("match: job %d has %d weights, want %d", j, len(row), in.Slots())
		}
		for s, w := range row {
			if IsForbidden(w) {
				continue
			}
			if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
				return fmt.Errorf("match: job %d slot %d weight %v must be finite and >= 0", j, s, w)
			}
		}
	}
	for s, c := range in.Capacity {
		if c < 0 {
			return fmt.Errorf("match: slot %d has negative capacity %d", s, c)
		}
	}
	return nil
}

// maxWeight returns the largest finite weight in the instance (0 if none).
func (in Instance) maxWeight() float64 {
	max := 0.0
	for _, row := range in.Weights {
		for _, w := range row {
			if !IsForbidden(w) && w > max {
				max = w
			}
		}
	}
	return max
}

// Result is a solved assignment: Assign[j] is the slot of job j or -1.
type Result struct {
	Assign []int
	// Assigned is the number of jobs placed.
	Assigned int
	// Weight is the total weight of placed jobs.
	Weight float64
}

// score recomputes Result fields from Assign against the instance, so
// solvers cannot disagree with their own bookkeeping.
func (in Instance) score(assign []int) Result {
	r := Result{Assign: assign}
	for j, s := range assign {
		if s < 0 {
			continue
		}
		r.Assigned++
		r.Weight += in.Weights[j][s]
	}
	return r
}

// checkFeasible panics if the assignment violates capacities or forbidden
// edges; solvers call it before returning, converting solver bugs into loud
// failures instead of silently corrupted schedules.
func (in Instance) checkFeasible(assign []int) {
	used := make([]int, in.Slots())
	for j, s := range assign {
		if s < 0 {
			continue
		}
		if s >= in.Slots() {
			panic(fmt.Sprintf("match: job %d assigned to nonexistent slot %d", j, s))
		}
		if IsForbidden(in.Weights[j][s]) {
			panic(fmt.Sprintf("match: job %d assigned to forbidden slot %d", j, s))
		}
		used[s]++
		if used[s] > in.Capacity[s] {
			panic(fmt.Sprintf("match: slot %d over capacity", s))
		}
	}
}
