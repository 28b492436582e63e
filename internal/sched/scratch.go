package sched

import "repro/internal/match"

// PlanScratch is reusable planning state a caller may thread through
// View.Scratch to keep the busy planning path allocation-free. The
// simulator owns one per run; policies must not retain it past the Plan
// call that received it, and the Decision slices a scratch-backed Plan
// returns alias scratch memory — valid until the next Plan call with the
// same scratch, which matches the simulator's consume-within-the-slot use.
// Plans with and without scratch are bit-identical; the scratch only
// recycles allocations. The zero value is ready to use. Not safe for
// concurrent use (use one scratch per concurrent run).
type PlanScratch struct {
	capacity []int
	starts   []int
	suspends []int
	parts    []part

	// Grouped-matching state: participants are bucketed by a dense
	// (latest-start offset, remaining) cell id instead of the map+sort the
	// allocating path historically used; ascending cell order equals the
	// sorted key order, so grouping, solving, and settlement are identical.
	partCell  []int
	cellGroup []int
	cellOf    []int
	supply    []int
	memberOff []int
	memberNxt []int
	members   []int
	rowBuf    []float64
	rows      [][]float64

	solver match.Solver
}

// SolverStats exposes the embedded solver's counters.
func (sc *PlanScratch) SolverStats() match.SolverStats { return sc.solver.Stats() }

// scratchInts returns *p resized to n with all elements zeroed, growing the
// backing array only when needed.
func scratchInts(p *[]int, n int) []int {
	s := *p
	if cap(s) < n {
		s = make([]int, n)
		*p = s
	} else {
		s = s[:n]
		*p = s
		for i := range s {
			s[i] = 0
		}
	}
	return s
}

// scratchIntsNoZero is scratchInts without the clear, for buffers the
// caller fully overwrites.
func scratchIntsNoZero(p *[]int, n int) []int {
	s := *p
	if cap(s) < n {
		s = make([]int, n)
		*p = s
	} else {
		s = s[:n]
		*p = s
	}
	return s
}

// QuiescentPlanner is an optional Policy extension: implementations
// guarantee that Plan returns exactly QuiescentDecision() whenever both
// View.Waiting and View.RunningDeferrable are empty, regardless of the
// rest of the view. The simulator relies on that guarantee to skip Plan —
// and everything downstream of it — on quiescent slots (see the
// fast-forward kernel in internal/core). All built-in policies implement
// it; a custom policy that does not simply opts out of slot skipping.
type QuiescentPlanner interface {
	Policy
	// QuiescentDecision returns the constant decision Plan produces on an
	// empty-queue view. The returned slices (if any) must be nil or never
	// mutated.
	QuiescentDecision() Decision
}

// QuiescentDecision implements QuiescentPlanner: with nothing waiting,
// "start everything" is the empty decision.
func (Baseline) QuiescentDecision() Decision { return Decision{StartWaiting: []int{}} }

// QuiescentDecision implements QuiescentPlanner.
func (SpinDown) QuiescentDecision() Decision {
	return Decision{StartWaiting: []int{}, Consolidate: true, SpinDownDisks: true}
}

// QuiescentDecision implements QuiescentPlanner: with no waiting and no
// running deferrables, every branch of Plan returns the bare
// consolidate+spin-down decision (selectStarts and the suspend scan both
// see empty sets, and the degraded backlog bound has nothing to bound).
func (p DeferFraction) QuiescentDecision() Decision {
	return Decision{Consolidate: true, SpinDownDisks: true}
}

// QuiescentDecision implements QuiescentPlanner: Plan's own empty-queue
// early exit returns exactly this.
func (g GreenMatch) QuiescentDecision() Decision {
	return Decision{Consolidate: true, SpinDownDisks: true}
}
