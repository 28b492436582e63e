// Package sched defines the scheduling-policy interface of the GreenMatch
// simulator and implements the policy zoo the evaluation compares:
//
//	Baseline      — run everything ASAP, FFD + over-commit, renewable-blind
//	SpinDown      — Baseline plus coverage-constrained disk spin-down (MAID)
//	DeferFraction — opportunistic deferral of a configurable fraction of
//	                deferrable jobs until green power is available
//	GreenMatch    — the paper's contribution: forecast-driven matching of
//	                deferrable jobs to horizon slots via min-cost flow
//	Mixed         — GreenMatch restricted to a fraction of jobs (the
//	                balanced scheduling+ESD operating point)
//
// Policies are pure planners: each slot the simulator hands them a View of
// the world and they return a Decision. All state a policy keeps must be
// derivable from job IDs so replanning stays deterministic.
package sched

import (
	"fmt"

	"repro/internal/units"
	"repro/internal/workload"
)

// ReserveSlack is the safety margin every deferring policy keeps, in
// slots: a waiting job whose slack has shrunk to it starts now, and a
// running job is suspended only while its slack exceeds it.
const ReserveSlack = 1

// lookahead is the forecast horizon in slots the planners read unless a
// policy sets its own.
const lookahead = 24

// JobRef is the scheduler-visible state of one job. The simulator owns the
// underlying lifecycle; policies treat JobRef as read-only.
type JobRef struct {
	// Job is the immutable trace record.
	Job workload.Job
	// Remaining is the unfinished work in slots.
	Remaining int
	// Running reports whether the job is currently placed on a node.
	Running bool
	// Node is the current node when running (undefined otherwise).
	Node int
}

// SlackAt returns the job's remaining slack at the given slot.
func (r *JobRef) SlackAt(slot int) int {
	return r.Job.SlackAt(slot, r.Remaining)
}

// View is everything a policy may consult when planning one slot.
type View struct {
	// Slot is the current slot index.
	Slot int
	// Waiting are deferrable jobs not currently running (newly arrived or
	// suspended), excluding jobs already promoted to mandatory.
	Waiting []JobRef
	// RunningDeferrable are deferrable jobs currently running that the
	// policy may suspend.
	RunningDeferrable []JobRef
	// GreenForecast[k] is predicted renewable power for slot Slot+k.
	// GreenForecast[0] is the current slot (the genre assumes 1-slot-ahead
	// prediction is error-free; with the Perfect forecaster it is).
	GreenForecast []units.Power
	// EstMandatoryPowerW estimates the power the non-deferrable load will
	// draw this slot (and, by persistence, near-future slots).
	EstMandatoryPowerW units.Power
	// TotalCPUCapacity is the cluster's schedulable CPU in cores,
	// over-commit included.
	TotalCPUCapacity float64
	// EstMandatoryCPU is the CPU (cores) the mandatory load occupies.
	EstMandatoryCPU float64
	// RunningDeferrableCPU is the CPU occupied by running deferrable jobs.
	RunningDeferrableCPU float64
	// PerJobPowerW is the planning constant: marginal power of one running
	// deferrable job, including its amortized share of node idle power.
	PerJobPowerW units.Power
	// BatterySoC is the ESD state of charge in [0,1] (0 when absent).
	BatterySoC float64
	// BatteryUsableWh is the usable ESD capacity (0 when absent).
	BatteryUsableWh units.Energy
	// BatteryEfficiency is the ESD charging efficiency sigma (0 when
	// absent); battery-aware planners use it to price the round trip.
	BatteryEfficiency float64
	// Degraded reports impaired compute capacity: nodes have crashed and
	// await repair (TotalCPUCapacity already excludes them). Policies must
	// degrade gracefully — avoid suspension churn and bound the deferred
	// backlog — rather than plan as if the fleet were whole.
	Degraded bool
	// FailedNodes is the crashed-node count behind Degraded.
	FailedNodes int
	// Scratch, when non-nil, is caller-owned reusable planning memory (the
	// simulator threads one per run). Policies may use it to keep the busy
	// planning path allocation-free; plans must be bit-identical with and
	// without it. Policies must not retain it past the Plan call.
	Scratch *PlanScratch
}

// Decision is a policy's plan for the current slot.
type Decision struct {
	// StartWaiting lists indices into View.Waiting of jobs to start now.
	StartWaiting []int
	// SuspendRunning lists indices into View.RunningDeferrable of jobs to
	// suspend this slot (they return to the waiting pool).
	SuspendRunning []int
	// Consolidate asks the simulator to repack all running jobs onto the
	// fewest nodes (FFD), migrating as needed.
	Consolidate bool
	// SpinDownDisks asks the simulator to park every disk not needed for
	// replica coverage or by I/O-bound jobs.
	SpinDownDisks bool
}

// Check validates the decision against the view it answers: every start
// index must address View.Waiting and every suspend index
// View.RunningDeferrable. The simulator treats a failed check as a policy
// bug and panics with the returned error.
func (d Decision) Check(v *View) error {
	for _, idx := range d.StartWaiting {
		if idx < 0 || idx >= len(v.Waiting) {
			return fmt.Errorf("sched: start index %d outside waiting set of %d", idx, len(v.Waiting))
		}
	}
	for _, idx := range d.SuspendRunning {
		if idx < 0 || idx >= len(v.RunningDeferrable) {
			return fmt.Errorf("sched: suspend index %d outside running-deferrable set of %d", idx, len(v.RunningDeferrable))
		}
	}
	return nil
}

// Policy plans one slot at a time.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Plan returns the decision for the slot described by v.
	Plan(v View) Decision
}

// SpaceJobs estimates how many additional deferrable jobs the cluster can
// seat right now, from the CPU not occupied by mandatory or already-running
// deferrable work, at the average waiting-job CPU demand (1.25 cores when
// there is nothing to average). Zero when the view carries no capacity
// information (tests that only exercise the power budget).
func (v *View) SpaceJobs() int {
	if v.TotalCPUCapacity <= 0 {
		return 1 << 30 // capacity unknown: unbounded
	}
	free := v.TotalCPUCapacity - v.EstMandatoryCPU - v.RunningDeferrableCPU
	if free <= 0 {
		return 0
	}
	return int(free / v.avgWaitingCPU())
}

// avgWaitingCPU returns the mean CPU demand of the waiting jobs (1.25 cores
// when there is nothing to average), the planning constant SpaceJobs and
// backlogBound share.
func (v *View) avgWaitingCPU() float64 {
	avg := 1.25
	if len(v.Waiting) > 0 {
		sum := 0.0
		for i := range v.Waiting {
			sum += v.Waiting[i].Job.CPU
		}
		avg = sum / float64(len(v.Waiting))
	}
	if avg <= 0 {
		avg = 1.25
	}
	return avg
}

// backlogBound is the degraded-mode ceiling on the deferred backlog: one
// full cluster's worth of concurrent jobs at the surviving capacity.
// Deferring more than that under impaired capacity just piles up work the
// cluster cannot drain before deadlines; policies start the overflow
// instead (most urgent first), making the shed explicit in deadline-miss
// accounting rather than silent. Unbounded when the view carries no
// capacity information.
func (v *View) backlogBound() int {
	if v.TotalCPUCapacity <= 0 {
		return 1 << 30
	}
	return int(v.TotalCPUCapacity / v.avgWaitingCPU())
}

// enforceBacklogBound applies the degraded-mode backlog cap to a start
// list: when more jobs would stay deferred than backlogBound allows, the
// most urgent of them (smallest slack, index tiebreak) are started too.
// Returns the augmented start list.
func enforceBacklogBound(v *View, starts []int) []int {
	bound := v.backlogBound()
	deferred := len(v.Waiting) - len(starts)
	if deferred <= bound {
		return starts
	}
	started := make(map[int]bool, len(starts))
	for _, i := range starts {
		started[i] = true
	}
	type cand struct{ idx, slack int }
	var held []cand
	for i := range v.Waiting {
		if r := &v.Waiting[i]; !started[i] {
			held = append(held, cand{idx: i, slack: r.SlackAt(v.Slot)})
		}
	}
	need := deferred - bound
	for n := 0; n < need && len(held) > 0; n++ {
		best := 0
		for k := 1; k < len(held); k++ {
			if held[k].slack < held[best].slack ||
				(held[k].slack == held[best].slack && held[k].idx < held[best].idx) {
				best = k
			}
		}
		starts = append(starts, held[best].idx)
		held = append(held[:best], held[best+1:]...)
	}
	return starts
}

// stickyDefer deterministically selects whether a job participates in
// deferral under a fractional configuration: the same job always gets the
// same answer, across policies and runs, so fraction sweeps are comparable.
func stickyDefer(jobID int, fraction float64) bool {
	if fraction >= 1 {
		return true
	}
	if fraction <= 0 {
		return false
	}
	x := uint64(jobID) * 0x9E3779B97F4A7C15
	x ^= x >> 33
	x *= 0xC2B2AE3D27D4EB4F
	x ^= x >> 29
	// Map to [0,1).
	u := float64(x>>11) / float64(uint64(1)<<53)
	return u < fraction
}

// allIndices returns 0..n-1, the "start everything" decision helper.
func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
