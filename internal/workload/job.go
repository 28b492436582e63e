// Package workload models the job population a GreenMatch data center
// schedules: interactive (web) virtual machines that must run immediately
// and run to completion, and deferrable jobs (batch analytics plus the
// storage-maintenance classes: scrubbing, backup, replica repair) that may
// wait for renewable supply within a deadline window.
//
// The synthetic generator reproduces the population statistics of the
// private-cloud week the genre papers replay — 787 web jobs of ~12 h and
// 3148 batch jobs of ~6 h with 12 h deadlines, diurnal web arrivals — under
// a fixed seed, and can scale the population for larger clusters. Traces
// round-trip through CSV so real traces can be substituted.
package workload

import (
	"fmt"
)

// Class enumerates the job classes.
type Class int

// Job classes. Web is the only non-deferrable class.
const (
	Web Class = iota
	Batch
	Scrub
	Backup
	Repair
	numClasses
)

// String returns the lowercase class name.
func (c Class) String() string {
	switch c {
	case Web:
		return "web"
	case Batch:
		return "batch"
	case Scrub:
		return "scrub"
	case Backup:
		return "backup"
	case Repair:
		return "repair"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ParseClass is the inverse of Class.String.
func ParseClass(s string) (Class, error) {
	for c := Web; c < numClasses; c++ {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown job class %q", s)
}

// Deferrable reports whether jobs of this class may be delayed within their
// deadline window.
func (c Class) Deferrable() bool { return c != Web }

// Job is one schedulable unit (a VM in the cloud framing; a maintenance
// task in the storage framing). Times are in slots.
type Job struct {
	// ID is unique within a trace.
	ID int
	// Class determines deferrability and I/O behaviour.
	Class Class
	// Submit is the arrival slot.
	Submit int
	// Duration is the number of slots of service the job needs.
	Duration int
	// Deadline is the slot by which the job must have completed; for web
	// jobs it equals Submit+Duration (no slack by construction).
	Deadline int
	// CPU is the demand in cores while running.
	CPU float64
	// RAMGB is the memory demand while running.
	RAMGB float64
	// IOBound reports whether the job drives disk activity while running
	// (storage maintenance classes do; it pins disks active on its node).
	IOBound bool
	// UtilMean is the job's mean CPU utilization as a fraction of its CPU
	// requirement (cloud jobs typically run well below their reservation,
	// which is what makes resource over-commit safe-ish). Zero means 1.0:
	// the job always uses its full requirement.
	UtilMean float64
}

// UtilAt returns the job's CPU utilization factor for a slot, in (0,1]: a
// deterministic pseudo-random draw around UtilMean with +-30% spread, so
// identical runs see identical utilization without any shared RNG stream.
func (j Job) UtilAt(slot int) float64 {
	if j.UtilMean <= 0 {
		return 1
	}
	x := uint64(j.ID)*0x9E3779B97F4A7C15 ^ uint64(slot)*0xC2B2AE3D27D4EB4F
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	u := float64(x>>11) / float64(uint64(1)<<53) // uniform [0,1)
	util := j.UtilMean * (0.7 + 0.6*u)           // mean ~UtilMean, +-30%
	if util < 0.05 {
		util = 0.05
	}
	if util > 1 {
		util = 1
	}
	return util
}

// Validate reports a descriptive error for an inconsistent job.
func (j Job) Validate() error {
	if j.Duration <= 0 {
		return fmt.Errorf("workload: job %d has non-positive duration %d", j.ID, j.Duration)
	}
	if j.Submit < 0 {
		return fmt.Errorf("workload: job %d has negative submit %d", j.ID, j.Submit)
	}
	if j.Deadline < j.Submit+j.Duration {
		return fmt.Errorf("workload: job %d deadline %d precedes earliest completion %d",
			j.ID, j.Deadline, j.Submit+j.Duration)
	}
	if j.CPU <= 0 || j.RAMGB < 0 {
		return fmt.Errorf("workload: job %d has bad resource demand (cpu=%v ram=%v)", j.ID, j.CPU, j.RAMGB)
	}
	return nil
}

// SlackAt returns the number of slots the job could still be delayed at
// slot `now` given `remaining` slots of unfinished work: the latest start
// that still meets the deadline minus now. Negative slack means the
// deadline can no longer be met even when running continuously.
func (j Job) SlackAt(now, remaining int) int {
	return j.Deadline - remaining - now
}

// Trace is an ordered collection of jobs (ascending Submit, then ID).
type Trace []Job

// Validate checks every job and the ordering invariant.
func (tr Trace) Validate() error {
	for i, j := range tr {
		if err := j.Validate(); err != nil {
			return err
		}
		if i > 0 && (tr[i-1].Submit > j.Submit) {
			return fmt.Errorf("workload: trace not sorted by submit at index %d", i)
		}
	}
	return nil
}

// Stats summarizes a trace.
type Stats struct {
	// Count and CPUHours are per-class totals.
	Count    map[Class]int
	CPUHours map[Class]float64
	// Horizon is the last deadline in the trace.
	Horizon int
}

// ComputeStats scans the trace.
func ComputeStats(tr Trace) Stats {
	st := Stats{Count: make(map[Class]int), CPUHours: make(map[Class]float64)}
	for _, j := range tr {
		st.Count[j.Class]++
		st.CPUHours[j.Class] += j.CPU * float64(j.Duration)
		if j.Deadline > st.Horizon {
			st.Horizon = j.Deadline
		}
	}
	return st
}
