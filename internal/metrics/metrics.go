// Package metrics provides the accounting and reporting layer of the
// GreenMatch simulator: the per-run energy-flow account whose conservation
// identity the integration tests assert, the SLA account for deadline
// tracking, per-slot time series for the figure experiments, and plain-text
// / CSV table rendering for the harness output.
package metrics

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// EnergyAccount accumulates every energy flow of a simulation run. All
// fields are cumulative watt-hours. The settlement identities are:
//
//	Consumption side: Demand + Overheads = GreenDirect + BatteryOut + Brown
//	Production side:  GreenProduced = GreenDirect + BatteryInAccepted + GreenLost
//
// plus the battery-internal identity asserted by the battery package.
type EnergyAccount struct {
	// Demand is the IT-load energy (servers + disks in their scheduled
	// states), excluding transition overheads.
	Demand units.Energy
	// MigrationOverhead is the energy charged for VM migrations caused by
	// consolidation.
	MigrationOverhead units.Energy
	// TransitionOverhead is the energy of disk spin transients, cold-read
	// wake-ups, and node boot/shutdown transients.
	TransitionOverhead units.Energy

	// GreenDirect is renewable energy consumed as it was produced.
	GreenDirect units.Energy
	// BatteryOut is energy delivered by the ESD.
	BatteryOut units.Energy
	// Brown is energy drawn from the grid.
	Brown units.Energy

	// GreenProduced is the total renewable production over the run.
	GreenProduced units.Energy
	// BatteryInAccepted is the surplus the ESD actually drew.
	BatteryInAccepted units.Energy
	// GreenLost is surplus production that neither the load nor the ESD
	// could take (battery full or charge-rate limited, or no battery).
	GreenLost units.Energy

	// BatteryEffLoss and BatterySelfLoss break down the ESD-internal
	// losses (charging efficiency, self-discharge).
	BatteryEffLoss  units.Energy
	BatterySelfLoss units.Energy
}

// TotalLoad returns demand plus all overheads — everything that had to be
// powered.
func (a EnergyAccount) TotalLoad() units.Energy {
	return a.Demand + a.MigrationOverhead + a.TransitionOverhead
}

// TotalSupplied returns the sum of the three supply paths.
func (a EnergyAccount) TotalSupplied() units.Energy {
	return a.GreenDirect + a.BatteryOut + a.Brown
}

// ConservationError returns the largest absolute discrepancy (Wh) across
// the two settlement identities. Integration tests require it to be within
// floating-point noise.
func (a EnergyAccount) ConservationError() float64 {
	cons := math.Abs((a.TotalLoad() - a.TotalSupplied()).Wh())
	prod := math.Abs((a.GreenProduced - (a.GreenDirect + a.BatteryInAccepted + a.GreenLost)).Wh())
	return math.Max(cons, prod)
}

// GreenUtilization returns the fraction of produced renewable energy that
// reached the load (directly or through the battery). Zero production
// reports zero.
func (a EnergyAccount) GreenUtilization() float64 {
	if a.GreenProduced == 0 {
		return 0
	}
	return (a.GreenDirect + a.BatteryOut).Wh() / a.GreenProduced.Wh()
}

// BrownFraction returns the fraction of the total load supplied by the grid.
func (a EnergyAccount) BrownFraction() float64 {
	if a.TotalSupplied() == 0 {
		return 0
	}
	return a.Brown.Wh() / a.TotalSupplied().Wh()
}

// SLAAccount tracks job-level service quality.
type SLAAccount struct {
	// Submitted, Completed count jobs over the run.
	Submitted int
	Completed int
	// DeadlineMisses counts jobs finishing after their deadline (or never).
	DeadlineMisses int
	// TotalWaitSlots accumulates slots jobs spent waiting after submit
	// before first start.
	TotalWaitSlots int
	// MaxWaitSlots is the worst single-job wait.
	MaxWaitSlots int
	// Migrations counts VM migrations performed by consolidation.
	Migrations int
	// Suspensions counts batch-job suspensions.
	Suspensions int
	// ColdReads counts reads that had to wake a parked disk.
	ColdReads int
	// UnservedReads counts reads that found no powered replica.
	UnservedReads int
	// NodeFailures counts node crashes (failure injection).
	NodeFailures int
	// Evictions counts running jobs displaced by node crashes.
	Evictions int
	// RepairJobsGenerated counts re-replication jobs synthesized after
	// crashes.
	RepairJobsGenerated int
	// OverloadEvents counts slots in which a node's actual (utilization-
	// modeled) CPU demand exceeded its physical capacity.
	OverloadEvents int
	// OverloadMigrations counts forced migrations performed to relieve
	// overloaded nodes (also included in Migrations).
	OverloadMigrations int
	// ThrottledSlots counts node-slots left overloaded because no other
	// node had room (performance degradation the over-commit risked).
	ThrottledSlots int
}

// Sub returns the fieldwise difference s - prev: the per-interval deltas
// between two snapshots of a cumulative account. The observability layer
// uses it to turn end-of-slot snapshots into per-slot event counts.
func (s SLAAccount) Sub(prev SLAAccount) SLAAccount {
	return SLAAccount{
		Submitted:           s.Submitted - prev.Submitted,
		Completed:           s.Completed - prev.Completed,
		DeadlineMisses:      s.DeadlineMisses - prev.DeadlineMisses,
		TotalWaitSlots:      s.TotalWaitSlots - prev.TotalWaitSlots,
		MaxWaitSlots:        s.MaxWaitSlots - prev.MaxWaitSlots,
		Migrations:          s.Migrations - prev.Migrations,
		Suspensions:         s.Suspensions - prev.Suspensions,
		ColdReads:           s.ColdReads - prev.ColdReads,
		UnservedReads:       s.UnservedReads - prev.UnservedReads,
		NodeFailures:        s.NodeFailures - prev.NodeFailures,
		Evictions:           s.Evictions - prev.Evictions,
		RepairJobsGenerated: s.RepairJobsGenerated - prev.RepairJobsGenerated,
		OverloadEvents:      s.OverloadEvents - prev.OverloadEvents,
		OverloadMigrations:  s.OverloadMigrations - prev.OverloadMigrations,
		ThrottledSlots:      s.ThrottledSlots - prev.ThrottledSlots,
	}
}

// MeanWaitSlots returns the average pre-start wait per completed job.
func (s SLAAccount) MeanWaitSlots() float64 {
	if s.Completed == 0 {
		return 0
	}
	return float64(s.TotalWaitSlots) / float64(s.Completed)
}

// DegradeAccount tracks how a run behaved while fault injection impaired
// it. A degradation episode starts when faults become active (crashed nodes
// or a scheduled fault-event window) and ends when the backlog has drained
// back to its pre-episode level.
type DegradeAccount struct {
	// DegradedSlots counts slots with faults active: crashed nodes awaiting
	// repair, or any scheduled fault-event window covering the slot.
	DegradedSlots int
	// CoverageLossSlots counts degraded slots that ended with at least one
	// object having no replica on a spinning disk of a powered node.
	CoverageLossSlots int
	// BacklogPeak is the largest waiting-job backlog observed during
	// degraded or recovering slots (zero when no fault ever fired).
	BacklogPeak int
	// RecoverySlots counts post-fault slots until the backlog drained back
	// to its pre-episode level: the recovery time, summed over episodes.
	RecoverySlots int
}

// SlotSample is one row of the per-slot time series.
type SlotSample struct {
	Slot        int
	DemandW     float64 // total load power (incl. overhead energy smeared over the slot)
	GreenW      float64 // renewable production
	GreenUsedW  float64 // green consumed directly
	BatteryOutW float64
	BatteryInW  float64 // surplus accepted by the ESD
	BrownW      float64
	GreenLostW  float64 // surplus neither consumed nor stored
	BatterySoC  float64 // state of charge 0..1 after the slot
	NodesOn     int
	DisksSpun   int
	JobsRunning int
	JobsWaiting int
}

// TimeSeries records one sample per slot.
type TimeSeries struct {
	Samples []SlotSample
}

// Add appends a sample; slots must arrive in order.
func (ts *TimeSeries) Add(s SlotSample) {
	if len(ts.Samples) > 0 && s.Slot <= ts.Samples[len(ts.Samples)-1].Slot {
		panic(fmt.Sprintf("metrics: out-of-order slot %d", s.Slot))
	}
	ts.Samples = append(ts.Samples, s)
}
