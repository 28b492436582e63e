package oracle

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/match"
	"repro/internal/sched"
	"repro/internal/units"
	"repro/internal/workload"
)

// mkRef builds a deferrable waiting-job reference for differential views.
func mkRef(id, submit, duration, deadline, remaining int) sched.JobRef {
	return sched.JobRef{
		Job: workload.Job{
			ID:       id,
			Class:    workload.Batch,
			Submit:   submit,
			Duration: duration,
			Deadline: deadline,
			CPU:      1,
		},
		Remaining: remaining,
	}
}

// TestSingleSlotDifferential pits GreenMatch.Plan at Horizon 1 (the online
// grouped match.Solver path) against the oracle's per-job
// match.Flow reconstruction of the same instance on a grid of single-slot
// views. Divergence would mean the offline and online formulations no
// longer agree on what "the same matching problem" is.
func TestSingleSlotDifferential(t *testing.T) {
	g := sched.GreenMatch{Horizon: 1}
	type tc struct {
		name    string
		greenW  float64
		mandW   float64
		waiting []sched.JobRef
		cpuCap  float64
	}
	cases := []tc{
		{
			name:   "capacity binds",
			greenW: 100, mandW: 20,
			waiting: []sched.JobRef{
				mkRef(1, 0, 2, 30, 2),
				mkRef(2, 0, 3, 10, 3),
				mkRef(3, 0, 1, 40, 1),
				mkRef(4, 0, 4, 12, 4),
				mkRef(5, 0, 2, 8, 2),
			},
		},
		{
			name:   "no green starts everything",
			greenW: 10, mandW: 50,
			waiting: []sched.JobRef{
				mkRef(1, 0, 2, 30, 2),
				mkRef(2, 0, 3, 25, 3),
			},
		},
		{
			name:   "forced starts join matched ones",
			greenW: 60, mandW: 10,
			waiting: []sched.JobRef{
				mkRef(1, 0, 2, 3, 2),  // slack 1: forced
				mkRef(2, 0, 2, 40, 2), // plenty of slack
				mkRef(3, 0, 1, 2, 1),  // slack 1: forced
				mkRef(4, 0, 5, 50, 5),
			},
		},
		{
			name:   "cpu space caps the matching",
			greenW: 500, mandW: 0, cpuCap: 4,
			waiting: []sched.JobRef{
				mkRef(1, 0, 2, 30, 2),
				mkRef(2, 0, 2, 31, 2),
				mkRef(3, 0, 2, 32, 2),
				mkRef(4, 0, 2, 33, 2),
				mkRef(5, 0, 2, 34, 2),
				mkRef(6, 0, 2, 35, 2),
			},
		},
		{
			name:   "abundance starts all",
			greenW: 10000, mandW: 0,
			waiting: []sched.JobRef{
				mkRef(1, 0, 2, 30, 2),
				mkRef(2, 0, 6, 25, 6),
				mkRef(3, 0, 1, 9, 1),
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := sched.View{
				Slot:               5,
				Waiting:            c.waiting,
				GreenForecast:      []units.Power{units.Power(c.greenW)},
				EstMandatoryPowerW: units.Power(c.mandW),
				PerJobPowerW:       25,
				TotalCPUCapacity:   c.cpuCap,
			}
			// Shift deadlines so slot 5 leaves the intended slack.
			for i := range v.Waiting {
				v.Waiting[i].Job.Deadline += v.Slot
			}
			online := append([]int(nil), g.Plan(v).StartWaiting...)
			sort.Ints(online)
			offline := SingleSlotStarts(v)
			if fmt.Sprint(online) != fmt.Sprint(offline) {
				t.Errorf("online plan %v != offline flow %v", online, offline)
			}
		})
	}
}

// TestSingleSlotDifferentialSweep fuzzes the same comparison across many
// deterministic view shapes: job counts, green levels, and slack mixes.
func TestSingleSlotDifferentialSweep(t *testing.T) {
	g := sched.GreenMatch{Horizon: 1}
	for n := 1; n <= 9; n++ {
		for _, greenW := range []float64{0, 40, 90, 260, 1000} {
			v := sched.View{
				Slot:               3,
				GreenForecast:      []units.Power{units.Power(greenW)},
				EstMandatoryPowerW: 15,
				PerJobPowerW:       25,
			}
			for i := 0; i < n; i++ {
				// Deterministic variety: durations 1..4, slack 1..5.
				dur := 1 + (i*7)%4
				slack := 1 + (i*3)%5
				deadline := v.Slot + dur + slack
				v.Waiting = append(v.Waiting, mkRef(100+i, 0, dur, deadline, dur))
			}
			online := append([]int(nil), g.Plan(v).StartWaiting...)
			sort.Ints(online)
			offline := SingleSlotStarts(v)
			if fmt.Sprint(online) != fmt.Sprint(offline) {
				t.Errorf("n=%d green=%v: online %v != offline %v", n, greenW, online, offline)
			}
		}
	}
}

// SingleSlotStarts replays GreenMatch's plan for a one-slot horizon as an
// explicit per-job assignment solved by match.Flow: the same capacity
// derivation, forced-start partition, and weight row as
// sched.GreenMatch.Plan at Horizon 1, but through the offline per-job
// formulation instead of the online grouped match.Solver. The
// differential test asserts both produce the identical start set — the
// "same instance, same matching" bridge between the oracle's offline
// world and the online planner. The redundancy is deliberate: match.Flow
// shares only the SSP kernel with match.Solver, not its grouping, graph
// build or settlement, so it stays an independent reference for the one
// production solve. Only full-participation configurations
// are supported (Fraction 0 or 1); fractional mixes partition jobs by a
// hash this helper deliberately does not replicate.
func SingleSlotStarts(v sched.View) []int {
	head := forecastAt(v, 0).Watts() - v.EstMandatoryPowerW.Watts()
	capacity := 0
	if head > 0 {
		capacity = int(head / v.PerJobPowerW.Watts())
	}
	if sj := v.SpaceJobs(); capacity > sj {
		capacity = sj
	}

	var starts, parts []int
	for i, r := range v.Waiting {
		if r.SlackAt(v.Slot) <= sched.ReserveSlack {
			starts = append(starts, i)
			continue
		}
		parts = append(parts, i)
	}
	// Mirror Plan's no-green degradation: a horizon with zero capacity
	// starts everything.
	if capacity == 0 {
		return allWaiting(v)
	}
	if capacity > len(starts) {
		capacity -= len(starts)
	} else {
		capacity = 0
	}
	if len(parts) > 0 {
		in := match.Instance{
			Weights:  make([][]float64, len(parts)),
			Capacity: []int{capacity},
		}
		for j := range parts {
			in.Weights[j] = singleSlotRow(v)
		}
		res, err := match.Flow(in)
		if err != nil {
			panic("oracle: invalid single-slot instance: " + err.Error())
		}
		for j, slot := range res.Assign {
			if slot == 0 {
				starts = append(starts, parts[j])
			}
		}
	}
	sort.Ints(starts)
	return starts
}

// singleSlotRow is GreenMatch's weight row at Horizon 1 with BatteryAware
// off: the share of one job-power that the slot's green headroom covers,
// plus the whole earliness bonus (0.05 in internal/sched). At one slot the
// online planner clamps every job's latest start and remaining duration to
// the same cell, so every participant gets this row and the matching turns
// only on the capacity and on how each solver settles equal weights.
func singleSlotRow(v sched.View) []float64 {
	perJob := v.PerJobPowerW.Watts()
	covered := 0.0
	if head := forecastAt(v, 0).Watts() - v.EstMandatoryPowerW.Watts(); head > 0 {
		covered = min(head, perJob) / perJob
	}
	return []float64{covered + 0.05}
}

func forecastAt(v sched.View, k int) units.Power {
	if k < 0 || k >= len(v.GreenForecast) {
		return 0
	}
	return v.GreenForecast[k]
}

func allWaiting(v sched.View) []int {
	out := make([]int, len(v.Waiting))
	for i := range out {
		out[i] = i
	}
	return out
}
