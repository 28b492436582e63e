package oracle

import (
	"fmt"
	"sort"
	"testing"

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
				SlotHours:          1,
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
			offline := SingleSlotStarts(g, v)
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
				SlotHours:          1,
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
			offline := SingleSlotStarts(g, v)
			if fmt.Sprint(online) != fmt.Sprint(offline) {
				t.Errorf("n=%d green=%v: online %v != offline %v", n, greenW, online, offline)
			}
		}
	}
}
