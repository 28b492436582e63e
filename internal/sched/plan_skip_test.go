package sched

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/match"
	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/workload"
)

// skipRef is what GreenMatch.Plan would decide if it always solved: the
// decision, the current slot's capacity before and after the forced
// starts, the number of matching participants, and, per solver, how many
// jobs the unconditional solve put into the current slot: "solver" for the
// grouped match.Solver and "flow", "hungarian" and "greedy" for the per-job
// solvers.
type skipRef struct {
	d          Decision
	cap0Before int
	cap0       int
	parts      int
	slot0      map[string]int
}

// planReference rebuilds the instance Plan derives from v and solves it
// unconditionally — grouped with a fresh match.Solver, per job with
// match.Flow, match.Hungarian and match.Greedy — then assembles the
// decision the solver g selects would lead to. It is an independent
// reconstruction of Plan without the dark-slot shortcut; the per-job
// optimal solvers show that no exact solve, grouped or not, uses a slot
// with no capacity.
func planReference(t *testing.T, g GreenMatch, v View) skipRef {
	t.Helper()
	h := g.horizon()
	capacity := make([]int, h)
	total := 0
	for k := range capacity {
		head := greenAt(v.GreenForecast, k).Watts() - v.EstMandatoryPowerW.Watts()
		if head > 0 {
			capacity[k] = int(head / v.PerJobPowerW.Watts())
		}
		if sj := v.SpaceJobs(); capacity[k] > sj {
			capacity[k] = sj
		}
		total += capacity[k]
	}
	if total == 0 {
		t.Fatal("view offers no green capacity over the horizon; the generator must light a later slot")
	}
	var forced []int
	var parts []part
	for i, r := range v.Waiting {
		if !stickyDefer(r.Job.ID, g.fraction()) || r.SlackAt(v.Slot) <= ReserveSlack {
			forced = append(forced, i)
			continue
		}
		parts = append(parts, part{idx: i, latestStart: v.Slot + r.SlackAt(v.Slot), remaining: r.Remaining})
	}
	ref := skipRef{cap0Before: capacity[0], parts: len(parts), slot0: map[string]int{}}
	capacity[0] -= len(forced)
	if capacity[0] < 0 {
		capacity[0] = 0
	}
	ref.cap0 = capacity[0]
	starts := append([]int(nil), forced...)

	if len(parts) > 0 {
		// Grouped instance: one group per (latest-start offset, remaining)
		// cell, both clamped to the horizon, in ascending cell order, with
		// members in participant order.
		type cell struct{ off, rem int }
		members := map[cell][]int{}
		for i, p := range parts {
			c := cell{off: min(p.latestStart-v.Slot, h-1), rem: max(min(p.remaining, h), 0)}
			members[c] = append(members[c], i)
		}
		cells := make([]cell, 0, len(members))
		for c := range members {
			cells = append(cells, c)
		}
		sort.Slice(cells, func(i, j int) bool {
			if cells[i].off != cells[j].off {
				return cells[i].off < cells[j].off
			}
			return cells[i].rem < cells[j].rem
		})
		rows := make([][]float64, len(cells))
		supply := make([]int, len(cells))
		for gi, c := range cells {
			rows[gi] = weightRow(g, v, h, v.Slot+c.off, c.rem)
			supply[gi] = len(members[c])
		}
		var sv match.Solver
		grouped, err := sv.SolveGrouped(rows, supply, capacity)
		if err != nil {
			t.Fatal(err)
		}
		for gi := range cells {
			ref.slot0["solver"] += grouped.Count[gi][0]
		}

		// Per-job instance.
		in := match.Instance{Weights: make([][]float64, len(parts)), Capacity: capacity}
		for j, p := range parts {
			in.Weights[j] = weightRow(g, v, h, p.latestStart, p.remaining)
		}
		var greedy match.Result
		for _, ps := range []struct {
			name  string
			solve func(match.Instance) (match.Result, error)
		}{{"flow", match.Flow}, {"hungarian", match.Hungarian}, {"greedy", match.Greedy}} {
			res, err := ps.solve(in)
			if err != nil {
				t.Fatal(err)
			}
			if ps.name == "greedy" {
				greedy = res
			}
			for _, slot := range res.Assign {
				if slot == 0 {
					ref.slot0[ps.name]++
				}
			}
		}

		if g.solver() == SolverGreedy {
			for j, slot := range greedy.Assign {
				if slot == 0 {
					starts = append(starts, parts[j].idx)
				}
			}
		} else {
			for gi, c := range cells {
				for _, i := range members[c][:grouped.Count[gi][0]] {
					starts = append(starts, parts[i].idx)
				}
			}
		}
	}
	if len(starts) == 0 {
		starts = nil
	}
	ref.d = Decision{StartWaiting: starts, Consolidate: true, SpinDownDisks: true}
	if v.Degraded {
		ref.d.StartWaiting = enforceBacklogBound(&v, ref.d.StartWaiting)
		return ref
	}
	headroomNow := greenAt(v.GreenForecast, 0).Watts() - v.EstMandatoryPowerW.Watts()
	if headroomNow < v.PerJobPowerW.Watts()*float64(len(v.RunningDeferrable)) {
		buffers := g.BatteryAware && v.BatteryEfficiency > 0 &&
			v.BatteryUsableWh.Wh() >= 2*v.EstMandatoryPowerW.Watts()
		if !buffers {
			for i, r := range v.RunningDeferrable {
				if stickyDefer(r.Job.ID, g.fraction()) && r.SlackAt(v.Slot) > ReserveSlack {
					ref.d.SuspendRunning = append(ref.d.SuspendRunning, i)
				}
			}
		}
	}
	return ref
}

// skipView draws a busy view whose current slot is dark, lit beyond the
// forced starts, or lit but consumed by them, with at least one lit later
// slot so the whole-horizon SpinDown fallback never fires.
func skipView(s *rng.Stream, mode string, fraction float64) View {
	const perJob = 25.0
	slot := s.Intn(200)
	mandatory := s.Uniform(20, 80)
	var waiting []JobRef
	forced := 0
	n := 4 + s.Intn(28)
	for id := 0; id < n; id++ {
		dur := 1 + s.Intn(6)
		remaining := 1 + s.Intn(dur)
		slack := 2 + s.Intn(30)
		if s.Bernoulli(0.2) || (mode == "consumed" && id == 0) {
			slack = s.Intn(2) // at or inside the reserve: a forced start
		}
		jobID := 1000*slot + id
		if slack <= 1 || !stickyDefer(jobID, fraction) {
			forced++
		}
		waiting = append(waiting, JobRef{
			Job:       workload.Job{ID: jobID, Class: workload.Batch, Submit: slot, Duration: dur, Deadline: slot + remaining + slack, CPU: 1, RAMGB: 2},
			Remaining: remaining,
		})
	}
	var running []JobRef
	for i := s.Intn(5); i > 0; i-- {
		running = append(running, mkRef(500000+slot*10+i, workload.Batch, slot-3, 4, slot+1+s.Intn(20), 1+s.Intn(3)))
	}

	h := 12 + s.Intn(13) // forecasts shorter than the horizon are zero-padded
	forecast := make([]units.Power, h)
	for k := 1; k < h; k++ {
		if s.Bernoulli(0.6) {
			forecast[k] = units.Power(mandatory + perJob*float64(s.Intn(8)) + s.Uniform(0, perJob))
		} else {
			forecast[k] = units.Power(s.Uniform(0, mandatory))
		}
	}
	forecast[1+s.Intn(h-1)] = units.Power(mandatory + perJob*float64(1+s.Intn(6)))
	switch mode {
	case "dark":
		forecast[0] = units.Power(s.Uniform(0, mandatory+perJob-1))
	case "lit":
		forecast[0] = units.Power(mandatory + perJob*float64(forced+1+s.Intn(6)) + s.Uniform(0, perJob-1))
	case "consumed":
		forecast[0] = units.Power(mandatory + perJob*float64(1+s.Intn(forced)) + s.Uniform(0, perJob-1))
	}

	v := View{
		Slot:               slot,
		Waiting:            waiting,
		RunningDeferrable:  running,
		GreenForecast:      forecast,
		EstMandatoryPowerW: units.Power(mandatory),
		PerJobPowerW:       perJob,
	}
	if s.Bernoulli(0.3) {
		v.BatterySoC = s.Uniform(0, 1)
		v.BatteryUsableWh = units.Energy(s.Uniform(0, 400))
		v.BatteryEfficiency = 0.9
	}
	if s.Bernoulli(0.15) {
		v.Degraded = true
		v.FailedNodes = 1
		v.TotalCPUCapacity = float64(n + 10 + s.Intn(20))
	}
	return v
}

// TestPlanSkipEquivalence pins the exactness of Plan's dark-slot shortcut
// on seeded busy views. Where the current slot has no capacity left after
// forced starts, every solver — grouped and per job — assigns nothing to
// it, and Plan returns the decision the unconditional solve leads to
// without touching the scratch solver. Where capacity is left, the solver
// still runs and Plan still returns the solved decision. One scratch per
// solver is reused across views, so a skipped solve must also leave later
// solves exact.
func TestPlanSkipEquivalence(t *testing.T) {
	s := rng.New(15, "plan-skip")
	scratch := map[Solver]*PlanScratch{}
	var skippedDark, skippedConsumed, solved, startedNow int
	for trial := 0; trial < 300; trial++ {
		mode := []string{"dark", "lit", "consumed"}[trial%3]
		fraction := []float64{1, 1, 0.6}[(trial/3)%3]
		v := skipView(s, mode, fraction)
		for _, solver := range []Solver{SolverFlow, SolverGreedy} {
			g := GreenMatch{Solver: solver, Fraction: fraction, BatteryAware: trial%4 == 1}
			tag := fmt.Sprintf("trial %d (%s) %s", trial, mode, g.Name())
			ref := planReference(t, g, v)
			if scratch[solver] == nil {
				scratch[solver] = &PlanScratch{}
			}
			v.Scratch = scratch[solver]
			before := v.Scratch.SolverStats()
			got := g.Plan(v)
			after := v.Scratch.SolverStats()
			if !reflect.DeepEqual(got, ref.d) {
				t.Fatalf("%s: Plan %+v, unconditional solve %+v", tag, got, ref.d)
			}
			if ref.parts == 0 {
				continue
			}
			if ref.cap0 == 0 {
				for name, n := range ref.slot0 {
					if n != 0 {
						t.Fatalf("%s: %s put %d jobs into a slot with no capacity", tag, name, n)
					}
				}
				if after != before {
					t.Fatalf("%s: Plan solved a dark slot: solver stats %+v -> %+v", tag, before, after)
				}
				if ref.cap0Before > 0 {
					skippedConsumed++
				} else {
					skippedDark++
				}
				continue
			}
			if ref.slot0[string(solver)] > 0 {
				startedNow++
			}
			if solver == SolverFlow {
				if after == before {
					t.Fatalf("%s: %d slot-0 capacity left but the solver did not run", tag, ref.cap0)
				}
				solved++
			}
		}
	}
	if skippedDark == 0 || skippedConsumed == 0 || solved == 0 || startedNow == 0 {
		t.Fatalf("corpus misses a case: %d dark skips, %d consumed skips, %d flow solves, %d solves starting jobs now",
			skippedDark, skippedConsumed, solved, startedNow)
	}
	t.Logf("%d dark skips, %d consumed skips, %d flow solves, %d solves starting jobs now",
		skippedDark, skippedConsumed, solved, startedNow)
}
