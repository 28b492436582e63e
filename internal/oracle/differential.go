package oracle

import (
	"sort"

	"repro/internal/match"
	"repro/internal/sched"
	"repro/internal/units"
)

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
func SingleSlotStarts(g sched.GreenMatch, v sched.View) []int {
	reserve := g.ReserveSlack
	if reserve <= 0 {
		reserve = 1
	}
	head := forecastAt(v, 0).Watts() - v.EstMandatoryPowerW.Watts()
	capacity := 0
	if head > 0 {
		capacity = int(head / v.PerJobPowerW.Watts())
	}
	if sj := v.SpaceJobs(); capacity > sj {
		capacity = sj
	}

	var starts []int
	type cand struct{ idx, latestStart, remaining int }
	var parts []cand
	const h = 1
	for i, r := range v.Waiting {
		if r.SlackAt(v.Slot) <= reserve {
			starts = append(starts, i)
			continue
		}
		// Mirror planGrouped's clamping: the online solver groups by
		// latest-start offset and remaining duration both clamped to the
		// horizon, and derives the weight row from the clamped cell.
		off := r.SlackAt(v.Slot)
		if off > h-1 {
			off = h - 1
		}
		rem := r.Remaining
		if rem > h {
			rem = h
		}
		if rem < 0 {
			rem = 0
		}
		parts = append(parts, cand{idx: i, latestStart: v.Slot + off, remaining: rem})
	}
	// Mirror Plan's no-green degradation: a horizon with zero capacity
	// starts everything.
	if capacity == 0 {
		starts = allWaiting(v)
		return starts
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
		for j, p := range parts {
			in.Weights[j] = g.WeightRow(v, h, p.latestStart, p.remaining)
		}
		res, err := match.Flow(in)
		if err != nil {
			panic("oracle: invalid single-slot instance: " + err.Error())
		}
		for j, slot := range res.Assign {
			if slot == 0 {
				starts = append(starts, parts[j].idx)
			}
		}
	}
	sort.Ints(starts)
	return starts
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
