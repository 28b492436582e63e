package sched

import (
	"fmt"

	"repro/internal/match"
	"repro/internal/units"
)

// Baseline runs every job as soon as it arrives (FFD placement with
// over-commit in the simulator), keeps disks spinning, and never
// consolidates mid-run. Renewable supply and the battery still apply —
// surplus charges the ESD and deficits discharge it — which makes Baseline
// exactly the "ESD-only" reference point of the evaluation.
type Baseline struct{}

// Name implements Policy.
func (Baseline) Name() string { return "baseline" }

// Plan implements Policy: start everything, suspend nothing.
func (Baseline) Plan(v View) Decision {
	return Decision{StartWaiting: allIndices(len(v.Waiting))}
}

// SpinDown is Baseline plus coverage-constrained disk spin-down and
// consolidation: the classic energy-saving (but renewable-blind) operating
// point, included to separate "saves energy" from "uses green energy".
type SpinDown struct{}

// Name implements Policy.
func (SpinDown) Name() string { return "spindown" }

// Plan implements Policy.
func (SpinDown) Plan(v View) Decision {
	return Decision{
		StartWaiting:  allIndices(len(v.Waiting)),
		Consolidate:   true,
		SpinDownDisks: true,
	}
}

// DeferFraction is the opportunistic policy of the genre: a configurable
// fraction of deferrable jobs waits whenever the green supply cannot cover
// the mandatory load plus the already-running work, and runs when it can.
// Fraction 1.0 is "pure opportunistic"; fraction 0 degenerates to SpinDown.
type DeferFraction struct {
	// Fraction in [0,1] of deferrable jobs that participate in deferral.
	Fraction float64
}

// Name implements Policy.
func (p DeferFraction) Name() string { return fmt.Sprintf("defer%.0f%%", p.Fraction*100) }

// Plan implements Policy.
func (p DeferFraction) Plan(v View) Decision {
	d := Decision{Consolidate: true, SpinDownDisks: true}
	headroom := greenAt(v.GreenForecast, 0).Watts() - v.EstMandatoryPowerW.Watts()
	// Power the already-running deferrable work is drawing.
	runningW := v.PerJobPowerW.Watts() * float64(len(v.RunningDeferrable))

	if headroom >= runningW {
		// Green covers running deferrables; start as many waiting ones as
		// the remaining headroom allows, non-participants first (they never
		// wait), then participants by ascending slack.
		budget := int((headroom - runningW) / v.PerJobPowerW.Watts())
		if sj := v.SpaceJobs(); budget > sj {
			budget = sj
		}
		d.StartWaiting = p.selectStarts(&v, budget)
		if v.Degraded {
			d.StartWaiting = enforceBacklogBound(&v, d.StartWaiting)
		}
		return d
	}
	// Deficit: hold participants, and suspend running participants that
	// still have slack to spare.
	d.StartWaiting = p.selectStarts(&v, 0)
	if v.Degraded {
		// Graceful degradation: with crashed nodes, suspending running work
		// only adds churn to a fleet already short on capacity, and an
		// unbounded deferred backlog piles up work the survivors cannot
		// drain; hold what runs and cap the backlog instead.
		d.StartWaiting = enforceBacklogBound(&v, d.StartWaiting)
		return d
	}
	for i := range v.RunningDeferrable {
		r := &v.RunningDeferrable[i]
		if stickyDefer(r.Job.ID, p.Fraction) && r.SlackAt(v.Slot) > ReserveSlack {
			d.SuspendRunning = append(d.SuspendRunning, i)
		}
	}
	return d
}

// selectStarts starts every non-participant plus up to budget participants
// (most-urgent first). Participants whose slack has shrunk to the reserve
// start regardless of budget — the simulator would promote them next slot
// anyway, and starting now avoids a needless miss risk.
func (p DeferFraction) selectStarts(v *View, budget int) []int {
	var starts []int
	type cand struct {
		idx   int
		slack int
	}
	var parts []cand
	for i := range v.Waiting {
		r := &v.Waiting[i]
		if !stickyDefer(r.Job.ID, p.Fraction) {
			starts = append(starts, i)
			continue
		}
		if r.SlackAt(v.Slot) <= ReserveSlack {
			starts = append(starts, i)
			continue
		}
		parts = append(parts, cand{idx: i, slack: r.SlackAt(v.Slot)})
	}
	for b := 0; b < budget && len(parts) > 0; b++ {
		// Most urgent participant first.
		best := 0
		for k := 1; k < len(parts); k++ {
			if parts[k].slack < parts[best].slack {
				best = k
			}
		}
		starts = append(starts, parts[best].idx)
		parts = append(parts[:best], parts[best+1:]...)
	}
	return starts
}

// Solver selects the assignment algorithm GreenMatch plans with.
type Solver string

// Supported solvers.
const (
	// SolverFlow is the exact grouped min-cost-flow solve (the default).
	SolverFlow Solver = "flow"
	// SolverGreedy is the per-job greedy heuristic, kept as an ablation.
	SolverGreedy Solver = "greedy"
)

// earlinessBonus breaks GreenMatch's weight ties toward earlier slots so
// equally green plans do not postpone work pointlessly.
const earlinessBonus = 0.05

// GreenMatch is the paper's scheduler: every slot it forecasts green power
// over a horizon, derives a per-slot capacity of "green job units"
// (headroom over the estimated mandatory load), and solves a capacitated
// assignment matching each waiting deferrable job to a slot inside its
// deadline window, maximizing expected green coverage. Jobs matched to the
// current slot start; the rest wait for their matched slot (and are
// re-matched every slot as forecasts firm up).
type GreenMatch struct {
	// Horizon is the planning lookahead in slots (default 24).
	Horizon int
	// Fraction in [0,1] of deferrable jobs that participate (default 1;
	// values below 1 make this the Mixed policy).
	Fraction float64
	// Solver picks the assignment algorithm: SolverFlow (the default) or
	// SolverGreedy. Any other value plans with SolverFlow.
	Solver Solver
	// BatteryAware discounts the value of deferral by what the ESD would
	// salvage anyway: when the battery has room, surplus green is stored
	// at efficiency sigma, so moving a job into the sun only saves the
	// (1-sigma) round-trip loss; when the battery is full (or absent),
	// surplus is lost outright and deferral keeps its full value.
	BatteryAware bool
}

// Name implements Policy.
func (g GreenMatch) Name() string {
	f := g.fraction()
	base := "greenmatch"
	if g.solver() != SolverFlow {
		base += "-" + string(g.solver())
	}
	if g.BatteryAware {
		base += "-batteryaware"
	}
	if f < 1 {
		return fmt.Sprintf("mixed%.0f%%", f*100)
	}
	return base
}

func (g GreenMatch) horizon() int {
	if g.Horizon <= 0 {
		return lookahead
	}
	return g.Horizon
}

func (g GreenMatch) fraction() float64 {
	if g.Fraction <= 0 || g.Fraction > 1 {
		return 1
	}
	return g.Fraction
}

func (g GreenMatch) solver() Solver {
	if g.Solver == SolverGreedy {
		return SolverGreedy
	}
	return SolverFlow
}

// Plan implements Policy.
func (g GreenMatch) Plan(v View) Decision {
	d := Decision{Consolidate: true, SpinDownDisks: true}
	// Nothing to start, nothing to suspend: skip the capacity derivation and
	// matching entirely. This keeps the drained steady state of a run
	// allocation-free and is behavior-identical — with both sets empty every
	// path out of the full plan returns this same decision with no starts
	// and no suspensions (the QuiescentDecision contract).
	if len(v.Waiting) == 0 && len(v.RunningDeferrable) == 0 {
		return d
	}
	sc := v.Scratch
	if sc == nil {
		// Callers that don't thread scratch (one-shot planning, tests) get a
		// fresh one; the scratch only recycles allocations, never results.
		sc = &PlanScratch{}
	}
	h := g.horizon()

	// Per-slot headroom in job units over the horizon, bounded by both the
	// green power budget and the cluster's placement space: matching more
	// jobs into a slot than FFD can seat would silently queue them at
	// deadline time.
	spaceJobs := v.SpaceJobs()
	capacity := scratchInts(&sc.capacity, h)
	headroomNow := 0.0
	for k := 0; k < h; k++ {
		head := greenAt(v.GreenForecast, k).Watts() - v.EstMandatoryPowerW.Watts()
		if k == 0 {
			headroomNow = head
		}
		if head > 0 {
			capacity[k] = int(head / v.PerJobPowerW.Watts())
		}
		if capacity[k] > spaceJobs {
			capacity[k] = spaceJobs
		}
	}

	// Partition waiting jobs: non-participants and slack-exhausted jobs
	// start now; participants enter the matching.
	starts := sc.starts[:0]
	parts := sc.parts[:0]
	for i := range v.Waiting {
		r := &v.Waiting[i]
		if !stickyDefer(r.Job.ID, g.fraction()) || r.SlackAt(v.Slot) <= ReserveSlack {
			starts = append(starts, i)
			continue
		}
		parts = append(parts, part{idx: i, latestStart: v.Slot + r.SlackAt(v.Slot), remaining: r.Remaining})
	}
	sc.parts = parts

	// Graceful degradation: when the whole horizon offers no green
	// capacity (deep overcast, midwinter nights-and-gloom), deferral can
	// only add suspension and migration overhead without ever cashing in.
	// Behave like SpinDown instead: start everything, suspend nothing.
	totalCap := 0
	for _, c := range capacity {
		totalCap += c
	}
	if totalCap == 0 {
		sc.starts = starts
		d.StartWaiting = allIndices(len(v.Waiting))
		return d
	}

	// Jobs that start unconditionally consume current-slot capacity.
	usedNow := len(starts)
	if capacity[0] > usedNow {
		capacity[0] -= usedNow
	} else {
		capacity[0] = 0
	}

	// Plan only the slot that executes. The decision reads just the current
	// slot's column of the horizon plan (Count[gi][0] on the grouped path,
	// Assign == 0 on the greedy path); every later column is matched afresh
	// next slot. With no capacity left in slot 0 after the forced starts,
	// no solver can put a job there: match.Solver builds no arc into a
	// zero-capacity slot, and Greedy skips a slot with no remaining
	// capacity. The decision is then the forced starts alone — the same
	// starts slice, suspension logic and Decision the solve would have led
	// to — so grouping, weight rows and the solve are skipped.
	if len(parts) > 0 && capacity[0] > 0 {
		if g.solver() == SolverGreedy {
			starts = g.planGreedy(&v, parts, capacity, h, starts)
		} else {
			// Weights depend on a job only through its latest-start slot
			// and remaining work, so jobs group into a few interchangeable
			// classes and the assignment collapses to a small
			// transportation problem — exactly equivalent to the per-job
			// flow (tested), but with cost independent of the job count.
			starts = g.planGrouped(&v, parts, capacity, h, sc, starts)
		}
	}
	sc.starts = starts
	if len(starts) == 0 {
		// Preserve the historical nil-vs-empty distinction for callers that
		// compare decisions structurally.
		starts = nil
	}
	d.StartWaiting = starts
	if v.Degraded {
		// Graceful degradation mirrors DeferFraction: never suspend while
		// capacity is impaired, and bound the deferred backlog to what the
		// surviving nodes can drain (overflow starts now, most urgent
		// first, so shedding shows up as explicit deadline accounting).
		d.StartWaiting = enforceBacklogBound(&v, d.StartWaiting)
		return d
	}

	// Suspend running participants when the current slot has no green
	// headroom for them and they can afford to wait. The battery-aware
	// variant skips this churn while the ESD has meaningful headroom: the
	// energy the suspension would shift into the sun mostly reaches the
	// load through the battery anyway (at sigma), so paying save/restore
	// and consolidation-migration costs to shift it buys almost nothing.
	runningW := v.PerJobPowerW.Watts() * float64(len(v.RunningDeferrable))
	if headroomNow < runningW {
		// "Meaningful" ESD: it can carry at least two hours of the
		// mandatory load, so day-to-night shifting through it works.
		batteryBuffers := g.BatteryAware && v.BatteryEfficiency > 0 &&
			v.BatteryUsableWh.Wh() >= 2*v.EstMandatoryPowerW.Watts()
		if !batteryBuffers {
			suspends := sc.suspends[:0]
			for i := range v.RunningDeferrable {
				if r := &v.RunningDeferrable[i]; stickyDefer(r.Job.ID, g.fraction()) && r.SlackAt(v.Slot) > ReserveSlack {
					suspends = append(suspends, i)
				}
			}
			sc.suspends = suspends
			if len(suspends) > 0 {
				d.SuspendRunning = suspends
			}
		}
	}
	return d
}

// planGreedy solves the matching on the per-job instance with the greedy
// heuristic and appends the View.Waiting indices matched to the current
// slot onto starts.
func (g GreenMatch) planGreedy(v *View, parts []part, capacity []int, h int, starts []int) []int {
	in := match.Instance{
		Weights:  make([][]float64, len(parts)),
		Capacity: capacity,
	}
	for j, p := range parts {
		in.Weights[j] = make([]float64, h)
		g.weightRowInto(v, h, p.latestStart, p.remaining, in.Weights[j])
	}
	res, err := match.Greedy(in)
	if err != nil {
		// A malformed instance is a programming error in this package.
		panic(fmt.Sprintf("sched: greenmatch built invalid instance: %v", err))
	}
	for j, slot := range res.Assign {
		if slot == 0 {
			starts = append(starts, parts[j].idx)
		}
	}
	return starts
}

// part is one matching participant: an index into View.Waiting plus the
// last slot at which the job can still start and meet its deadline and its
// remaining work.
type part struct {
	idx         int
	latestStart int
	remaining   int
}

// weightRowInto writes into row (len h) the per-slot attractiveness row for
// a job with the given latest start and remaining duration. The score of
// starting at offset k is the fraction of the job's remaining runtime
// [k, k+remaining) that the forecast green headroom can cover (each slot
// contributes up to one job-power's worth), so multi-slot jobs prefer
// windows where their whole run is green, not just their first hour. The
// row depends on the job only through (latestStart, remaining), which is
// what keeps the grouped fast path exact.
func (g GreenMatch) weightRowInto(v *View, h, latestStart, remaining int, row []float64) {
	if remaining < 1 {
		remaining = 1
	}
	perJob := v.PerJobPowerW.Watts()
	// Battery-aware discount: if the ESD has headroom, the surplus this
	// job would soak up directly would otherwise still reach the load at
	// efficiency sigma through the battery — deferral's marginal value per
	// green slot shrinks to (1 - sigma). A full or absent battery keeps
	// the full value (surplus would be lost).
	greenValue := 1.0
	if g.BatteryAware && v.BatteryUsableWh > 0 && v.BatteryEfficiency > 0 {
		room := 1 - v.BatterySoC
		if room > 0 {
			greenValue = (1 - v.BatteryEfficiency) + v.BatteryEfficiency*v.BatterySoC
			if greenValue < 0.05 {
				greenValue = 0.05 // keep a weak preference for direct use
			}
		}
	}
	mandatoryW := v.EstMandatoryPowerW.Watts()
	for k := 0; k < h; k++ {
		if v.Slot+k > latestStart {
			row[k] = match.Forbidden
			continue
		}
		score := greenCoverage(v.GreenForecast, mandatoryW, h, k, remaining, perJob) * greenValue
		row[k] = score + earlinessBonus*float64(h-k)/float64(h)
	}
}

// greenCoverage is the shared scoring kernel: the fraction of a
// remaining-slot run starting at forecast offset k that green headroom
// covers, each slot contributing up to one perJob-power's worth. GreenMatch
// weight rows and KChoices probe scoring both use it, so their notions of
// "how green is this start" agree by construction. It takes the forecast
// and the mandatory draw rather than the View, which is large to copy.
func greenCoverage(forecast []units.Power, mandatoryW float64, h, k, remaining int, perJob float64) float64 {
	covered := 0.0
	for t := k; t < k+remaining && t < h; t++ {
		head := greenAt(forecast, t).Watts() - mandatoryW
		if head <= 0 {
			continue
		}
		covered += minf(head, perJob) / perJob
	}
	return covered / float64(remaining)
}

// planGrouped solves the matching on the grouped (transportation) instance
// and appends the View.Waiting indices to start now onto starts. Jobs group
// by (latest-start offset, remaining duration), both clamped to the
// horizon; all members of a group share a weight row, so the grouped solve
// is exactly equivalent to the per-job flow.
//
// Grouping uses a dense cell id (off*(h+1) + rem) scanned in ascending
// order, which reproduces the historical map-then-sort key order —
// off-major, rem-minor — and a counting sort that preserves each group's
// members in parts order, all without allocating once the scratch is warm.
// The transportation solve itself runs on the scratch's match.Solver,
// which reuses its graph memory from slot to slot.
func (g GreenMatch) planGrouped(v *View, parts []part, capacity []int, h int, sc *PlanScratch, starts []int) []int {
	stride := h + 1
	cellGroup := scratchInts(&sc.cellGroup, stride*stride)
	partCell := scratchIntsNoZero(&sc.partCell, len(parts))
	for i, p := range parts {
		off := p.latestStart - v.Slot
		if off > h-1 {
			off = h - 1
		}
		rem := p.remaining
		if rem > h {
			rem = h
		}
		if rem < 0 {
			rem = 0
		}
		cell := off*stride + rem
		partCell[i] = cell
		cellGroup[cell]++ // member count, until groups are numbered below
	}
	// Number the occupied cells in ascending order (== sorted key order) and
	// lay out per-group member ranges.
	supply := sc.supply[:0]
	cellOf := sc.cellOf[:0]
	memberOff := sc.memberOff[:0]
	cursor := 0
	for cell, count := range cellGroup {
		if count == 0 {
			continue
		}
		supply = append(supply, count)
		cellOf = append(cellOf, cell)
		memberOff = append(memberOff, cursor)
		cursor += count
		cellGroup[cell] = len(supply) // 1-based group number
	}
	sc.supply, sc.cellOf, sc.memberOff = supply, cellOf, memberOff
	ng := len(supply)
	memberNxt := scratchIntsNoZero(&sc.memberNxt, ng)
	copy(memberNxt, memberOff)
	members := scratchIntsNoZero(&sc.members, len(parts))
	for i := range parts {
		gi := cellGroup[partCell[i]] - 1
		members[memberNxt[gi]] = i
		memberNxt[gi]++
	}
	// Weight rows, one per group, carved out of a flat arena.
	if cap(sc.rowBuf) < ng*h {
		sc.rowBuf = make([]float64, ng*h)
	}
	sc.rowBuf = sc.rowBuf[:ng*h]
	if cap(sc.rows) < ng {
		sc.rows = make([][]float64, ng)
	}
	sc.rows = sc.rows[:ng]
	for gi := 0; gi < ng; gi++ {
		cell := cellOf[gi]
		row := sc.rowBuf[gi*h : (gi+1)*h : (gi+1)*h]
		g.weightRowInto(v, h, v.Slot+cell/stride, cell%stride, row)
		sc.rows[gi] = row
	}
	res, err := sc.solver.SolveGrouped(sc.rows, supply, capacity)
	if err != nil {
		panic(fmt.Sprintf("sched: greenmatch built invalid grouped instance: %v", err))
	}
	for gi := 0; gi < ng; gi++ {
		n := res.Count[gi][0] // jobs of this group matched to "now"
		end := cursor
		if gi+1 < ng {
			end = memberOff[gi+1]
		}
		for j := 0; j < n && memberOff[gi]+j < end; j++ {
			starts = append(starts, parts[members[memberOff[gi]+j]].idx)
		}
	}
	sc.starts = starts
	return starts
}

// greenAt reads a forecast with zero-padding past its horizon.
func greenAt(forecast []units.Power, k int) units.Power {
	if k < 0 || k >= len(forecast) {
		return 0
	}
	return forecast[k]
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
