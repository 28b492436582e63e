package sched

// The arena policies: three policy genres the competitive-ratio arena
// (internal/oracle + experiment E22) compares against the paper's
// scheduler. EDF is the classic deadline-driven baseline, KChoices is
// power-of-k-choices sampling over start slots, and Cucumber is
// probabilistic admission control in the style of Wiesner et al.'s
// Cucumber: defer work only when the forecast fits it in green power at a
// configured confidence. All three are pure planners over the same View
// contract as the rest of the zoo and implement QuiescentPlanner so slot
// skipping stays available.

import (
	"fmt"
	"sort"

	"repro/internal/forecast"
)

// EDF starts waiting deferrable jobs in earliest-deadline-first order, as
// many as the cluster has space for, and never looks at the green supply.
// It is the deadline-centric (and renewable-blind) genre: with abundant
// space it degenerates to SpinDown, under contention it spends the space
// on the most urgent work first.
type EDF struct{}

// Name implements Policy.
func (EDF) Name() string { return "edf" }

// Plan implements Policy.
func (EDF) Plan(v View) Decision {
	d := Decision{Consolidate: true, SpinDownDisks: true}
	if len(v.Waiting) == 0 && len(v.RunningDeferrable) == 0 {
		return d
	}
	order := make([]int, len(v.Waiting))
	for i := range order {
		order[i] = i
	}
	// Deadline order with index tiebreak: the less function is a strict
	// total order on distinct elements, so the result is deterministic even
	// though sort.Slice is unstable.
	sort.Slice(order, func(a, b int) bool {
		da, db := v.Waiting[order[a]].Job.Deadline, v.Waiting[order[b]].Job.Deadline
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	budget := v.SpaceJobs()
	var starts []int
	for _, i := range order {
		if v.Waiting[i].SlackAt(v.Slot) <= ReserveSlack {
			starts = append(starts, i)
			continue
		}
		if budget > 0 {
			starts = append(starts, i)
			budget--
		}
	}
	d.StartWaiting = starts
	if v.Degraded {
		d.StartWaiting = enforceBacklogBound(&v, d.StartWaiting)
	}
	return d
}

// QuiescentDecision implements QuiescentPlanner: Plan's empty-queue early
// exit returns exactly this.
func (EDF) QuiescentDecision() Decision {
	return Decision{Consolidate: true, SpinDownDisks: true}
}

// KChoices is power-of-k-choices start-slot sampling: for each waiting job
// it probes the current slot plus k-1 deterministically hashed alternative
// start offsets inside the job's deadline window, scores each probe by
// forecast green coverage of the whole run (the same kernel GreenMatch
// weighs slots with), and starts the job only when no sampled alternative
// beats starting now. Sampling k offsets instead of solving a matching
// trades solution quality for O(k) work per job — the classic
// load-balancing compromise, transplanted to time.
type KChoices struct {
	// K is the number of sampled start offsets per job including "now"
	// (default 2, the canonical power of two choices).
	K int
}

// Name implements Policy.
func (p KChoices) Name() string { return fmt.Sprintf("kchoices%d", p.k()) }

func (p KChoices) k() int {
	if p.K < 2 {
		return 2
	}
	return p.K
}

// probeOffset hashes (job, probe) to a start offset in [1, maxOff]. The
// hash is the same splitmix-style mix stickyDefer uses, so probes are
// deterministic across runs and independent across jobs and probes.
func probeOffset(jobID, probe, maxOff int) int {
	x := uint64(jobID)*0x9E3779B97F4A7C15 + uint64(probe)*0xD6E8FEB86659FD93
	x ^= x >> 32
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 29
	return 1 + int(x%uint64(maxOff))
}

// Plan implements Policy.
func (p KChoices) Plan(v View) Decision {
	d := Decision{Consolidate: true, SpinDownDisks: true}
	if len(v.Waiting) == 0 && len(v.RunningDeferrable) == 0 {
		return d
	}
	h := lookahead
	perJob := v.PerJobPowerW.Watts()
	mandatoryW := v.EstMandatoryPowerW.Watts()
	budget := v.SpaceJobs()
	var starts []int
	for i := range v.Waiting {
		r := &v.Waiting[i]
		slack := r.SlackAt(v.Slot)
		if slack <= ReserveSlack {
			starts = append(starts, i)
			continue
		}
		if budget <= 0 {
			continue
		}
		maxOff := slack
		if maxOff > h-1 {
			maxOff = h - 1
		}
		rem := r.Remaining
		if rem < 1 {
			rem = 1
		}
		// "Now" is always the first probe; a sampled alternative must be
		// strictly greener to win, so ties keep work early (the same
		// tie-direction GreenMatch's earliness bonus encodes).
		best := greenCoverage(v.GreenForecast, mandatoryW, h, 0, rem, perJob)
		startNow := true
		for probe := 1; probe < p.k() && maxOff >= 1; probe++ {
			off := probeOffset(r.Job.ID, probe, maxOff)
			if s := greenCoverage(v.GreenForecast, mandatoryW, h, off, rem, perJob); s > best {
				best = s
				startNow = false
			}
		}
		if startNow {
			starts = append(starts, i)
			budget--
		}
	}
	d.StartWaiting = starts
	if v.Degraded {
		d.StartWaiting = enforceBacklogBound(&v, d.StartWaiting)
	}
	return d
}

// QuiescentDecision implements QuiescentPlanner: Plan's empty-queue early
// exit returns exactly this.
func (KChoices) QuiescentDecision() Decision {
	return Decision{Consolidate: true, SpinDownDisks: true}
}

// Cucumber is probabilistic admission control over deferral: a waiting job
// is deferred only when the forecast, discounted to the configured
// confidence level, still fits the job's whole remaining run into green
// headroom inside its deadline window. Jobs the discounted forecast cannot
// promise green power for are admitted immediately — late brown energy is
// worse than prompt brown energy once deadline risk is priced in. Raising
// Confidence shrinks the discounted forecast and therefore the defer set:
// admission is monotone in p (tested metamorphically).
type Cucumber struct {
	// Confidence is the probability the deferred job's green window must
	// hold with, in [0.5, 1] (default 0.9).
	Confidence float64
}

// Name implements Policy.
func (p Cucumber) Name() string { return fmt.Sprintf("cucumber%.0f%%", p.confidence()*100) }

func (p Cucumber) confidence() float64 {
	if p.Confidence <= 0 {
		return 0.9
	}
	if p.Confidence > 1 {
		return 1
	}
	return p.Confidence
}

// Plan implements Policy.
func (p Cucumber) Plan(v View) Decision {
	d := Decision{Consolidate: true, SpinDownDisks: true}
	if len(v.Waiting) == 0 && len(v.RunningDeferrable) == 0 {
		return d
	}
	h := lookahead
	perJob := v.PerJobPowerW.Watts()
	scale := forecast.ConfidenceScale(p.confidence())
	var starts []int
	for i := range v.Waiting {
		r := &v.Waiting[i]
		slack := r.SlackAt(v.Slot)
		if slack <= ReserveSlack {
			starts = append(starts, i)
			continue
		}
		// The current slot is observed, not forecast: if green headroom
		// covers the job right now there is nothing to wait for. This branch
		// is confidence-independent by design (see the monotonicity note on
		// the type).
		if greenAt(v.GreenForecast, 0).Watts()-v.EstMandatoryPowerW.Watts() >= perJob {
			starts = append(starts, i)
			continue
		}
		rem := r.Remaining
		if rem < 1 {
			rem = 1
		}
		// Future slots the run could occupy: it may start up to slack slots
		// from now and runs rem slots, clamped to the forecast horizon.
		maxUse := slack + rem - 1
		if maxUse > h-1 {
			maxUse = h - 1
		}
		confident := 0
		for k := 1; k <= maxUse; k++ {
			if greenAt(v.GreenForecast, k).Watts()*scale-v.EstMandatoryPowerW.Watts() >= perJob {
				confident++
			}
		}
		if confident >= rem {
			continue // the discounted forecast fits the run in green: defer
		}
		starts = append(starts, i)
	}
	d.StartWaiting = starts
	if v.Degraded {
		d.StartWaiting = enforceBacklogBound(&v, d.StartWaiting)
	}
	return d
}

// QuiescentDecision implements QuiescentPlanner: Plan's empty-queue early
// exit returns exactly this.
func (Cucumber) QuiescentDecision() Decision {
	return Decision{Consolidate: true, SpinDownDisks: true}
}
