// Package oracle computes an offline-optimal lower bound on the brown
// energy any scheduling policy must draw for a scenario, by solving the
// whole horizon as one max-flow over a time-expanded energy graph with
// full future knowledge. Every relaxation in the formulation is
// optimistic — a lossless unbounded-rate battery, deadline-free deferral,
// conservative integer rounding — so for every real simulated run
//
//	oracle.Brown <= result.Energy.Brown
//
// holds (the property test over every scenario and chaos seed enforces
// it), and a policy's brown energy divided by the bound is a competitive
// ratio: "within 1.07x of optimal" instead of "beats the baseline by 12%".
// See docs/ARENA.md for the full formulation and the soundness argument.
//
// The graph, all quantities in integer watt-hours (demand rounded down,
// supply and capacities rounded up):
//
//	source --cap green_t--> slot_t                     (supply)
//	slot_t --cap battery--> slot_{t+1}                 (lossless carry-over)
//	slot_t --cap floor_t--> sink          (t < T0)     (availability floor)
//	slot_t --cap exec_t---> C_min(t,T0-1)              (compute absorption)
//	C_s --inf--> C_{s-1}                               (deferral: green at
//	                                                    t serves any job
//	                                                    submitted at s <= t)
//	C_s --cap jobs_s--> sink                           (job dynamic demand)
//
// where T0 = last arrival + 1 (the simulator never ends a run earlier)
// and the counted demand is the floor plus job arcs. The bound is
// counted demand minus max flow.
package oracle

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/match"
	"repro/internal/power"
	"repro/internal/storage"
	"repro/internal/units"
)

// Report is the oracle's solution for one scenario.
type Report struct {
	// Brown is the lower bound: no schedule can draw less brown energy.
	Brown units.Energy
	// Demand is the total counted (relaxed) demand the bound is over.
	Demand units.Energy
	// Served is the max green-plus-battery energy deliverable to it.
	Served units.Energy
	// Floor is the availability-floor share of Demand and Jobs the
	// job-dynamic share.
	Floor units.Energy
	Jobs  units.Energy
	// Slots is the time-expanded horizon length.
	Slots int
	// FloorNodes is how many powered nodes replica coverage provably
	// requires every pre-drain slot (0 when crash faults void the floor).
	FloorNodes int
}

// Ratio returns brown/Brown, the competitive ratio of a policy that drew
// the given brown energy. It reports false when the bound is zero (any
// positive brown is then formally unboundedly suboptimal and the ratio is
// not meaningful; tables print n/a).
func (r Report) Ratio(brown units.Energy) (float64, bool) {
	if r.Brown.Wh() <= 0 {
		return 0, false
	}
	return brown.Wh() / r.Brown.Wh(), true
}

// infCap is the "unbounded" arc capacity: far above any integer watt-hour
// total a scenario can reach, far below int overflow under summation.
const infCap = 1 << 40

// Solve computes the offline brown-energy lower bound for the scenario cfg
// describes. It is deterministic, read-only on cfg, and resolves fault
// schedules exactly as the simulator would (supply faults are applied;
// random crash processes instead void the availability floor, keeping the
// bound sound for any crash realization).
func Solve(cfg core.Config) (Report, error) {
	cfg = cfg.ApplyDefaults()
	if err := cfg.Validate(); err != nil {
		return Report{}, fmt.Errorf("oracle: %w", err)
	}
	lastArrival := 0
	for _, j := range cfg.Trace {
		if j.Submit > lastArrival {
			lastArrival = j.Submit
		}
	}
	// The simulator's slot loop runs at least through the last arrival and
	// at most core.MaxOverrunSlots past it; supply beyond the real run
	// length only ever raises the max flow, which keeps the bound a bound.
	// A slot is one hour, so a power held for one slot is Over(1) and a
	// job's energy is its power times its duration in slots.
	t0 := lastArrival + 1
	horizon := lastArrival + core.MaxOverrunSlots + 1

	var eng *fault.Engine
	if cfg.Faults.Enabled() {
		eng = fault.NewEngine(cfg.Faults, cfg.Seed)
	}
	supplyWh := make([]int, horizon)
	for t := range supplyWh {
		p := cfg.Green.Power(t)
		if eng != nil {
			p = eng.Supply(t, p)
		}
		supplyWh[t] = int(math.Ceil(p.Over(1).Wh()))
	}

	floorNodes, floorSlotWh, err := availabilityFloor(cfg)
	if err != nil {
		return Report{}, err
	}

	jobWh := make([]int, t0)
	if rate := dynRatePerCPU(cfg); rate > 0 {
		bySubmit := make([]float64, t0)
		for _, j := range cfg.Trace {
			bySubmit[j.Submit] += j.CPU * rate * float64(j.Duration)
		}
		for s, d := range bySubmit {
			jobWh[s] = int(math.Floor(d))
		}
	}

	execSlotWh := int(math.Ceil(maxDynPower(cfg.Cluster).Over(1).Wh()))

	batCapWh := int(math.Ceil(cfg.BatteryCapacityWh.Wh()))
	if cfg.InfiniteBattery {
		batCapWh = infCap
	}

	// Node layout: 0 = source, 1..horizon = slots, then the T0 demand-chain
	// nodes, then the sink.
	slotNode := func(t int) int { return 1 + t }
	demNode := func(s int) int { return 1 + horizon + s }
	sink := 1 + horizon + t0
	nw := match.NewNetwork(sink + 1)

	demand := 0
	for t := 0; t < horizon; t++ {
		if supplyWh[t] > 0 {
			nw.AddEdge(0, slotNode(t), supplyWh[t])
		}
		if batCapWh > 0 && t+1 < horizon {
			nw.AddEdge(slotNode(t), slotNode(t+1), batCapWh)
		}
		if t < t0 && floorSlotWh > 0 {
			nw.AddEdge(slotNode(t), sink, floorSlotWh)
			demand += floorSlotWh
		}
		if execSlotWh > 0 {
			s := t
			if s > t0-1 {
				s = t0 - 1
			}
			nw.AddEdge(slotNode(t), demNode(s), execSlotWh)
		}
	}
	for s := t0 - 1; s > 0; s-- {
		nw.AddEdge(demNode(s), demNode(s-1), infCap)
	}
	for s := 0; s < t0; s++ {
		if jobWh[s] > 0 {
			nw.AddEdge(demNode(s), sink, jobWh[s])
			demand += jobWh[s]
		}
	}
	served := nw.MaxFlow(0, sink)
	brown := demand - served
	if brown < 0 {
		brown = 0
	}

	floorTotal := 0
	if floorSlotWh > 0 {
		floorTotal = floorSlotWh * t0
	}
	jobTotal := 0
	for _, w := range jobWh {
		jobTotal += w
	}
	return Report{
		Brown:      units.Energy(brown),
		Demand:     units.Energy(demand),
		Served:     units.Energy(served),
		Floor:      units.Energy(floorTotal),
		Jobs:       units.Energy(jobTotal),
		Slots:      horizon,
		FloorNodes: floorNodes,
	}, nil
}

// availabilityFloor derives the per-slot energy the cluster must draw just
// to stay available: replica coverage forces a minimum number of powered
// nodes, each drawing at least its idle-server-plus-standby-disks floor.
// The node count is a counting bound — every active disk covers at most
// as many objects as the placement put on the fullest disk, so covering
// all objects needs at least ceil(objects / maxPerDisk) disks — which is
// valid for every subset of disks, unlike the simulator's greedy
// MinimalCover (an upper bound, unusable here). Any crash process voids
// the floor entirely: a crash window can leave fewer healthy nodes than
// the cover needs, and a sound bound must hold for every realization.
func availabilityFloor(cfg core.Config) (nodes, slotWh int, err error) {
	crashy := cfg.Faults.CrashMTBFHours > 0
	for _, ev := range cfg.Faults.Events {
		if ev.Kind == fault.KindNodeCrash || ev.Kind == fault.KindCrashStorm {
			crashy = true
		}
	}
	if crashy || cfg.Cluster.Objects == 0 {
		return 0, 0, nil
	}
	cl, err := storage.NewCluster(cfg.Cluster)
	if err != nil {
		return 0, 0, fmt.Errorf("oracle: %w", err)
	}
	dpn := cfg.Cluster.NodeProfile.DisksPerNode
	perDisk := make([]int, cfg.Cluster.TotalNodes()*dpn)
	for obj := 0; obj < cfg.Cluster.Objects; obj++ {
		for _, id := range cl.Replicas(obj) {
			perDisk[id.Node*dpn+id.Disk]++
		}
	}
	maxPerDisk := 0
	for _, c := range perDisk {
		if c > maxPerDisk {
			maxPerDisk = c
		}
	}
	if maxPerDisk == 0 {
		return 0, 0, nil
	}
	minDisks := (cfg.Cluster.Objects + maxPerDisk - 1) / maxPerDisk
	nodes = (minDisks + dpn - 1) / dpn
	floorW := minOnNodePower(cfg.Cluster).Scale(float64(nodes))
	return nodes, int(math.Floor(floorW.Over(1).Wh())), nil
}

// minOnNodePower is the cheapest per-node availability draw across tiers.
func minOnNodePower(c storage.Config) units.Power {
	if len(c.Tiers) == 0 {
		return c.NodeProfile.MinOnNodePower()
	}
	low := units.Power(math.Inf(1))
	for _, t := range c.Tiers {
		np := power.NodeProfile{Server: t.Server, Disk: t.Disk, DisksPerNode: c.NodeProfile.DisksPerNode}
		if p := np.MinOnNodePower(); p < low {
			low = p
		}
	}
	return low
}

// dynRatePerCPU is the watts of node dynamic power one reserved core
// provably adds while its job runs. The simulator derives node utilization
// from reservations over CPUPerNode clamped to 1; with over-commit c a
// node holds at most CPUPerNode*c reserved cores, so attributing
// (peak-idle)/(CPUPerNode*c) per core never exceeds the node's actual
// dynamic draw — for a linear (or concave, alpha <= 1) DVFS curve. A
// convex curve (alpha > 1) or the utilization model (jobs drawing below
// reservation) breaks that inequality, so both degrade the rate to zero:
// the job demand term vanishes and the bound falls back to the floor.
func dynRatePerCPU(cfg core.Config) float64 {
	if cfg.ModelUtilization {
		return 0
	}
	servers := []power.ServerProfile{cfg.Cluster.NodeProfile.Server}
	if len(cfg.Cluster.Tiers) > 0 {
		servers = servers[:0]
		for _, t := range cfg.Cluster.Tiers {
			servers = append(servers, t.Server)
		}
	}
	minDyn := math.Inf(1)
	for _, s := range servers {
		if s.DVFSAlpha > 1 {
			return 0
		}
		if dyn := (s.PeakW - s.IdleW).Watts(); dyn < minDyn {
			minDyn = dyn
		}
	}
	return minDyn / (cfg.Cluster.CPUPerNode * cfg.Overcommit)
}

// maxDynPower caps how much green power the whole fleet's dynamic draw can
// absorb in one slot: every node flat out. An upper bound is what
// feasibility needs here (the real run's per-slot dynamic service never
// exceeds it), so tiers take the max.
func maxDynPower(c storage.Config) units.Power {
	if len(c.Tiers) == 0 {
		return (c.NodeProfile.Server.PeakW - c.NodeProfile.Server.IdleW).Scale(float64(c.TotalNodes()))
	}
	var total units.Power
	for _, t := range c.Tiers {
		total += (t.Server.PeakW - t.Server.IdleW).Scale(float64(t.Nodes))
	}
	return total
}
