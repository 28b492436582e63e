package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/audit"
	"repro/internal/battery"
	"repro/internal/fault"
	"repro/internal/forecast"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/units"
	"repro/internal/workload"
)

// jobState is the simulator-side lifecycle record of one job.
//
//gm:statemirror snapJobs unsnapJobs
type jobState struct {
	job         workload.Job
	remaining   int
	node        int // -1 when not placed
	running     bool
	mandatory   bool // web, or deferrable promoted at slack exhaustion
	everStarted bool
	firstStart  int
	suspensions int
	migrations  int
	completedAt int // -1 until completed

	// mark is transient per-slot scratch: replan sets it on jobs the policy
	// selected (to suspend or to start) and clears it again while filtering
	// the queues in the same slot. It replaces the per-slot ID-keyed map
	// sets the slot loop used to allocate, and is never meaningful across
	// slot boundaries.
	mark bool //gm:ephemeral per-slot scratch, never meaningful across slot boundaries
	// item is the index of this job's PlaceItem in the current place call,
	// which maps the placer's answer back to the job.
	item int //gm:ephemeral per-slot scratch, never meaningful across slot boundaries
}

// placeItem is the job as the FFD placer sees it, pinned to pin (-1 for
// free).
func (st *jobState) placeItem(pin int) sched.PlaceItem {
	return sched.PlaceItem{ID: st.job.ID, CPU: st.job.CPU, RAM: st.job.RAMGB, Pinned: pin}
}

// compareFFD orders jobs by sched.CompareFFD.
func compareFFD(a, b *jobState) int {
	return sched.CompareFFD(a.placeItem(-1), b.placeItem(-1))
}

// Result is the outcome of one simulation run.
type Result struct {
	// Policy is the policy name, for reports.
	Policy string
	// Slots is the number of slots simulated.
	Slots int
	// Energy is the full energy-flow account.
	Energy metrics.EnergyAccount
	// SLA is the service-quality account.
	SLA metrics.SLAAccount
	// Battery is the ESD-internal account.
	Battery battery.Account
	// BatteryCapacityWh echoes the configured size.
	BatteryCapacityWh units.Energy
	// BatteryCycles is the equivalent full cycles the ESD delivered;
	// BatteryWear is the fraction of rated cycle life consumed.
	BatteryCycles float64
	BatteryWear   float64
	// Disk aggregates disk activity.
	Disk storage.DiskStats
	// NodeBoots and NodeShutdowns count node power transitions.
	NodeBoots     int
	NodeShutdowns int
	// NodeHours is the total powered-node time (node count integrated over
	// slots); DiskSpunHours likewise for spinning disks.
	NodeHours     float64
	DiskSpunHours float64
	// ReadLatencyMs digests the per-read service latency (cold reads pay
	// the spin-up wait).
	ReadLatencyMs stats.Summary
	// Degrade is the fault-injection degradation account (all zero when no
	// fault is configured).
	Degrade metrics.DegradeAccount
	// FastSlots counts the slots executed by the event-driven fast path
	// (quiescent slots that skipped planning, placement and the power plan).
	// Purely diagnostic: a fast slot settles to bit-identical state, so this
	// is the only Result field that may differ between a run with skipping
	// and one with Config.DisableSlotSkipping set.
	FastSlots int
	// Series is the per-slot trace (nil unless Config.RecordSeries).
	Series *metrics.TimeSeries
}

// Simulator executes one configured run. Create with New, execute with Run.
//
//gm:statemirror Live.Snapshot RestoreLive
type Simulator struct {
	cfg     Config //gm:ephemeral configuration, re-supplied by the caller at restore
	cluster *storage.Cluster
	bat     *battery.Battery
	reads   *storage.ReadModel

	// arrivals queues the submitted jobs not yet admitted. A job is due at
	// max(Submit, next), and equally due jobs keep submission order; a
	// batch run's queue is the clipped trace itself.
	arrivals []workload.Job
	// next is the next slot to execute.
	next int
	// drained latches the run's termination: once it drains, no further
	// slot executes.
	drained     bool
	lastArrival int

	waiting   []*jobState // deferrable, not running, not promoted
	mandQueue []*jobState // mandatory, not yet placed
	running   []*jobState

	fullCover []storage.DiskID //gm:ephemeral derived cover cache, a pure function of topology
	// fullCoverNodeIDs is the sorted node set hosting the minimal cover.
	fullCoverNodeIDs []int //gm:ephemeral derived cover cache, a pure function of topology
	// coverCache memoizes CoverOnNodeMask results by powered-node set: the
	// same node sets recur across slots and greedy set cover is the
	// simulator's hottest path. coverKey is the reusable key scratch
	// buffer (one byte per node), so cache hits allocate nothing.
	coverCache map[string][]storage.DiskID //gm:ephemeral memoization, rebuilt on demand
	coverKey   []byte                      //gm:ephemeral reusable key scratch

	// Per-slot scratch state, sized once in New and reset — never
	// reallocated — each slot, so the steady-state slot loop is
	// allocation-free (asserted by the AllocsPerRun regression tests; the
	// discipline is documented in docs/PROFILING.md). All of it is
	// per-Simulator, keeping concurrent Runs race-free.
	toStart     []*jobState            // start set assembled each slot //gm:ephemeral per-slot scratch
	viewWaiting []sched.JobRef         // backing array for View.Waiting //gm:ephemeral per-slot scratch
	viewRunDef  []sched.JobRef         // backing array for View.RunningDeferrable //gm:ephemeral per-slot scratch
	waitingRefs []*jobState            // jobStates aligned with viewWaiting //gm:ephemeral per-slot scratch
	runDefRefs  []*jobState            // jobStates aligned with viewRunDef //gm:ephemeral per-slot scratch
	forecastBuf []units.Power          // PredictInto buffer //gm:ephemeral per-slot scratch
	predictInto forecast.IntoPredictor //gm:ephemeral rebuilt by New from Config
	needed      []bool                 // node id -> must be powered //gm:ephemeral per-slot scratch
	ioNodes     []bool                 // node id -> hosts an I/O-bound job //gm:ephemeral per-slot scratch
	keepMask    []bool                 // flat disk index -> keep spinning //gm:ephemeral per-slot scratch
	failedMask  []bool                 // node id -> crashed, awaiting repair //gm:ephemeral derived mask, rebuilt from the Repairs snapshot at restore
	cpuUtil     []float64              // node id -> CPU utilization //gm:ephemeral per-slot scratch
	healthyPow  []int                  // healthy powered node ids (fault path) //gm:ephemeral per-slot scratch
	placer      sched.Placer           // reusable FFD engine //gm:ephemeral stateless between slots
	placeItems  []sched.PlaceItem      //gm:ephemeral per-slot scratch
	// ffdOrder carries the jobs of the last place call in compareFFD
	// order, so the next call re-sorts only its starters and merges them
	// in (see placeOrder). Jobs that left the running set since are
	// filtered out when it is next read.
	ffdOrder []*jobState //gm:ephemeral carried sort order; placeOrder rebuilds it by one full sort when it no longer covers s.running
	starters []*jobState //gm:ephemeral per-slot scratch, the slot's starters in compareFFD order

	acct      metrics.EnergyAccount
	sla       metrics.SLAAccount
	series    *metrics.TimeSeries
	nodeHours float64
	diskHours float64

	// Observability: obs receives one audit.SlotTrace per slot. The prev*
	// snapshots turn cumulative accounts into per-slot deltas; they are
	// only maintained when obs is non-nil, so the trace layer costs one nil
	// check per slot when disabled.
	obs           audit.Observer //gm:ephemeral observer wiring is the caller's, re-attached via Config
	prevSLA       metrics.SLAAccount
	prevBat       battery.Account
	prevBoots     int
	prevShutdowns int
	prevDisk      storage.DiskStats

	// lastDrawW and lastRunDeferrable feed the self-correcting mandatory
	// power estimate (previous slot's measured draw minus the deferrable
	// jobs' planning share).
	lastDrawW         units.Power
	lastRunDeferrable int

	// Fault injection state. faults is nil when no fault is configured —
	// the legacy MTBF process, once folded into cfg.Faults, runs through
	// the engine with its historical draw sequence intact.
	faults    *fault.Engine
	repairAt  map[int]int // failed node -> slot it returns to service
	nextJobID int         // for synthesized repair jobs

	// Degradation accounting: an episode opens when faults become active
	// and closes when the backlog drains back to its pre-episode level.
	degrade         metrics.DegradeAccount
	inEpisode       bool
	backlogBaseline int
	prevBacklog     int

	// planScratch is the reusable planning memory threaded into every
	// policy View (View.Scratch): solver graphs, grouping arenas, start
	// lists. Per-Simulator, so concurrent Runs never share it.
	planScratch *sched.PlanScratch //gm:ephemeral reusable planning scratch, meaningless across slots

	// Event-driven slot skipping (see canFastForward and step). skipEnabled
	// is latched in New: the policy must guarantee a constant quiescent
	// decision (sched.QuiescentPlanner), utilization modeling must be off,
	// and Config.DisableSlotSkipping must be unset. quiescentDec is that
	// constant decision, used for trace emission on quiet slots.
	skipEnabled  bool           //gm:ephemeral latched in New from Config and the policy's static contract
	quiescentDec sched.Decision //gm:ephemeral latched in New from the policy's static contract
	// placementSettled means the last slot changed nothing structural: no
	// promotions, suspensions, start attempts, migrations, completions,
	// disk wakes or fault transitions — so replanning this slot would
	// reproduce the placement and power plan verbatim.
	placementSettled bool
	// drawValid/spunValid guard cached quiet-slot aggregates: the cluster
	// power draw with no busy disks, the spinning-disk and powered-node
	// counts. Invalidated by any full slot; a completion invalidates the
	// draw and a wake the counts.
	drawValid    bool        //gm:ephemeral cache validity latch, starts invalid after restore
	spunValid    bool        //gm:ephemeral cache validity latch, starts invalid after restore
	cachedDrawW  units.Power //gm:ephemeral cached aggregate, recomputed when revalidated
	cachedSpun   int         //gm:ephemeral cached aggregate, recomputed when revalidated
	cachedPowNds int         //gm:ephemeral cached aggregate, recomputed when revalidated
	fastSlots    int
}

// New validates the config (after applying defaults) and builds a simulator.
func New(cfg Config) (*Simulator, error) {
	cfg = cfg.ApplyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Normalize the node count for tiered clusters so every consumer of
	// cfg.Cluster.Nodes (placement, capacity planning, cover-cache keys)
	// sees the effective total.
	cfg.Cluster.Nodes = cfg.Cluster.TotalNodes()
	cluster, err := storage.NewCluster(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	var bat *battery.Battery
	if cfg.InfiniteBattery {
		bat = battery.Infinite(cfg.BatterySpec)
	} else {
		bat, err = battery.New(cfg.BatterySpec, cfg.BatteryCapacityWh)
		if err != nil {
			return nil, err
		}
	}
	reads, err := storage.NewReadModel(cluster, cfg.ReadsPerSlot, cfg.ZipfTheta, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:     cfg,
		cluster: cluster,
		bat:     bat,
		reads:   reads,
		obs:     cfg.Observer,
	}
	s.fullCover = cluster.MinimalCover()
	onCover := make([]bool, cfg.Cluster.Nodes)
	for _, id := range s.fullCover {
		if !onCover[id.Node] {
			onCover[id.Node] = true
			s.fullCoverNodeIDs = append(s.fullCoverNodeIDs, id.Node)
		}
	}
	sort.Ints(s.fullCoverNodeIDs)

	// Pre-size the per-slot scratch state from the scenario dimensions so
	// the slot loop never grows it. The queue-shaped scratch (toStart, view
	// backings) grows amortized to the high-water concurrency instead —
	// trace length would massively over-allocate for long runs.
	nodes := cfg.Cluster.Nodes
	s.needed = make([]bool, nodes)
	s.ioNodes = make([]bool, nodes)
	s.failedMask = make([]bool, nodes)
	s.cpuUtil = make([]float64, nodes)
	s.keepMask = make([]bool, nodes*cfg.Cluster.NodeProfile.DisksPerNode)
	s.coverKey = make([]byte, nodes)
	s.coverCache = make(map[string][]storage.DiskID)
	if ip, ok := cfg.Forecaster.(forecast.IntoPredictor); ok {
		// All forecasters in this repository predict into the reusable
		// buffer; a custom Forecaster without PredictInto falls back to the
		// allocating Predict path in buildView.
		s.predictInto = ip
		s.forecastBuf = make([]units.Power, 0, 24)
	}
	// The trace is sorted (Validate), so it is already in due order. The
	// clip makes a later enqueue copy it rather than write into a Config
	// that concurrent runs share.
	s.arrivals = slices.Clip(cfg.Trace)
	for _, j := range s.arrivals {
		s.noteArrival(j)
	}
	if cfg.RecordSeries {
		s.series = &metrics.TimeSeries{}
	}
	if s.faults = fault.NewEngine(cfg.Faults, cfg.Seed, cfg.SlotHours); s.faults != nil {
		s.repairAt = make(map[int]int)
	}
	s.planScratch = &sched.PlanScratch{}
	// Latch the slot-skipping eligibility. The QuiescentPlanner contract —
	// Plan returns exactly QuiescentDecision on any view with empty Waiting
	// and RunningDeferrable sets — is what lets the fast path skip the
	// policy call entirely; utilization modeling couples power draw to
	// per-slot job phase, which the fast path does not model.
	if qp, ok := cfg.Policy.(sched.QuiescentPlanner); ok &&
		!cfg.DisableSlotSkipping && !cfg.ModelUtilization {
		s.skipEnabled = true
		s.quiescentDec = qp.QuiescentDecision()
	}
	return s, nil
}

// Run executes the simulation to completion and returns the result.
// A Simulator is single-use and must not itself be shared between
// goroutines, but distinct Simulators may Run concurrently — see the
// concurrency contract on the package-level Run.
func (s *Simulator) Run() (*Result, error) {
	s.advance(math.MaxInt)
	return s.finalize(s.next)
}

// advance executes slots up to and including target, stopping early once
// the run drains or exhausts its overrun budget past the last arrival. It
// is the one slot loop: Run, Live.StepTo and Live.Finalize all drive it,
// which is what makes a live run stop exactly where the batch run does.
func (s *Simulator) advance(target int) {
	for s.next <= target && !s.drained {
		maxSlot := s.lastArrival + s.cfg.MaxOverrunSlots
		if s.next > maxSlot {
			return
		}
		t := s.next
		s.runSlot(t)
		s.next = t + 1
		s.drained = t >= s.lastArrival && len(s.waiting) == 0 && len(s.mandQueue) == 0 && len(s.running) == 0
	}
}

// runSlot executes one slot: admit the queued arrivals due by slot t, run
// the fault phase, then the slot kernel.
func (s *Simulator) runSlot(t int) {
	s.admitDue(t)
	// Quiet slots skip planning, placement and the power plan — provably
	// no-ops on a settled slot — while every other per-slot phase (reads,
	// fault draws, settlement, SLA clocks, trace emission) runs
	// bit-identically. Quietness is judged before the fault phase, which
	// runs on every slot so the randomness stream stays aligned; a fault
	// that changes the fleet sends the slot down the full path.
	quiet := s.canFastForward()
	// 0. Fault injection: repairs and crashes (evictions, repair-job
	// synthesis), then battery capacity fade — before the policy plans, so
	// its view reflects the faded battery and the surviving fleet.
	changed := s.faultPhase(t)
	s.step(t, changed, quiet && !changed)
}

// admitDue admits, in queue order, the queued arrivals due by slot t —
// a prefix of the queue, since every job left in it is due at next or
// later.
func (s *Simulator) admitDue(t int) {
	for len(s.arrivals) > 0 && s.arrivals[0].Submit <= t {
		s.admit(s.arrivals[0])
		s.arrivals = s.arrivals[1:]
	}
}

// enqueue queues j behind every pending job due no later than it. A job is
// due at max(Submit, next): one whose submit slot has passed is admitted
// at the next slot, after the jobs already due there.
func (s *Simulator) enqueue(j workload.Job) {
	due := max(j.Submit, s.next)
	i := sort.Search(len(s.arrivals), func(i int) bool { return s.arrivals[i].Submit > due })
	s.arrivals = slices.Insert(s.arrivals, i, j)
	s.noteArrival(j)
}

// noteArrival extends the last arrival slot and the synthesized job-id
// floor over j.
func (s *Simulator) noteArrival(j workload.Job) {
	s.lastArrival = max(s.lastArrival, j.Submit)
	s.nextJobID = max(s.nextJobID, j.ID+1)
}

// finalize closes the books after the last executed slot and assembles the
// Result: straggler accounting, battery account folding, conservation
// checks, and the observer's end-of-run totals.
func (s *Simulator) finalize(slots int) (*Result, error) {
	// Stragglers that never completed are deadline misses.
	s.sla.DeadlineMisses += len(s.waiting) + len(s.mandQueue) + len(s.running)

	ba := s.bat.Account()
	s.acct.BatteryInAccepted = ba.InAccepted
	s.acct.BatteryEffLoss = ba.EfficiencyLoss
	s.acct.BatterySelfLoss = ba.SelfDischargeLoss

	boots, shutdowns := 0, 0
	for _, n := range s.cluster.Nodes() {
		boots += n.Boots
		shutdowns += n.Shutdowns
	}
	res := &Result{
		Policy:            s.cfg.Policy.Name(),
		Slots:             slots,
		Energy:            s.acct,
		SLA:               s.sla,
		Battery:           ba,
		BatteryCapacityWh: s.bat.Capacity(),
		BatteryCycles:     s.bat.EquivalentFullCycles(),
		BatteryWear:       s.bat.WearFraction(),
		Disk:              s.cluster.DiskStatsTotal(),
		NodeBoots:         boots,
		NodeShutdowns:     shutdowns,
		NodeHours:         s.nodeHours,
		DiskSpunHours:     s.diskHours,
		ReadLatencyMs:     s.reads.Latencies.Summarize(),
		Degrade:           s.degrade,
		FastSlots:         s.fastSlots,
		Series:            s.series,
	}
	if err := s.checkConservation(res); err != nil {
		return nil, err
	}
	if ro, ok := s.obs.(audit.RunObserver); ok && s.obs != nil {
		tot := audit.RunTotals{
			Policy:            res.Policy,
			Slots:             res.Slots,
			DemandWh:          s.acct.Demand.Wh(),
			MigrationWh:       s.acct.MigrationOverhead.Wh(),
			TransitionWh:      s.acct.TransitionOverhead.Wh(),
			GreenProducedWh:   s.acct.GreenProduced.Wh(),
			GreenDirectWh:     s.acct.GreenDirect.Wh(),
			BatteryOutWh:      s.acct.BatteryOut.Wh(),
			BrownWh:           s.acct.Brown.Wh(),
			BatteryInWh:       s.acct.BatteryInAccepted.Wh(),
			GreenLostWh:       s.acct.GreenLost.Wh(),
			BatteryEffLossWh:  s.acct.BatteryEffLoss.Wh(),
			BatterySelfLossWh: s.acct.BatterySelfLoss.Wh(),
			Submitted:         s.sla.Submitted,
			Completed:         s.sla.Completed,
			DeadlineMisses:    s.sla.DeadlineMisses,
		}
		if err := ro.EndRun(tot); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Run is the one-shot convenience: build a simulator for cfg and execute it.
//
// Concurrency contract: a Config may be shared across concurrent Runs; Run
// never mutates it. The Config is received by value, every reference-typed
// field it carries (the Trace slice, a solar.Series supply, Cluster.Tiers)
// is treated strictly read-only, and all mutable simulation state — the
// storage.Cluster, battery.Battery, read model with its rng streams, the
// arrival queue, job lifecycle records and the cover cache — is built fresh
// per Simulator inside New. Policies and Forecasters are shared by value
// too and must stay pure planners (all implementations in this repository
// are stateless); a custom Policy or Forecaster with internal mutable
// state must not be shared across concurrent Runs. Under this contract
// runs are deterministic: the same Config produces the same Result
// regardless of how many Runs execute in parallel.
func Run(cfg Config) (*Result, error) {
	sim, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return sim.Run()
}

// admit classifies a newly arrived job.
func (s *Simulator) admit(j workload.Job) {
	s.sla.Submitted++
	st := &jobState{job: j, remaining: j.Duration, node: -1, completedAt: -1}
	if j.Class.Deferrable() {
		s.waiting = append(s.waiting, st)
	} else {
		st.mandatory = true
		s.mandQueue = append(s.mandQueue, st)
	}
}

// stepFailures processes repairs and injects the fault engine's node
// crashes at slot t. It reports whether the fleet changed structurally
// (any repair or crash applied) — the signal that forces the slot through
// the full pipeline even when it would otherwise fast-forward.
func (s *Simulator) stepFailures(t int) bool {
	changed := false
	// Repaired nodes return to service (powered off; the power plan may
	// boot them when needed).
	for id, due := range s.repairAt {
		if due <= t {
			s.cluster.RepairNode(id)
			s.failedMask[id] = false
			delete(s.repairAt, id)
			changed = true
		}
	}
	// The engine draws its MTBF Bernoullis over the healthy powered nodes
	// in node order — the historical draw discipline — then appends any
	// event-scheduled crashes.
	healthyPowered := s.healthyPow[:0]
	for _, n := range s.cluster.Nodes() {
		if !n.Failed && n.Powered {
			healthyPowered = append(healthyPowered, n.ID)
		}
	}
	s.healthyPow = healthyPowered
	for _, c := range s.faults.Crashes(t, healthyPowered) {
		if s.cluster.Node(c.Node).Failed {
			continue // an explicit event named a node already down
		}
		s.crashNode(t, c.Node, c.RepairSlots)
		changed = true
	}
	return changed
}

// faultPhase runs the per-slot fault work both step paths share: repairs,
// crashes, battery capacity fade. The MTBF Bernoullis and the fade factor
// are drawn/evaluated every simulated slot regardless of path, keeping the
// fault randomness stream and battery state byte-identical with and without
// slot skipping. Returns whether the fleet changed structurally.
func (s *Simulator) faultPhase(t int) bool {
	if s.faults == nil {
		return false
	}
	changed := s.stepFailures(t)
	s.bat.Derate(s.faults.FadeFactor(t))
	return changed
}

// crashNode fails one node: evicts its jobs, schedules its repair, and
// synthesizes re-replication work.
func (s *Simulator) crashNode(t, node, repairSlots int) {
	lost := s.cluster.FailNode(node)
	s.sla.NodeFailures++
	s.repairAt[node] = t + repairSlots
	s.failedMask[node] = true
	// Evict the node's jobs: progress is kept (the VM image survives
	// on shared replicas), placement is lost.
	kept := s.running[:0]
	for _, st := range s.running {
		if st.node != node {
			kept = append(kept, st)
			continue
		}
		st.running = false
		st.node = -1
		s.sla.Evictions++
		if st.mandatory {
			s.mandQueue = append(s.mandQueue, st)
		} else {
			s.waiting = append(s.waiting, st)
		}
	}
	s.running = kept
	// Synthesize re-replication work: one Repair job per ~100 degraded
	// objects, I/O-bound with a tight deadline.
	repairs := (lost + 99) / 100
	for k := 0; k < repairs; k++ {
		dur := 1 + k%2
		job := workload.Job{
			ID:       s.nextJobID,
			Class:    workload.Repair,
			Submit:   t,
			Duration: dur,
			Deadline: t + dur + 8,
			CPU:      1,
			RAMGB:    1,
			IOBound:  true,
		}
		s.nextJobID++
		s.sla.RepairJobsGenerated++
		s.admit(job)
	}
}

// failedNodes returns the failed-node mask, or nil when no node is down
// (the common case, letting callers skip mask reads entirely).
func (s *Simulator) failedNodes() []bool {
	if len(s.repairAt) == 0 {
		return nil
	}
	return s.failedMask
}

// step is the slot kernel, run after the fault phase. A full slot replans
// (phases 1–6); a quiet slot — one canFastForward proved settled and the
// fault phase left alone — skips them and carries the policy's constant
// quiescent decision. Both then share phases 7–12 once: reads, I/O busy
// marking, settlement, progress, accounting and the settledness latch,
// which faultChanged feeds. The quiet-slot aggregates (cluster draw,
// spinning-disk and powered-node counts) are cached between structural
// changes.
//
// step is the per-slot hot path (//gm:hotpath): trace assembly and any
// other observer work must sit behind the single `s.obs != nil` check so
// that a run without an observer pays nothing but that comparison.
// gmlint's observerhot analyzer enforces this.
func (s *Simulator) step(t int, faultChanged, quiet bool) {
	h := s.cfg.SlotHours
	migsBefore := s.sla.Migrations
	dec := s.quiescentDec
	var promoted, started, attempted int
	var migE, overhead units.Energy
	if quiet {
		s.fastSlots++
	} else {
		dec, promoted, started, attempted, migE, overhead = s.replan(t)
		// The power plan may have moved nodes and disks, so the quiet-slot
		// caches no longer describe the cluster.
		s.drawValid = false
		s.spunValid = false
	}

	// 7. Storage read traffic, every slot: the Poisson/Zipf streams must
	// advance identically on quiet and full slots. A read may wake a disk.
	rr := s.reads.Step(s.cluster)
	overhead += rr.WakeEnergy
	s.sla.ColdReads += rr.ColdReads
	s.sla.UnservedReads += rr.Unserviceable

	// 8. I/O-bound jobs keep disks on their node busy. A wake (cold read or
	// I/O spin-up) leaves disks spinning outside the power plan: the spin
	// count is stale, and the latch below sends the next slot through
	// replan, which parks them again.
	ioE, ioBusy := s.markIOBusy()
	overhead += ioE
	woke := rr.ColdReads > 0 || ioE > 0
	if woke {
		s.spunValid = false
	}

	// 8b. Under the utilization model, resolve physical overloads that
	// over-commit provoked (forced migrations, throttling as last resort).
	if s.cfg.ModelUtilization {
		migE += s.resolveOverloads(t)
	}

	// 9. Power draw and energy settlement. A quiet slot with no disk
	// activity draws what the previous such slot drew, so that draw is
	// cached.
	steady := quiet && rr.Reads == 0 && !ioBusy
	var demandP units.Power
	if steady && s.drawValid {
		demandP = s.cachedDrawW
	} else {
		var cpuUtil []float64
		if s.cfg.ModelUtilization {
			cpuUtil = s.actualUtilByNode(t)
		} else {
			cpuUtil = s.cpuUtilByNode()
		}
		demandP = s.cluster.SlotDrawUtil(cpuUtil)
		if steady {
			s.cachedDrawW = demandP
			s.drawValid = true
		}
	}
	fl := s.settleSlot(t, demandP, overhead, migE)

	// 10. Progress and completions. A completion shrinks the running set,
	// and with it the draw.
	jobsRunning := len(s.running)
	completions := s.advanceJobs(t)
	if completions > 0 {
		s.drawValid = false
	}

	// 11. Degradation accounting, node/disk-hour integration, series
	// sample and slot reset. The spin and power counts are cached across
	// quiet slots only.
	if s.faults != nil {
		s.trackDegradation(t)
	}
	if !s.spunValid {
		s.cachedSpun, s.cachedPowNds = 0, 0
		for _, n := range s.cluster.Nodes() {
			if !n.Powered {
				continue
			}
			s.cachedPowNds++
			for _, d := range n.Disks {
				if d.SpunUp() {
					s.cachedSpun++
				}
			}
		}
		s.spunValid = quiet
	}
	s.nodeHours += float64(s.cachedPowNds) * h
	s.diskHours += float64(s.cachedSpun) * h
	if s.series != nil {
		s.addSeries(t, fl, s.cachedSpun, jobsRunning)
	}
	if s.obs != nil {
		s.emitTrace(t, h, fl, dec, promoted, started, jobsRunning, s.cachedSpun)
	}
	if !steady {
		// ResetSlot settles busy disks back to their steady state. On a
		// quiet slot with no disk activity it is a whole-cluster no-op
		// (only the unobservable Active/Idle distinction could differ;
		// draw and coverage read SpunUp and the busy flag), so it is
		// skipped.
		s.cluster.ResetSlot()
	}

	// 12. Latch the settledness. The slot settled iff nothing moved:
	// replanning an identical slot would reproduce the same (constant)
	// quiescent decision, the same FFD packing and the same power plan, so
	// the next slot may skip all three. On a quiet slot this reduces to
	// "no wake and no completion".
	s.placementSettled = !faultChanged && !woke && promoted == 0 &&
		len(dec.SuspendRunning) == 0 && attempted == 0 &&
		s.sla.Migrations == migsBefore && completions == 0
}

// replan runs phases 1–6 of a full slot: promotion, planning, suspensions,
// start collection, placement and the power plan. It returns the decision,
// the promoted, started and attempted counts, the VM-management energy
// (suspensions plus migrations) and the transition energy.
//
// replan is on the per-slot hot path (//gm:hotpath).
func (s *Simulator) replan(t int) (dec sched.Decision, promoted, started, attempted int, mgmtE, transE units.Energy) {
	// 1. Promote slack-exhausted deferrable jobs to mandatory.
	kept := s.waiting[:0]
	for _, st := range s.waiting {
		if st.job.SlackAt(t, st.remaining) <= 0 {
			st.mandatory = true
			promoted++
			s.mandQueue = append(s.mandQueue, st)
		} else {
			kept = append(kept, st)
		}
	}
	s.waiting = kept

	// 2. Ask the policy for a plan.
	view := s.buildView(t)
	dec = s.cfg.Policy.Plan(view)
	if err := dec.Check(view); err != nil {
		panic(fmt.Sprintf("core: policy %s returned invalid decision: %v", s.cfg.Policy.Name(), err))
	}

	// 3. Apply suspensions (running deferrable -> waiting). Each one
	// charges the VM save/restore energy alongside migrations. The decision
	// indexes view.RunningDeferrable; runDefRefs (built alongside the view)
	// resolves each index to its jobState, which is marked and then
	// filtered out of s.running in place. Marks are cleared as they are
	// consumed: every marked job is non-mandatory (runDefRefs only lists
	// those) and still in s.running, so the filter visits all of them.
	if len(dec.SuspendRunning) > 0 {
		for _, idx := range dec.SuspendRunning {
			s.runDefRefs[idx].mark = true
		}
		keptRunning := s.running[:0]
		for _, st := range s.running {
			if st.mark && !st.mandatory {
				st.mark = false
				st.running = false
				st.node = -1
				st.suspensions++
				s.sla.Suspensions++
				mgmtE += suspendCostWh
				s.waiting = append(s.waiting, st)
			} else {
				keptRunning = append(keptRunning, st)
			}
		}
		s.running = keptRunning
	}

	// 4. Collect starts: all mandatory plus the policy's picks. The view
	// was built before suspensions appended to s.waiting, and promotion ran
	// before the view, so waitingRefs still addresses the selected jobs —
	// by pointer, so the append-churn on s.waiting in step 3 cannot
	// misdirect the marks. toStart is per-Simulator scratch: it only holds
	// jobState pointers, never aliases the queue backing arrays, and stays
	// valid while place() rewrites the queues below.
	for _, idx := range dec.StartWaiting {
		s.waitingRefs[idx].mark = true
	}
	toStart := append(s.toStart[:0], s.mandQueue...)
	keptWaiting := s.waiting[:0]
	for _, st := range s.waiting {
		if st.mark {
			st.mark = false
			toStart = append(toStart, st)
		} else {
			keptWaiting = append(keptWaiting, st)
		}
	}
	s.waiting = keptWaiting
	s.toStart = toStart

	// 5. Placement (returns migration energy; together with suspension
	// energy it forms the VM-management overhead, accounted separately
	// from transition overhead but part of the slot's load).
	runningBefore := len(s.running)
	mgmtE += s.place(t, toStart, dec.Consolidate)
	started = len(s.running) - runningBefore

	// 6. Node power management + disk plan.
	transE = s.applyPowerPlan(dec.SpinDownDisks)
	return dec, promoted, started, len(toStart), mgmtE, transE
}

// settleSlot performs the slot's energy settlement — demand, overheads,
// green supply (through any supply fault), battery discharge/charge with
// blocked-window gates, losses, self-discharge — and feeds the next slot's
// mandatory-power estimate. Quiet and full slots settle through it alike:
// every accumulation happens here in one fixed order, which is what makes
// slot skipping bit-exact (batching slots algebraically would change float
// summation order).
func (s *Simulator) settleSlot(t int, demandP units.Power, overhead, migE units.Energy) slotFlows {
	h := s.cfg.SlotHours
	demandE := demandP.Over(h)
	s.acct.Demand += demandE
	s.acct.TransitionOverhead += overhead
	s.acct.MigrationOverhead += migE

	load := demandE + overhead + migE
	// Supply-side faults withhold production before it reaches the
	// facility: GreenProduced (and every identity downstream) sees only the
	// effective supply, so conservation holds through any fault schedule;
	// the withheld energy is tracked separately for the trace.
	nominalGreen := s.cfg.Green.Power(t)
	effectiveGreen := nominalGreen
	if s.faults != nil {
		effectiveGreen = s.faults.Supply(t, nominalGreen)
	}
	greenAvail := effectiveGreen.Over(h)
	supplyFault := units.NonNegE(nominalGreen.Over(h) - greenAvail)
	s.acct.GreenProduced += greenAvail

	greenDirect := units.MinEnergy(load, greenAvail)
	s.acct.GreenDirect += greenDirect

	deficit := units.NonNegE(load - greenDirect)
	var batOut units.Energy
	if deficit > 0 && !(s.faults != nil && s.faults.DischargeBlocked(t)) {
		batOut = s.bat.Discharge(deficit, h)
	}
	s.acct.BatteryOut += batOut
	brown := units.NonNegE(deficit - batOut)
	s.acct.Brown += brown

	surplus := units.NonNegE(greenAvail - greenDirect)
	var accepted units.Energy
	if surplus > 0 && !(s.faults != nil && s.faults.ChargeBlocked(t)) {
		accepted = s.bat.Charge(surplus, h)
	}
	s.acct.GreenLost += surplus - accepted
	s.bat.TickSelfDischarge(h)

	// Feed the next slot's mandatory-power estimate.
	s.lastDrawW = demandP
	s.lastRunDeferrable = 0
	for _, st := range s.running {
		if !st.mandatory {
			s.lastRunDeferrable++
		}
	}
	return slotFlows{
		demand: demandE, overhead: overhead, mig: migE, load: load,
		greenAvail: greenAvail, greenDirect: greenDirect, batOut: batOut,
		brown: brown, surplus: surplus, accepted: accepted,
		supplyFault: supplyFault,
	}
}

// advanceJobs decrements remaining work on every running job and retires
// completions, returning how many completed.
func (s *Simulator) advanceJobs(t int) int {
	completions := 0
	keptRunning := s.running[:0]
	for _, st := range s.running {
		st.remaining--
		if st.remaining <= 0 {
			st.completedAt = t + 1
			st.running = false
			s.sla.Completed++
			completions++
			if st.completedAt > st.job.Deadline {
				s.sla.DeadlineMisses++
			}
		} else {
			keptRunning = append(keptRunning, st)
		}
	}
	s.running = keptRunning
	return completions
}

// addSeries records the slot's time-series sample. Only called when
// Config.RecordSeries is on.
func (s *Simulator) addSeries(t int, fl slotFlows, spun, jobsRunning int) {
	h := s.cfg.SlotHours
	s.series.Add(metrics.SlotSample{
		Slot:        t,
		DemandW:     fl.load.Rate(h).Watts(),
		GreenW:      fl.greenAvail.Rate(h).Watts(),
		GreenUsedW:  fl.greenDirect.Rate(h).Watts(),
		BatteryOutW: fl.batOut.Rate(h).Watts(),
		BatteryInW:  fl.accepted.Rate(h).Watts(),
		BrownW:      fl.brown.Rate(h).Watts(),
		GreenLostW:  (fl.surplus - fl.accepted).Rate(h).Watts(),
		BatterySoC:  s.bat.SoC(),
		NodesOn:     s.cluster.PoweredNodeCount(),
		DisksSpun:   spun,
		JobsRunning: jobsRunning,
		JobsWaiting: len(s.waiting) + len(s.mandQueue),
	})
}

// canFastForward reports whether the slot about to run may take the
// event-driven fast path. The conditions jointly guarantee the full
// pipeline would be a structural no-op this slot:
//
//   - skipEnabled: the policy's quiescent decision is a known constant and
//     utilization modeling is off;
//   - empty queues and no running deferrable jobs: promotion cannot fire,
//     the policy view's Waiting/RunningDeferrable sets are empty, so Plan
//     would return exactly quiescentDec (the QuiescentPlanner contract);
//   - placementSettled: the previous slot moved nothing, so replanning
//     reproduces the current FFD packing (its input — the running set in
//     order, the failed mask — is unchanged and it is deterministic) and
//     the power plan reproduces the current masks.
//
// Discrete events need no lookahead. An arrival due at the slot is
// admitted before this check, so it fills a queue. A crash or repair the
// fault phase applies makes it report a structural change, which sends the
// slot down the full path.
func (s *Simulator) canFastForward() bool {
	if !s.skipEnabled || !s.placementSettled {
		return false
	}
	return len(s.waiting) == 0 && len(s.mandQueue) == 0 && s.lastRunDeferrable == 0
}

// degradedNow reports whether slot t counts as degraded: crashed nodes
// awaiting repair, or a scheduled fault-event window covering the slot.
func (s *Simulator) degradedNow(t int) bool {
	if s.faults == nil {
		return false
	}
	return len(s.repairAt) > 0 || s.faults.EventActive(t)
}

// trackDegradation advances the degradation episode state machine at the
// end of slot t. Only called when fault injection is configured, so runs
// without faults report an all-zero DegradeAccount by construction.
func (s *Simulator) trackDegradation(t int) {
	backlog := len(s.waiting) + len(s.mandQueue)
	switch {
	case s.degradedNow(t):
		s.degrade.DegradedSlots++
		if !s.inEpisode {
			s.inEpisode = true
			s.backlogBaseline = s.prevBacklog
		}
		if backlog > s.degrade.BacklogPeak {
			s.degrade.BacklogPeak = backlog
		}
		if !s.cluster.Covered() {
			s.degrade.CoverageLossSlots++
		}
	case s.inEpisode:
		// Faults cleared; recovery lasts until the backlog drains back to
		// its pre-episode level.
		if backlog <= s.backlogBaseline {
			s.inEpisode = false
			break
		}
		s.degrade.RecoverySlots++
		if backlog > s.degrade.BacklogPeak {
			s.degrade.BacklogPeak = backlog
		}
	}
	s.prevBacklog = backlog
}

// slotFlows carries one slot's settled energy quantities into emitTrace.
type slotFlows struct {
	demand, overhead, mig, load     units.Energy
	greenAvail, greenDirect, batOut units.Energy
	brown, surplus, accepted        units.Energy
	supplyFault                     units.Energy
}

// emitTrace assembles the slot's audit.SlotTrace — per-slot deltas of the
// cumulative accounts, end-of-slot battery and fleet state, and the replica
// coverage predicate — and hands it to the configured observer. Only called
// when an observer is configured (//gm:observed — gmlint flags any call
// site not guarded by a nil-observer check); the prev* snapshots it
// maintains exist for no other purpose.
func (s *Simulator) emitTrace(t int, h float64, fl slotFlows, dec sched.Decision, promoted, started, jobsRunning, spun int) {
	batAcct := s.bat.Account()
	batDelta := batAcct.Sub(s.prevBat)
	s.prevBat = batAcct
	slaDelta := s.sla.Sub(s.prevSLA)
	s.prevSLA = s.sla

	fleet := s.cluster.Tally()

	unbounded := math.IsInf(s.bat.Capacity().Wh(), 1)
	usable := s.bat.UsableCapacity().Wh()
	if unbounded {
		usable = 0
	}
	tr := audit.SlotTrace{
		Slot:              t,
		Policy:            s.cfg.Policy.Name(),
		SlotHours:         h,
		DemandWh:          fl.demand.Wh(),
		MigrationWh:       fl.mig.Wh(),
		TransitionWh:      fl.overhead.Wh(),
		LoadWh:            fl.load.Wh(),
		GreenAvailWh:      fl.greenAvail.Wh(),
		GreenDirectWh:     fl.greenDirect.Wh(),
		BatteryOutWh:      fl.batOut.Wh(),
		BrownWh:           fl.brown.Wh(),
		BatteryInWh:       fl.accepted.Wh(),
		GreenLostWh:       (fl.surplus - fl.accepted).Wh(),
		BatteryEffLossWh:  batDelta.EfficiencyLoss.Wh(),
		BatterySelfLossWh: batDelta.SelfDischargeLoss.Wh(),
		BatteryStoredWh:   s.bat.Stored().Wh(),
		BatteryUsableWh:   usable,
		BatterySoC:        s.bat.SoC(),
		BatteryUnbounded:  unbounded,
		Starts:            started,
		Suspensions:       slaDelta.Suspensions,
		Migrations:        slaDelta.Migrations,
		Promotions:        promoted,
		Deferred:          len(s.waiting),
		Consolidate:       dec.Consolidate,
		SpinDownDisks:     dec.SpinDownDisks,
		NodesOn:           fleet.NodesOn,
		DisksSpun:         spun,
		NodeBoots:         fleet.Boots - s.prevBoots,
		NodeShutdowns:     fleet.Shutdowns - s.prevShutdowns,
		DiskSpinUps:       fleet.Disk.SpinUps - s.prevDisk.SpinUps,
		DiskSpinDowns:     fleet.Disk.SpinDowns - s.prevDisk.SpinDowns,
		JobsRunning:       jobsRunning,
		JobsWaiting:       len(s.waiting) + len(s.mandQueue),
		Completions:       slaDelta.Completed,
		DeadlineMisses:    slaDelta.DeadlineMisses,
		ColdReads:         slaDelta.ColdReads,
		UnservedReads:     slaDelta.UnservedReads,
		NodeFailures:      slaDelta.NodeFailures,
		Evictions:         slaDelta.Evictions,
		CoverageOK:        fleet.Covered,
		FailedNodes:       len(s.repairAt),
	}
	if s.faults != nil {
		tr.FaultsActive = s.faults.ActiveKinds(t)
		tr.SupplyFaultWh = fl.supplyFault.Wh()
		tr.BatteryFadeFactor = s.bat.FadeFactor()
		tr.DegradedMode = s.degradedNow(t)
	}
	s.prevBoots, s.prevShutdowns, s.prevDisk = fleet.Boots, fleet.Shutdowns, fleet.Disk
	s.obs.ObserveSlot(tr)
}

// buildView assembles the policy's view of the current slot. The Waiting
// and RunningDeferrable slices (and the aligned waitingRefs/runDefRefs
// jobState lookups step uses to resolve decision indices) live in
// per-Simulator scratch reused across slots; policies are pure planners and
// must not retain them past Plan.
func (s *Simulator) buildView(t int) sched.View {
	// The forecaster predicts nominal production — supply faults blindside
	// the scheduler by design — and forecast-corruption faults then distort
	// what it gets to see.
	var pred []units.Power
	if s.predictInto != nil {
		s.forecastBuf = s.predictInto.PredictInto(s.forecastBuf, s.cfg.Green, t, 24)
		pred = s.forecastBuf
	} else {
		pred = s.cfg.Forecaster.Predict(s.cfg.Green, t, 24)
	}
	if s.faults != nil {
		pred = s.faults.CorruptForecast(t, pred)
	}
	// Crashed nodes subtract real capacity: planning against the whole
	// fleet while part of it is down would over-start into placement
	// failures the policy cannot see.
	failed := len(s.repairAt)
	v := sched.View{
		Slot:               t,
		SlotHours:          s.cfg.SlotHours,
		GreenForecast:      pred,
		EstMandatoryPowerW: s.estMandatoryPower(),
		PerJobPowerW:       perJobPowerW,
		BatterySoC:         s.bat.SoC(),
		BatteryUsableWh:    s.bat.UsableCapacity(),
		BatteryEfficiency:  s.bat.Spec().Efficiency,
		TotalCPUCapacity:   float64(s.cfg.Cluster.Nodes-failed) * s.cfg.Cluster.CPUPerNode * s.cfg.Overcommit,
		Degraded:           failed > 0,
		FailedNodes:        failed,
		Scratch:            s.planScratch,
	}
	for _, st := range s.running {
		if st.mandatory {
			v.EstMandatoryCPU += st.job.CPU
		} else {
			v.RunningDeferrableCPU += st.job.CPU
		}
	}
	for _, st := range s.mandQueue {
		v.EstMandatoryCPU += st.job.CPU
	}
	if math.IsInf(v.BatteryUsableWh.Wh(), 1) {
		v.BatteryUsableWh = units.Energy(math.MaxFloat64)
	}
	s.viewWaiting = s.viewWaiting[:0]
	s.waitingRefs = s.waitingRefs[:0]
	for _, st := range s.waiting {
		s.viewWaiting = append(s.viewWaiting, sched.JobRef{Job: st.job, Remaining: st.remaining})
		s.waitingRefs = append(s.waitingRefs, st)
	}
	v.Waiting = s.viewWaiting
	s.viewRunDef = s.viewRunDef[:0]
	s.runDefRefs = s.runDefRefs[:0]
	for _, st := range s.running {
		if !st.mandatory && st.job.Class.Deferrable() {
			s.viewRunDef = append(s.viewRunDef, sched.JobRef{
				Job: st.job, Remaining: st.remaining, Running: true, Node: st.node,
			})
			s.runDefRefs = append(s.runDefRefs, st)
		}
	}
	v.RunningDeferrable = s.viewRunDef
	return v
}

// estMandatoryPower estimates the power the mandatory load will draw this
// and near-future slots. After the first slot it self-corrects from the
// previous slot's measured draw minus the planning share of the deferrable
// jobs that were running — this tracks whatever disk/node regime the policy
// actually operates in (a static analytic estimate systematically
// overestimates under spin-down, starving the matcher of headroom). It is
// floored at the coverage-node keep-alive power and, on the first slot,
// falls back to the analytic estimate.
func (s *Simulator) estMandatoryPower() units.Power {
	np := s.cfg.Cluster.NodeProfile
	floor := np.MinOnNodePower().Scale(float64(len(s.fullCoverNodeIDs)))
	if s.lastDrawW > 0 {
		est := s.lastDrawW - perJobPowerW.Scale(float64(s.lastRunDeferrable))
		return units.MaxPower(est, floor)
	}
	cpu := 0.0
	for _, st := range s.running {
		if st.mandatory {
			cpu += st.job.CPU
		}
	}
	for _, st := range s.mandQueue {
		cpu += st.job.CPU
	}
	nodesNeeded := int(math.Ceil(cpu / (s.cfg.Cluster.CPUPerNode * s.cfg.Overcommit)))
	if nodesNeeded < len(s.fullCoverNodeIDs) {
		nodesNeeded = len(s.fullCoverNodeIDs)
	}
	base := np.Server.IdleW + np.Disk.IdleW.Scale(float64(np.DisksPerNode))
	dynamic := (np.Server.PeakW - np.Server.IdleW).Scale(cpu / s.cfg.Cluster.CPUPerNode)
	return units.MaxPower(base.Scale(float64(nodesNeeded))+dynamic, floor)
}

// place seats running plus starting jobs on nodes. With consolidate it
// repacks everything (counting migrations); otherwise running jobs stay
// pinned and only new jobs are placed. Returns the migration energy.
func (s *Simulator) place(t int, toStart []*jobState, consolidate bool) units.Energy {
	items := s.placeItems[:0]
	for i, st := range s.placeOrder(toStart) {
		st.item = i
		pin := -1
		if st.running && !consolidate {
			pin = st.node
		}
		items = append(items, st.placeItem(pin))
	}
	s.placeItems = items
	if err := s.placer.Place(items, s.cfg.Cluster.Nodes, s.cfg.Cluster.CPUPerNode,
		s.cfg.Cluster.RAMPerNodeGB, s.cfg.Overcommit, s.failedNodes()); err != nil {
		panic(fmt.Sprintf("core: placement failed: %v", err))
	}

	// The placer keys its answer by item index, which each job records in
	// st.item. The settling below walks s.running, then toStart, not the
	// item order: that order fixes the queue appends and the new s.running
	// order, which later slots iterate.
	var migE units.Energy

	// Settle running jobs: migrations, or forced stay for unplaced (the
	// job keeps its current node; capacity pressure is absorbed by
	// over-commit clamping).
	for _, st := range s.running {
		newNode := s.placer.NodeOf(st.item)
		if newNode < 0 {
			continue
		}
		if newNode != st.node {
			st.node = newNode
			st.migrations++
			s.sla.Migrations++
			migE += migrationCostWh
		}
	}
	// Seat starters; unplaced ones return to their queue.
	for _, st := range toStart {
		newNode := s.placer.NodeOf(st.item)
		if newNode < 0 {
			if st.mandatory {
				s.mandQueue = appendUnique(s.mandQueue, st)
			} else {
				s.waiting = append(s.waiting, st)
			}
			continue
		}
		st.node = newNode
		st.running = true
		if !st.everStarted {
			st.everStarted = true
			st.firstStart = t
			wait := t - st.job.Submit
			s.sla.TotalWaitSlots += wait
			if wait > s.sla.MaxWaitSlots {
				s.sla.MaxWaitSlots = wait
			}
		}
		s.running = append(s.running, st)
	}
	// Remove seated jobs from the mandatory queue.
	keptQ := s.mandQueue[:0]
	for _, st := range s.mandQueue {
		if !st.running {
			keptQ = append(keptQ, st)
		}
	}
	s.mandQueue = keptQ

	return migE
}

// placeOrder returns the running jobs and the starters merged in
// compareFFD order, and carries the result to the next call as ffdOrder.
//
// Running jobs come from the carried order, filtered by st.running. Every
// job that becomes running does so in place, where it is a starter and so
// is merged in; every job that stops running has st.running cleared. The
// filtered order is therefore s.running in sorted order — unless the
// simulator was rebuilt from a snapshot, which carries no order. Its
// length then differs from len(s.running), and one full sort rebuilds it.
// The placer sorts its items again whatever order they come in, so the
// order only saves time: a stale one could cost speed, never a result.
func (s *Simulator) placeOrder(toStart []*jobState) []*jobState {
	running := s.ffdOrder[:0]
	for _, st := range s.ffdOrder {
		if st.running {
			running = append(running, st)
		}
	}
	if len(running) != len(s.running) {
		running = append(running[:0], s.running...)
		slices.SortFunc(running, compareFFD)
	}
	starters := append(s.starters[:0], toStart...)
	slices.SortFunc(starters, compareFFD)
	s.starters = starters

	// Merge from the back, in place: the k-th slot written lies past every
	// running job not yet moved, so none is overwritten before it is read.
	merged := append(running, starters...)
	i, j := len(running)-1, len(starters)-1
	for k := len(merged) - 1; j >= 0; k-- {
		if i >= 0 && compareFFD(running[i], starters[j]) > 0 {
			merged[k] = running[i]
			i--
		} else {
			merged[k] = starters[j]
			j--
		}
	}
	s.ffdOrder = merged
	return merged
}

// appendUnique appends st if not already present (by pointer).
func appendUnique(xs []*jobState, st *jobState) []*jobState {
	for _, x := range xs {
		if x == st {
			return xs
		}
	}
	return append(xs, st)
}

// applyPowerPlan powers exactly the needed nodes and, when spinDown is set,
// parks every disk outside the coverage set and the I/O-pinned set. It
// returns the transition energy.
func (s *Simulator) applyPowerPlan(spinDown bool) units.Energy {
	needed := s.needed
	ioNodes := s.ioNodes
	clear(needed)
	clear(ioNodes)
	for _, st := range s.running {
		needed[st.node] = true
		if st.job.IOBound {
			ioNodes[st.node] = true
		}
	}

	var overhead units.Energy
	keep := s.keepMask
	clear(keep)
	perNode := s.cfg.Cluster.NodeProfile.DisksPerNode

	if spinDown {
		cover, ok := s.coveredOn(needed)
		if !ok {
			// Expand with the precomputed full-cover nodes (minus any that
			// have failed), which suffice whenever the cluster is healthy.
			for _, n := range s.fullCoverNodeIDs {
				if !s.failedMask[n] {
					needed[n] = true
				}
			}
			cover, ok = s.coveredOn(needed)
			if !ok {
				// Failures left some objects with no reachable replica:
				// cover what is coverable on every healthy node; the
				// remainder shows up as unserved reads.
				partial, _ := s.cluster.PartialCover()
				cover = partial
				for _, id := range partial {
					needed[id.Node] = true
				}
			}
		}
		for _, id := range cover {
			keep[id.Node*perNode+id.Disk] = true
			needed[id.Node] = true
		}
		// I/O-bound jobs need their node's disks spinning.
		for n, io := range ioNodes {
			if !io {
				continue
			}
			base := n * perNode
			for k := 0; k < perNode; k++ {
				keep[base+k] = true
			}
		}
	} else {
		for _, n := range s.fullCoverNodeIDs {
			if !s.failedMask[n] {
				needed[n] = true
			}
		}
		for n, on := range needed {
			if !on {
				continue
			}
			base := n * perNode
			for k := 0; k < perNode; k++ {
				keep[base+k] = true
			}
		}
	}

	// Apply node power state.
	for _, n := range s.cluster.Nodes() {
		if needed[n.ID] && !n.Powered {
			overhead += s.cluster.PowerOnNode(n.ID)
		} else if !needed[n.ID] && n.Powered {
			overhead += s.cluster.PowerOffNode(n.ID)
		}
	}
	overhead += s.cluster.ApplyDiskPlanMask(keep)
	return overhead
}

// coveredOn is CoverOnNodeMask with memoization by node-set key (the
// failed set participates in the key: a node set covers differently
// depending on which nodes are crashed). A nil result (set cannot cover)
// is cached too, as a sentinel. The key is built in a per-Simulator
// scratch buffer and only materialized into a string on a cache miss, so
// the per-slot hit path is allocation-free.
func (s *Simulator) coveredOn(nodes []bool) ([]storage.DiskID, bool) {
	key := s.coverKey
	for i := range key {
		key[i] = 0
	}
	for n, on := range nodes {
		if on {
			key[n] = 1
		}
	}
	for n := range s.repairAt {
		key[n] |= 2
	}
	// map[string] lookup keyed by string(key) does not allocate; the
	// conversion is only paid when inserting a miss.
	if cached, ok := s.coverCache[string(key)]; ok {
		if len(cached) == 1 && cached[0].Node < 0 {
			return nil, false
		}
		return cached, true
	}
	cover, ok := s.cluster.CoverOnNodeMask(nodes)
	if !ok {
		s.coverCache[string(key)] = []storage.DiskID{{Node: -1, Disk: -1}}
		return nil, false
	}
	s.coverCache[string(key)] = cover
	return cover, true
}

// markIOBusy marks disks busy on nodes hosting I/O-bound jobs (three per
// job, spread by job id), spinning them up if a policy parked them. It
// returns the spin-up energy charged and whether any running job is
// I/O-bound.
func (s *Simulator) markIOBusy() (e units.Energy, ioBound bool) {
	perNode := s.cfg.Cluster.NodeProfile.DisksPerNode
	for _, st := range s.running {
		if !st.job.IOBound {
			continue
		}
		ioBound = true
		node := s.cluster.Node(st.node)
		for k := 0; k < 3 && k < perNode; k++ {
			d := node.Disks[(st.job.ID+k)%perNode]
			if !d.SpunUp() {
				e += d.SpinUp()
			}
			d.MarkBusy()
		}
	}
	return e, ioBound
}

// actualUtilByNode computes per-node CPU utilization from the jobs'
// modeled per-slot demand (reservation x utilization factor), clamped to 1
// — any residual overload after resolveOverloads is throttled hardware.
func (s *Simulator) actualUtilByNode(t int) []float64 {
	util := s.cpuUtil
	clear(util)
	for _, st := range s.running {
		util[st.node] += st.job.CPU * st.job.UtilAt(t) / s.cfg.Cluster.CPUPerNode
	}
	for n, u := range util {
		if u > 1 {
			util[n] = 1
		}
	}
	return util
}

// resolveOverloads relieves nodes whose actual demand exceeds physical
// capacity by force-migrating their hungriest movable jobs to the
// least-loaded powered node with both reservation room (under over-commit)
// and actual room. Jobs that fit nowhere stay put and the node throttles.
// Returns the forced-migration energy.
func (s *Simulator) resolveOverloads(t int) units.Energy {
	capCPU := s.cfg.Cluster.CPUPerNode
	nodes := s.cfg.Cluster.Nodes
	actual := make([]float64, nodes)
	reservedCPU := make([]float64, nodes)
	reservedRAM := make([]float64, nodes)
	jobsByNode := make([][]*jobState, nodes)
	for _, st := range s.running {
		need := st.job.CPU * st.job.UtilAt(t)
		actual[st.node] += need
		reservedCPU[st.node] += st.job.CPU
		reservedRAM[st.node] += st.job.RAMGB
		jobsByNode[st.node] = append(jobsByNode[st.node], st)
	}
	var migE units.Energy
	effCPU := capCPU * s.cfg.Overcommit
	effRAM := s.cfg.Cluster.RAMPerNodeGB * s.cfg.Overcommit
	for n := 0; n < nodes; n++ {
		if actual[n] <= capCPU+1e-9 {
			continue
		}
		s.sla.OverloadEvents++
		// Hungriest jobs first; ID tiebreak keeps runs deterministic.
		jobs := append([]*jobState(nil), jobsByNode[n]...)
		sort.Slice(jobs, func(a, b int) bool {
			da := jobs[a].job.CPU * jobs[a].job.UtilAt(t)
			db := jobs[b].job.CPU * jobs[b].job.UtilAt(t)
			if da > db {
				return true
			}
			if da < db {
				return false
			}
			return jobs[a].job.ID < jobs[b].job.ID
		})
		for _, st := range jobs {
			if actual[n] <= capCPU+1e-9 {
				break
			}
			need := st.job.CPU * st.job.UtilAt(t)
			best := -1
			for m := 0; m < nodes; m++ {
				if m == n || !s.cluster.Node(m).Powered {
					continue
				}
				if reservedCPU[m]+st.job.CPU > effCPU+1e-9 || reservedRAM[m]+st.job.RAMGB > effRAM+1e-9 {
					continue
				}
				if actual[m]+need > capCPU+1e-9 {
					continue
				}
				if best < 0 || actual[m] < actual[best] {
					best = m
				}
			}
			if best < 0 {
				continue
			}
			actual[n] -= need
			reservedCPU[n] -= st.job.CPU
			reservedRAM[n] -= st.job.RAMGB
			actual[best] += need
			reservedCPU[best] += st.job.CPU
			reservedRAM[best] += st.job.RAMGB
			st.node = best
			st.migrations++
			s.sla.Migrations++
			s.sla.OverloadMigrations++
			migE += migrationCostWh
		}
		if actual[n] > capCPU+1e-9 {
			s.sla.ThrottledSlots++
		}
	}
	return migE
}

// cpuUtilByNode computes per-node CPU utilization from running jobs,
// clamped to 1 (over-commit can oversubscribe nominal capacity).
func (s *Simulator) cpuUtilByNode() []float64 {
	util := s.cpuUtil
	clear(util)
	for _, st := range s.running {
		util[st.node] += st.job.CPU / s.cfg.Cluster.CPUPerNode
	}
	for n, u := range util {
		if u > 1 {
			util[n] = 1
		}
	}
	return util
}

// checkConservation asserts the energy-flow identities; a violation is a
// simulator bug and fails the run loudly.
func (s *Simulator) checkConservation(res *Result) error {
	tol := 1e-6 * (1 + res.Energy.TotalLoad().Wh())
	if err := res.Energy.ConservationError(); err > tol {
		return fmt.Errorf("core: energy conservation violated by %.6f Wh (policy %s)", err, res.Policy)
	}
	if err := s.bat.ConservationError(); err > tol {
		return fmt.Errorf("core: battery conservation violated by %.6f Wh", err)
	}
	return nil
}
