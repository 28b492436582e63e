package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/battery"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/units"
	"repro/internal/workload"
)

// Live is the steppable form of the Simulator: instead of running a fixed
// trace to completion, a Live scheduler accepts job submissions and fault
// injections between slots and advances on demand, one slot at a time. It
// drives the exact same slot kernel as the batch loop (runSlot), so a live
// run over the submissions of a trace is byte-identical — Result and audit
// trace — to Run over that trace, which is the equivalence `gmchaos -serve`
// pins over real HTTP.
//
// Live is also checkpointable: Snapshot serializes the full mutable
// scheduler state (queues, pending arrivals, battery SoC, cluster power
// states, degraded-mode episode tracker, RNG stream positions) and
// RestoreLive rebuilds a scheduler that continues bit-exactly. That is the
// substrate of gmserve's crash recovery.
//
// Like the Simulator it wraps, a Live is single-use and not safe for
// concurrent use; the serve layer serializes all access behind one apply
// loop.
//gm:statemirror Snapshot RestoreLive
type Live struct {
	sim *Simulator

	finished bool    //gm:ephemeral terminal latch; Snapshot rejects a finalized scheduler
	result   *Result //gm:ephemeral set by Finalize only, after which no snapshot is taken
	ferr     error   //gm:ephemeral set by Finalize only, after which no snapshot is taken
}

// NewLive builds a live scheduler. Any cfg.Trace jobs are pre-submitted in
// trace order (so a Live over a compiled scenario behaves exactly like
// Run); additional jobs arrive through Submit.
func NewLive(cfg Config) (*Live, error) {
	sim, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &Live{sim: sim}, nil
}

// NextSlot returns the next slot index to execute.
func (l *Live) NextSlot() int { return l.sim.next }

// Drained reports whether the run has drained (all known arrivals admitted,
// all queues empty after an executed slot).
func (l *Live) Drained() bool { return l.sim.drained }

// Finished reports whether Finalize has run.
func (l *Live) Finished() bool { return l.finished }

// Backlog returns the current queue depths (waiting, mandatory, running).
func (l *Live) Backlog() (waiting, mandatory, running int) {
	return len(l.sim.waiting), len(l.sim.mandQueue), len(l.sim.running)
}

// BatterySoC returns the battery state of charge in [0,1].
func (l *Live) BatterySoC() float64 { return l.sim.bat.SoC() }

// Submit enqueues one job. Jobs whose submit slot is already in the past
// are admitted at the next slot, behind the jobs already due there; the
// job is validated first. A drained or finalized run rejects submissions —
// the batch semantics the live/batch equivalence is pinned against cannot
// represent work arriving after the run drained.
//
//gm:mutator
func (l *Live) Submit(j workload.Job) error {
	if l.finished {
		return fmt.Errorf("core: submit after finalize")
	}
	if l.sim.drained {
		return fmt.Errorf("core: submit after the run drained")
	}
	if err := j.Validate(); err != nil {
		return err
	}
	l.sim.enqueue(j)
	return nil
}

// InjectFault adds a scheduled fault event to the running engine, creating
// the engine if the run was configured fault-free. The event must target a
// future slot: the past is already settled.
//
//gm:mutator
func (l *Live) InjectFault(ev fault.Event) error {
	if l.finished {
		return fmt.Errorf("core: fault injection after finalize")
	}
	s := l.sim
	if ev.At < s.next {
		return fmt.Errorf("core: fault event at slot %d is in the past (next slot is %d)", ev.At, s.next)
	}
	if s.faults == nil {
		cfg := fault.Config{Events: []fault.Event{ev}}
		if err := cfg.Validate(s.cfg.Cluster.Nodes); err != nil {
			return err
		}
		s.faults = fault.NewEngine(cfg, s.cfg.Seed, s.cfg.SlotHours)
		s.repairAt = make(map[int]int)
	} else if err := s.faults.AddEvent(ev, s.cfg.Cluster.Nodes); err != nil {
		return err
	}
	// The new event may bound the fast-forward streak; mark the horizon
	// stale so the next quiescent slot recomputes it. (The fault phase draws
	// and applies events every slot regardless, so this is about keeping the
	// horizon honest, not about correctness.)
	s.fastHorizon = s.next
	return nil
}

// StepTo executes slots up to and including target, stopping early if the
// run drains or the overrun budget past the last arrival is exhausted —
// exactly where the batch loop would stop.
//
//gm:mutator
func (l *Live) StepTo(target int) error {
	if l.finished {
		return fmt.Errorf("core: step after finalize")
	}
	l.sim.advance(target)
	return nil
}

// Finalize runs the remaining slots (to drain or to the overrun bound) and
// closes the books, returning the Result a batch Run over the same
// submissions would have produced. Idempotent.
//
//gm:mutator
func (l *Live) Finalize() (*Result, error) {
	if l.finished {
		return l.result, l.ferr
	}
	s := l.sim
	s.advance(math.MaxInt)
	l.result, l.ferr = s.finalize(s.next)
	l.finished = true
	return l.result, l.ferr
}

// JobSnap serializes one jobState.
type JobSnap struct {
	Job         workload.Job `json:"job"`
	Remaining   int          `json:"remaining"`
	Node        int          `json:"node"`
	Running     bool         `json:"running,omitempty"`
	Mandatory   bool         `json:"mandatory,omitempty"`
	EverStarted bool         `json:"ever_started,omitempty"`
	FirstStart  int          `json:"first_start,omitempty"`
	Suspensions int          `json:"suspensions,omitempty"`
	Migrations  int          `json:"migrations,omitempty"`
	CompletedAt int          `json:"completed_at"`
}

// PendingSnap serializes one pending arrival. Its due slot is
// max(Job.Submit, LiveSnapshot.Next), so the job alone restores it.
type PendingSnap struct {
	Job workload.Job `json:"job"`
}

// RepairSnap records one failed node and the slot it returns to service.
type RepairSnap struct {
	Node int `json:"node"`
	Due  int `json:"due"`
}

// LiveSnapshot is the complete serializable state of a Live scheduler at a
// slot boundary. Everything not present here is a pure function of the
// Config the snapshot is restored against: topology, placement, the
// minimal cover, planner scratch and memo caches all rebuild to states
// that produce bit-identical decisions (the reused-solver and cover-cache
// equivalences the test suite gates elsewhere), and the quiet-slot
// aggregate caches (drawValid/spunValid) recompute to identical values
// from the restored cluster.
type LiveSnapshot struct {
	Next        int  `json:"next"`
	Drained     bool `json:"drained,omitempty"`
	LastArrival int  `json:"last_arrival"`
	NextJobID   int  `json:"next_job_id"`

	Pending   []PendingSnap `json:"pending,omitempty"`
	Waiting   []JobSnap     `json:"waiting,omitempty"`
	MandQueue []JobSnap     `json:"mand_queue,omitempty"`
	Running   []JobSnap     `json:"running,omitempty"`

	Energy    metrics.EnergyAccount `json:"energy"`
	SLA       metrics.SLAAccount    `json:"sla"`
	NodeHours float64               `json:"node_hours"`
	DiskHours float64               `json:"disk_hours"`

	PrevSLA       metrics.SLAAccount `json:"prev_sla"`
	PrevBat       battery.Account    `json:"prev_bat"`
	PrevBoots     int                `json:"prev_boots,omitempty"`
	PrevShutdowns int                `json:"prev_shutdowns,omitempty"`
	PrevDisk      storage.DiskStats  `json:"prev_disk"`

	LastDrawW         float64 `json:"last_draw_w"`
	LastRunDeferrable int     `json:"last_run_deferrable,omitempty"`

	Repairs []RepairSnap       `json:"repairs,omitempty"`
	Faults  *fault.EngineState `json:"faults,omitempty"`

	Degrade         metrics.DegradeAccount `json:"degrade"`
	InEpisode       bool                   `json:"in_episode,omitempty"`
	BacklogBaseline int                    `json:"backlog_baseline,omitempty"`
	PrevBacklog     int                    `json:"prev_backlog,omitempty"`

	PlacementSettled bool   `json:"placement_settled,omitempty"`
	DiskPlanDirty    bool   `json:"disk_plan_dirty,omitempty"`
	KeepMask         []bool `json:"keep_mask,omitempty"`
	FastSlots        int    `json:"fast_slots,omitempty"`

	Battery battery.State          `json:"battery"`
	Cluster storage.ClusterState   `json:"cluster"`
	Reads   storage.ReadModelState `json:"reads"`

	Series []metrics.SlotSample `json:"series,omitempty"`
}

// Snapshot captures the scheduler's full state. Must be taken at a slot
// boundary (between StepTo calls) and before Finalize — finalize mutates
// the accounts it closes.
func (l *Live) Snapshot() (*LiveSnapshot, error) {
	if l.finished {
		return nil, fmt.Errorf("core: snapshot after finalize")
	}
	s := l.sim
	snap := &LiveSnapshot{
		Next:              s.next,
		Drained:           s.drained,
		LastArrival:       s.lastArrival,
		NextJobID:         s.nextJobID,
		Energy:            s.acct,
		SLA:               s.sla,
		NodeHours:         s.nodeHours,
		DiskHours:         s.diskHours,
		PrevSLA:           s.prevSLA,
		PrevBat:           s.prevBat,
		PrevBoots:         s.prevBoots,
		PrevShutdowns:     s.prevShutdowns,
		PrevDisk:          s.prevDisk,
		LastDrawW:         s.lastDrawW.Watts(),
		LastRunDeferrable: s.lastRunDeferrable,
		Degrade:           s.degrade,
		InEpisode:         s.inEpisode,
		BacklogBaseline:   s.backlogBaseline,
		PrevBacklog:       s.prevBacklog,
		PlacementSettled:  s.placementSettled,
		DiskPlanDirty:     s.diskPlanDirty,
		KeepMask:          append([]bool(nil), s.keepMask...),
		FastSlots:         s.fastSlots,
		Battery:           s.bat.State(),
		Cluster:           s.cluster.State(),
		Reads:             s.reads.State(),
	}
	for _, j := range s.arrivals {
		snap.Pending = append(snap.Pending, PendingSnap{Job: j})
	}
	snap.Waiting = snapJobs(s.waiting)
	snap.MandQueue = snapJobs(s.mandQueue)
	snap.Running = snapJobs(s.running)
	repairNodes := make([]int, 0, len(s.repairAt))
	for node := range s.repairAt {
		repairNodes = append(repairNodes, node)
	}
	sort.Ints(repairNodes)
	for _, node := range repairNodes {
		snap.Repairs = append(snap.Repairs, RepairSnap{Node: node, Due: s.repairAt[node]})
	}
	if s.faults != nil {
		st := s.faults.State()
		snap.Faults = &st
	}
	if s.series != nil {
		snap.Series = append([]metrics.SlotSample(nil), s.series.Samples...)
	}
	return snap, nil
}

func snapJobs(q []*jobState) []JobSnap {
	if len(q) == 0 {
		return nil
	}
	out := make([]JobSnap, len(q))
	for i, st := range q {
		out[i] = JobSnap{
			Job:         st.job,
			Remaining:   st.remaining,
			Node:        st.node,
			Running:     st.running,
			Mandatory:   st.mandatory,
			EverStarted: st.everStarted,
			FirstStart:  st.firstStart,
			Suspensions: st.suspensions,
			Migrations:  st.migrations,
			CompletedAt: st.completedAt,
		}
	}
	return out
}

func unsnapJobs(snaps []JobSnap) []*jobState {
	if len(snaps) == 0 {
		return nil
	}
	out := make([]*jobState, len(snaps))
	for i, js := range snaps {
		out[i] = &jobState{
			job:         js.Job,
			remaining:   js.Remaining,
			node:        js.Node,
			running:     js.Running,
			mandatory:   js.Mandatory,
			everStarted: js.EverStarted,
			firstStart:  js.FirstStart,
			suspensions: js.Suspensions,
			migrations:  js.Migrations,
			completedAt: js.CompletedAt,
		}
	}
	return out
}

// RestoreLive rebuilds a live scheduler from a snapshot taken against the
// same Config (same scenario, seed, policy, observer wiring is the
// caller's). The restored scheduler continues bit-exactly: the next slot it
// executes settles to the same state, emits the same trace bytes and draws
// the same random numbers as the original would have.
func RestoreLive(cfg Config, snap *LiveSnapshot) (*Live, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if len(snap.KeepMask) != len(s.keepMask) {
		return nil, fmt.Errorf("core: snapshot keep mask has %d disks, cluster has %d", len(snap.KeepMask), len(s.keepMask))
	}
	// Drop the queue New built from cfg.Trace: every submission the
	// original saw is in the snapshot, either still pending or already
	// admitted. Re-enqueueing the pending jobs in listed order rebuilds
	// the due order, whether the list is in due order or (as older
	// checkpoints wrote it) in submission order.
	s.next = snap.Next
	s.drained = snap.Drained
	s.arrivals = nil
	for _, p := range snap.Pending {
		s.enqueue(p.Job)
	}
	s.lastArrival = snap.LastArrival
	s.nextJobID = snap.NextJobID
	s.acct = snap.Energy
	s.sla = snap.SLA
	s.nodeHours = snap.NodeHours
	s.diskHours = snap.DiskHours
	s.prevSLA = snap.PrevSLA
	s.prevBat = snap.PrevBat
	s.prevBoots = snap.PrevBoots
	s.prevShutdowns = snap.PrevShutdowns
	s.prevDisk = snap.PrevDisk
	s.lastDrawW = units.Power(snap.LastDrawW)
	s.lastRunDeferrable = snap.LastRunDeferrable
	s.degrade = snap.Degrade
	s.inEpisode = snap.InEpisode
	s.backlogBaseline = snap.BacklogBaseline
	s.prevBacklog = snap.PrevBacklog
	s.placementSettled = snap.PlacementSettled
	s.diskPlanDirty = snap.DiskPlanDirty
	copy(s.keepMask, snap.KeepMask)
	s.fastSlots = snap.FastSlots
	// Stale horizon: the first fast-eligible slot recomputes it from the
	// restored event structures. The quiet-slot aggregate caches likewise
	// start invalid and recompute to identical values.
	s.fastHorizon = snap.Next

	s.waiting = unsnapJobs(snap.Waiting)
	s.mandQueue = unsnapJobs(snap.MandQueue)
	s.running = unsnapJobs(snap.Running)

	s.bat.Restore(snap.Battery)
	if err := s.cluster.RestoreState(snap.Cluster); err != nil {
		return nil, err
	}
	s.reads.RestoreState(cfg.Seed, snap.Reads)

	if snap.Faults != nil {
		s.faults = fault.RestoreEngine(*snap.Faults, cfg.Seed, s.cfg.SlotHours)
		if s.repairAt == nil {
			s.repairAt = make(map[int]int)
		}
	} else {
		s.faults = nil
		s.repairAt = nil
	}
	for _, r := range snap.Repairs {
		if r.Node < 0 || r.Node >= len(s.failedMask) {
			return nil, fmt.Errorf("core: snapshot repair entry for node %d outside cluster", r.Node)
		}
		s.repairAt[r.Node] = r.Due
		s.failedMask[r.Node] = true
	}

	if s.series != nil {
		s.series.Samples = append(s.series.Samples[:0], snap.Series...)
	}

	return &Live{sim: s}, nil
}
