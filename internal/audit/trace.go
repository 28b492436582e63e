// Package audit is the structured per-slot observability layer of the
// GreenMatch simulator. The simulator emits one SlotTrace per slot to an
// Observer configured on core.Config — every energy flow, scheduler
// decision, fleet transition and service event of the slot — and a RunTotals
// summary when the run completes. The layer is strictly zero-cost when no
// observer is configured: the simulator guards every emission behind a
// single nil check and gathers nothing otherwise.
//
// On top of the trace the package provides:
//
//   - Auditor — a hard energy-conservation checker that asserts, per slot
//     and cumulatively, that supply equals load, that production splits
//     exactly into direct use + storage + loss, that the battery's internal
//     balance and SoC bounds hold, and that replica coverage and deadline
//     invariants are maintained. Violations carry the slot, the policy and
//     the term-by-term residual.
//   - Export sinks — JSONL, CSV and Prometheus-style text.
//   - Combinators — Tee (fan out), Labeled (tag traces with a run label),
//     Limit (cap emitted slots).
package audit

// SlotTrace is the full observable state of one simulated slot. Energy
// fields are watt-hours over the slot; counters are per-slot deltas, not
// cumulative totals.
type SlotTrace struct {
	// Run optionally labels the emitting run (set by Labeled; empty
	// otherwise). Lets many concurrent runs share one sink.
	Run string `json:"run,omitempty"`
	// Slot is the slot index; Policy names the planning policy.
	Slot   int    `json:"slot"`
	Policy string `json:"policy"`
	// SlotHours is the slot duration in hours: always 1.
	SlotHours float64 `json:"slot_hours"`

	// Load side. LoadWh = DemandWh + MigrationWh + TransitionWh.
	DemandWh     float64 `json:"demand_wh"`
	MigrationWh  float64 `json:"migration_wh"`
	TransitionWh float64 `json:"transition_wh"`
	LoadWh       float64 `json:"load_wh"`

	// Supply split. LoadWh = GreenDirectWh + BatteryOutWh + BrownWh.
	GreenAvailWh  float64 `json:"green_avail_wh"`
	GreenDirectWh float64 `json:"green_direct_wh"`
	BatteryOutWh  float64 `json:"battery_out_wh"`
	BrownWh       float64 `json:"brown_wh"`

	// Surplus split. GreenAvailWh - GreenDirectWh = BatteryInWh + GreenLostWh.
	BatteryInWh float64 `json:"battery_in_wh"`
	GreenLostWh float64 `json:"green_lost_wh"`

	// Losses by category. BatteryEffLossWh is the charging-efficiency loss
	// this slot; BatterySelfLossWh the self-discharge loss.
	BatteryEffLossWh  float64 `json:"battery_eff_loss_wh"`
	BatterySelfLossWh float64 `json:"battery_self_loss_wh"`

	// Battery state at slot end. BatteryUnbounded marks the ideal infinite
	// ESD of the sizing experiments, whose store and SoC are not meaningful.
	BatteryStoredWh  float64 `json:"battery_stored_wh"`
	BatteryUsableWh  float64 `json:"battery_usable_wh"`
	BatterySoC       float64 `json:"battery_soc"`
	BatteryUnbounded bool    `json:"battery_unbounded,omitempty"`

	// Scheduler decisions this slot. Starts counts jobs the policy chose to
	// start; Promotions counts deferrable jobs promoted to mandatory on
	// slack exhaustion; Deferred counts deferrable jobs left waiting.
	Starts        int  `json:"starts"`
	Suspensions   int  `json:"suspensions"`
	Migrations    int  `json:"migrations"`
	Promotions    int  `json:"promotions"`
	Deferred      int  `json:"deferred"`
	Consolidate   bool `json:"consolidate,omitempty"`
	SpinDownDisks bool `json:"spin_down_disks,omitempty"`

	// Fleet state and transitions.
	NodesOn       int `json:"nodes_on"`
	DisksSpun     int `json:"disks_spun"`
	NodeBoots     int `json:"node_boots"`
	NodeShutdowns int `json:"node_shutdowns"`
	DiskSpinUps   int `json:"disk_spin_ups"`
	DiskSpinDowns int `json:"disk_spin_downs"`

	// Job population.
	JobsRunning int `json:"jobs_running"`
	JobsWaiting int `json:"jobs_waiting"`

	// Service events this slot. UnservedReads is the unserved demand: reads
	// that found no powered replica.
	Completions    int `json:"completions"`
	DeadlineMisses int `json:"deadline_misses"`
	ColdReads      int `json:"cold_reads"`
	UnservedReads  int `json:"unserved_reads"`
	NodeFailures   int `json:"node_failures"`
	Evictions      int `json:"evictions"`

	// CoverageOK reports whether every object had at least one replica on a
	// spinning disk of a powered node at slot end; FailedNodes is the crashed
	// node count (coverage may legitimately be partial while nodes are down).
	CoverageOK  bool `json:"coverage_ok"`
	FailedNodes int  `json:"failed_nodes"`

	// Fault injection (all zero-valued when no fault engine is configured).
	// FaultsActive lists the scheduled fault kinds whose windows cover this
	// slot, sorted. SupplyFaultWh is renewable production withheld by
	// supply-side faults (derating, dropouts, curtailment); GreenAvailWh is
	// what survived them. BatteryFadeFactor is the capacity fade multiplier
	// in effect (1 when fault injection is on but the battery is unfaded; 0
	// means fault injection is off). DegradedMode marks slots the simulator
	// counted as degraded: crashed nodes or an active fault window.
	FaultsActive      []string `json:"faults_active,omitempty"`
	SupplyFaultWh     float64  `json:"supply_fault_wh,omitempty"`
	BatteryFadeFactor float64  `json:"battery_fade_factor,omitempty"`
	DegradedMode      bool     `json:"degraded_mode,omitempty"`
}

// RunTotals is the cumulative account of a completed run, handed to
// Observers so they can cross-check their per-slot sums (Auditor) or
// flush (sinks).
type RunTotals struct {
	Run    string `json:"run,omitempty"`
	Policy string `json:"policy"`
	Slots  int    `json:"slots"`

	DemandWh     float64 `json:"demand_wh"`
	MigrationWh  float64 `json:"migration_wh"`
	TransitionWh float64 `json:"transition_wh"`

	GreenProducedWh float64 `json:"green_produced_wh"`
	GreenDirectWh   float64 `json:"green_direct_wh"`
	BatteryOutWh    float64 `json:"battery_out_wh"`
	BrownWh         float64 `json:"brown_wh"`
	BatteryInWh     float64 `json:"battery_in_wh"`
	GreenLostWh     float64 `json:"green_lost_wh"`

	BatteryEffLossWh  float64 `json:"battery_eff_loss_wh"`
	BatterySelfLossWh float64 `json:"battery_self_loss_wh"`

	Submitted      int `json:"submitted"`
	Completed      int `json:"completed"`
	DeadlineMisses int `json:"deadline_misses"`
}

// Observer receives one SlotTrace per simulated slot, in slot order, and
// then the run totals. EndRun is called exactly once after the final slot;
// a non-nil error fails the run (core.Run returns it), which is how the
// Auditor turns a conservation violation into a hard failure. An Observer
// configured on a core.Config is driven by that config's run only; a
// single Observer instance shared across concurrent runs must be
// goroutine-safe (the JSONL sink is; the Auditor and CSV sink are not —
// give each run its own).
type Observer interface {
	ObserveSlot(SlotTrace)
	EndRun(RunTotals) error
}

// Closer is an Observer that holds flushable or releasable resources — a
// sink over a buffered writer, say. CLIs that attach sinks call Close (via
// the Close helper) on every exit path, including failed or canceled runs,
// so a partial trace on disk is still well-formed: complete JSONL lines,
// complete CSV rows.
type Closer interface {
	Close() error
}

// Close flushes and releases every Closer among the observers (combinators
// forward to what they wrap), returning the first error. Nil observers are
// allowed and skipped, so `audit.Close(p.AuditSink)` is safe whether or not
// a sink was attached.
func Close(obs ...Observer) error {
	var first error
	for _, o := range obs {
		if o == nil {
			continue
		}
		if c, ok := o.(Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// tee fans every trace out to several observers, in order.
type tee struct{ obs []Observer }

// Tee returns an Observer that forwards each trace to every given observer
// and, at EndRun, forwards the totals to each of them, returning the first
// error.
func Tee(obs ...Observer) Observer {
	return &tee{obs: obs}
}

func (t *tee) ObserveSlot(s SlotTrace) {
	for _, o := range t.obs {
		o.ObserveSlot(s)
	}
}

func (t *tee) EndRun(tot RunTotals) error {
	var first error
	for _, o := range t.obs {
		if err := o.EndRun(tot); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close forwards to every wrapped Closer.
func (t *tee) Close() error { return Close(t.obs...) }

// labeled stamps a run label on every trace before forwarding.
type labeled struct {
	run string
	o   Observer
}

// Labeled returns an Observer that sets each trace's Run field (and the
// totals' Run field) to the given label before forwarding — the glue that
// lets many runs share one sink distinguishably.
func Labeled(run string, o Observer) Observer {
	return &labeled{run: run, o: o}
}

func (l *labeled) ObserveSlot(s SlotTrace) {
	s.Run = l.run
	l.o.ObserveSlot(s)
}

func (l *labeled) EndRun(tot RunTotals) error {
	tot.Run = l.run
	return l.o.EndRun(tot)
}

// Close forwards to the wrapped observer.
func (l *labeled) Close() error { return Close(l.o) }

// limit forwards only the first n traces.
type limit struct {
	n int
	o Observer
}

// Limit returns an Observer that forwards at most n slot traces (all of
// them when n <= 0) and always forwards EndRun.
func Limit(n int, o Observer) Observer {
	if n <= 0 {
		return o
	}
	return &limit{n: n, o: o}
}

func (l *limit) ObserveSlot(s SlotTrace) {
	if l.n <= 0 {
		return
	}
	l.n--
	l.o.ObserveSlot(s)
}

func (l *limit) EndRun(tot RunTotals) error { return l.o.EndRun(tot) }

// Close forwards to the wrapped observer.
func (l *limit) Close() error { return Close(l.o) }
