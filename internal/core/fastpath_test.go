package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/audit"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/solar"
	"repro/internal/units"
	"repro/internal/workload"
)

// sparseTraceConfig returns a scenario with long quiet gaps between
// arrivals — the shape the event-driven fast path exists for.
func sparseTraceConfig(t testing.TB) Config {
	cfg := tinyConfig(t)
	trace := []workload.Job{{
		ID: 0, Class: workload.Web, Submit: 0, Duration: 60, Deadline: 60, CPU: 1, RAMGB: 2,
	}}
	id := 1
	for _, submit := range []int{0, 40, 41, 90, 150} {
		for j := 0; j < 3; j++ {
			trace = append(trace, workload.Job{
				ID: id, Class: workload.Batch, Submit: submit,
				Duration: 2 + j, Deadline: submit + 30, CPU: 1, RAMGB: 2,
			})
			id++
		}
	}
	cfg.Trace = trace
	cfg.RecordSeries = true
	return cfg
}

// TestFastForwardEquivalence is the core-level skip-equivalence check: a
// run with the fast path enabled must produce a Result — including the
// full per-slot time series — identical to a run with
// DisableSlotSkipping, except for the FastSlots diagnostic, which must be
// nonzero when skipping is on and zero when it is off.
func TestFastForwardEquivalence(t *testing.T) {
	cases := map[string]func(testing.TB) Config{
		"sparse": sparseTraceConfig,
		"sparse-mtbf": func(t testing.TB) Config {
			cfg := sparseTraceConfig(t)
			cfg.Faults.CrashMTBFHours = 2000 // random crash process on the fast path
			return cfg
		},
		"io-quiet": func(t testing.TB) Config {
			cfg := sparseTraceConfig(t)
			cfg.Trace[0].IOBound = true // quiet slots carry an I/O-bound job
			return cfg
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			fast, err := Run(mk(t))
			if err != nil {
				t.Fatal(err)
			}
			cfg := mk(t)
			cfg.DisableSlotSkipping = true
			slow, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if fast.FastSlots == 0 {
				t.Fatal("fast path never engaged on a sparse trace")
			}
			if slow.FastSlots != 0 {
				t.Fatalf("DisableSlotSkipping run reported %d fast slots", slow.FastSlots)
			}
			slow.FastSlots = fast.FastSlots
			if !reflect.DeepEqual(fast, slow) {
				t.Fatalf("fast and full runs diverged:\nfast: %+v\nfull: %+v", fast, slow)
			}
		})
	}
}

// TestWakeEndsQuietStreak pins the wake rule: a disk spun up outside the
// power plan — here by an I/O-bound job whose node's disks were parked
// mid-streak — leaves its own slot quiet but ends the streak, so the next
// slot replans and restores the plan, and the slot after that is quiet
// again.
func TestWakeEndsQuietStreak(t *testing.T) {
	cfg := sparseTraceConfig(t)
	cfg.Trace[0].IOBound = true
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	maxSlot := sim.lastArrival + MaxOverrunSlots
	// Run into a quiet streak that carries the I/O-bound job and has room
	// for the three slots under test.
	var io *jobState
	slot := 0
	for ; slot < maxSlot; slot++ {
		if sim.canFastForward() && (len(sim.arrivals) == 0 || slot+3 < sim.arrivals[0].Submit) {
			for _, st := range sim.running {
				if st.job.IOBound && st.remaining > 3 {
					io = st
				}
			}
		}
		if io != nil {
			break
		}
		sim.runSlot(slot)
	}
	if io == nil {
		t.Fatal("no quiet streak carried the I/O-bound job")
	}
	disks := sim.cluster.Node(io.node).Disks
	for _, d := range disks {
		if d.SpunUp() {
			d.SpinDown()
		}
	}

	quiet := sim.fastSlots
	sim.runSlot(slot)
	if sim.fastSlots != quiet+1 {
		t.Fatalf("wake slot %d was not quiet", slot)
	}
	if sim.placementSettled {
		t.Fatalf("the wake at slot %d did not end the quiet streak", slot)
	}
	sim.runSlot(slot + 1)
	if sim.fastSlots != quiet+1 {
		t.Fatalf("slot %d after the wake did not replan", slot+1)
	}
	for k, d := range disks {
		if !d.SpunUp() {
			t.Fatalf("disk %d of the I/O job's node still parked after the replan", k)
		}
	}
	sim.runSlot(slot + 2)
	if sim.fastSlots != quiet+2 {
		t.Fatalf("slot %d did not resume the quiet streak", slot+2)
	}
}

// TestCrashEndsQuietStreak pins the streak end that needs no lookahead: a
// node crash that falls inside a quiet streak, whether scheduled in the
// config or injected into a live run mid-streak, sends its slot down the
// full path because the fault phase reports the structural change. Both
// runs match their DisableSlotSkipping twin in Result and trace bytes.
func TestCrashEndsQuietStreak(t *testing.T) {
	// Find a slot whose two predecessors and itself are quiet in the
	// fault-free run, and the node the long Web job runs on there.
	probe, err := NewLive(sparseTraceConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	crashAt, node, streak := -1, -1, 0
	for crashAt < 0 && !probe.Drained() {
		slot, quiet := probe.NextSlot(), probe.sim.fastSlots
		if err := probe.StepTo(slot); err != nil {
			t.Fatal(err)
		}
		if probe.sim.fastSlots == quiet {
			streak = 0
			continue
		}
		if streak++; streak < 3 {
			continue
		}
		for _, st := range probe.sim.running {
			if st.job.Class == workload.Web {
				crashAt, node = slot, st.node
			}
		}
	}
	if crashAt < 0 {
		t.Fatal("no quiet streak carried the Web job")
	}
	ev := fault.Event{Kind: fault.KindNodeCrash, At: crashAt, Nodes: []int{node}, Duration: 4}

	// drive runs the crash either scheduled or injected two slots ahead,
	// checking on the skipping run that the crash slot was quiet-eligible
	// but took the full path.
	drive := func(t *testing.T, injected, noskip bool) (*Result, [32]byte) {
		cfg := sparseTraceConfig(t)
		cfg.DisableSlotSkipping = noskip
		if !injected {
			cfg.Faults = fault.Config{Events: []fault.Event{ev}}
		}
		var buf bytes.Buffer
		cfg.Observer = audit.NewJSONL(&buf)
		l, err := NewLive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.StepTo(crashAt - 2); err != nil {
			t.Fatal(err)
		}
		if injected {
			if err := l.InjectFault(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.StepTo(crashAt - 1); err != nil {
			t.Fatal(err)
		}
		if !noskip && !l.sim.canFastForward() {
			t.Fatalf("slot %d is not in a quiet streak", crashAt)
		}
		quiet := l.sim.fastSlots
		if err := l.StepTo(crashAt); err != nil {
			t.Fatal(err)
		}
		if l.sim.fastSlots != quiet {
			t.Fatalf("crash slot %d took the quiet path", crashAt)
		}
		res := liveFinalize(t, l)
		if res.SLA.NodeFailures != 1 {
			t.Fatalf("%d node failures, want 1", res.SLA.NodeFailures)
		}
		return res, sha256.Sum256(buf.Bytes())
	}

	for _, injected := range []bool{false, true} {
		t.Run(fmt.Sprintf("injected=%v", injected), func(t *testing.T) {
			got, gotSHA := drive(t, injected, false)
			twin, twinSHA := drive(t, injected, true)
			if got.FastSlots == 0 {
				t.Fatal("fast path never engaged")
			}
			got.FastSlots = twin.FastSlots
			if !reflect.DeepEqual(got, twin) {
				t.Fatalf("run differs from its DisableSlotSkipping twin:\nskip %+v\nfull %+v", got, twin)
			}
			if gotSHA != twinSHA {
				t.Fatal("trace sha256 differs from its DisableSlotSkipping twin")
			}
		})
	}
}

// TestFastPathDisabledForUtilizationModel pins the eligibility rule:
// utilization modeling couples draw to per-slot job phase, which the fast
// path does not model, so skipping must stay off.
func TestFastPathDisabledForUtilizationModel(t *testing.T) {
	cfg := sparseTraceConfig(t)
	cfg.ModelUtilization = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FastSlots != 0 {
		t.Fatalf("fast path engaged %d slots under ModelUtilization", res.FastSlots)
	}
}

// deferringForecast predicts abundant green power for the current slot, a
// dark next slot and abundant power afterwards, so GreenMatch keeps its
// multi-slot deferrable jobs waiting for a fully green run slot after slot
// and the full matching path runs on every plan (a dark current slot would
// let the planner skip the solve).
type deferringForecast struct{}

func (deferringForecast) Name() string { return "deferring" }

func (f deferringForecast) Predict(actual solar.Provider, now, horizon int) []units.Power {
	return f.PredictInto(nil, actual, now, horizon)
}

func (deferringForecast) PredictInto(dst []units.Power, actual solar.Provider, now, horizon int) []units.Power {
	if cap(dst) < horizon {
		dst = make([]units.Power, horizon)
	}
	dst = dst[:horizon]
	for k := range dst {
		if k == 1 {
			dst[k] = 0
		} else {
			dst[k] = 100000
		}
	}
	return dst
}

// TestSlotStepBusyDeferredAllocFree extends the zero-allocation contract
// to the busy deferral path: a slot that runs the full GreenMatch matching
// pipeline — grouping, flow solve, settlement — over dozens of waiting
// jobs must not allocate once the plan scratch is warm. This is the
// regression guard for the solver's reused graph memory; without it,
// every such slot would allocate a fresh flow graph.
func TestSlotStepBusyDeferredAllocFree(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.Forecaster = deferringForecast{}
	var trace []workload.Job
	id := 0
	for c := 0; c < 4; c++ {
		for j := 0; j < 8; j++ {
			trace = append(trace, workload.Job{
				ID: id, Class: workload.Batch, Submit: 0,
				Duration: 2 + c, Deadline: 600 + 5*c, CPU: 1, RAMGB: 2,
			})
			id++
		}
	}
	cfg.Trace = trace
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.admitDue(0)
	slot := 0
	for ; slot < 12; slot++ {
		sim.step(slot, sim.faultPhase(slot), false)
	}
	if len(sim.waiting) != len(trace) {
		t.Fatalf("expected all %d jobs still deferred, got %d waiting", len(trace), len(sim.waiting))
	}
	avg := testing.AllocsPerRun(100, func() {
		sim.step(slot, sim.faultPhase(slot), false)
		slot++
	})
	if avg > 0 {
		t.Fatalf("busy deferred slot step allocates %.1f times per slot; want 0", avg)
	}
	if len(sim.waiting) != len(trace) {
		t.Fatalf("jobs left the waiting pool mid-measurement (%d left)", len(sim.waiting))
	}
	st := sim.planScratch.SolverStats()
	if st.ColdSolves < 100 {
		t.Fatalf("matching solver not exercised as expected: %+v", st)
	}
}

// TestFastStepAllocFree pins the fast kernel itself at zero allocations:
// once a run is quiescent, each skipped slot costs only reads, settlement
// and bookkeeping on reused scratch.
func TestFastStepAllocFree(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.Trace = workload.Trace{{
		ID: 0, Class: workload.Batch, Submit: 0, Duration: 1, Deadline: 4, CPU: 1, RAMGB: 2,
	}}
	cfg.Policy = sched.GreenMatch{}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.admitDue(0)
	slot := 0
	for ; slot < 8; slot++ {
		sim.step(slot, sim.faultPhase(slot), false)
	}
	if !sim.canFastForward() {
		t.Fatal("simulator not quiescent after warm-up")
	}
	avg := testing.AllocsPerRun(100, func() {
		if !sim.canFastForward() {
			t.Fatal("fast path disengaged mid-measurement")
		}
		changed := sim.faultPhase(slot)
		sim.step(slot, changed, !changed)
		slot++
	})
	if avg > 0 {
		t.Fatalf("fast slot step allocates %.1f times per slot; want 0", avg)
	}
	if sim.fastSlots < 100 {
		t.Fatalf("fast kernel ran %d slots; want >= 100", sim.fastSlots)
	}
}
