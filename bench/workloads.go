package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// slotWindow is the wall time serve-open gives each slot: about 1,270
// submits and 50 ticks a second, a third of what the service answers
// back to back on the reference machine.
const slotWindow = 20 * time.Millisecond

// maxLagMS invalidates an open-loop run whose generator sent its
// requests later than this at the 99th percentile.
const maxLagMS = 20

// heapSamples is how many times a run samples the heap; setupSamples is
// how many start-and-stop cycles precede a service workload's sessions.
const (
	heapSamples  = 3
	setupSamples = 5
)

// spanBudget stops a traced run from adding operations once it holds this
// many spans, bounding its memory and span file.
const spanBudget = 200_000

// workloadDef is one benchmark workload.
type workloadDef struct {
	name  string
	why   string
	build func(seed int64) (*inputs, error)
	run   func(e *env, w *workloadDef) (*ran, error)
}

var workloads = []*workloadDef{
	{
		name:  "batch-week",
		why:   "The paper's busy week: every slot plans a cold transportation solve and cluster construction is most of each run.",
		build: func(seed int64) (*inputs, error) { return weekInputs(seed, 1) },
		run:   runBatch,
	},
	{
		name:  "batch-sparse",
		why:   "A cold archive: 97% of slots take the quiet-slot fast path, so its kernel and caches set throughput.",
		build: sparseInputs,
		run:   runBatch,
	},
	{
		name:  "serve-open",
		why:   "Open-loop submits and ticks over HTTP at a third of capacity: decode, queue, journal append, apply and checkpoints.",
		build: func(seed int64) (*inputs, error) { return weekInputs(seed, 1) },
		run:   runServeOpen,
	},
	{
		name:  "serve-replay",
		why:   "Closed-loop ticks over a preloaded week: few large operations stepping core.Live and writing checkpoints.",
		build: func(seed int64) (*inputs, error) { return weekInputs(seed, 1) },
		run:   runServeReplay,
	},
	{
		name:  "serve-recover",
		why:   "Crash recovery of a three-week journal: scan, checkpoint restore and tail replay dominate, not construction.",
		build: func(int64) (*inputs, error) { return recoverInputs() },
		run:   runServeRecover,
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// failures counts attempted and failed operations. An operation is a run,
// a request or a recovery; it fails on an error or a failed check.
type failures struct {
	attempted, failed int
	msgs              []string
}

// op counts one operation and reports whether err is nil.
func (f *failures) op(err error) bool {
	f.attempted++
	if err != nil {
		f.failed++
		f.note(err.Error())
	}
	return err == nil
}

// fail marks an operation already counted as failed by a check.
func (f *failures) fail(msg string) {
	f.failed++
	f.note(msg)
}

func (f *failures) note(msg string) {
	if len(f.msgs) < 10 {
		f.msgs = append(f.msgs, msg)
	}
}

// env is what one pass over a workload works with.
type env struct {
	seed   int64
	budget time.Duration // 0: one operation, run or session
	tmp    string        // scratch directory for service state
	rec    *recorder     // nil when untraced
	f      failures
}

// more reports whether to start another run or session: always the first,
// then while the budget has at least half of the last one left.
func (e *env) more(start time.Time, n int, last time.Duration) bool {
	if n == 0 {
		return true
	}
	return e.budget > 0 && time.Since(start)+last/2 < e.budget && e.rec.len() < spanBudget
}

// ran is what a pass over a workload leaves: the samples the end-to-end
// metrics summarize, and what the layer probe needs to cover the rest.
type ran struct {
	setup []float64 // s per set-up
	lat   []float64 // ms per operation, +Inf when it failed
	wait  []float64 // ms from each request's due time to its reply, +Inf when it failed
	rates []float64 // slots/s per run, session or recovery
	heap  []float64 // MB
	lag   []float64 // ms the load generator sent late, per request

	in      *inputs
	seq     []op      // the service request sequence
	preload bool      // the service is initialised with the trace
	ref     reference // what the service must answer
	http    bool      // the pass itself sent HTTP traffic
	history *direct   // serve-recover's journal history
	image   string    // its crash image
}

// liveHeap returns HeapAlloc after collecting twice: the second
// collection frees what sync.Pool caches keep through the first.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// heapAdded returns, in MB, the live heap added since base was sampled.
// heap_mb is what the ready simulator or initialized service adds to the
// process, so neither the benchmark's own data nor request timers left
// by an earlier workload in the same process count.
func heapAdded(base int64) float64 { return float64(liveHeap()-base) / (1 << 20) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

//go:embed testdata/digests.json
var pinnedJSON []byte

// pinned holds each batch workload's Result digest at seed 1.
func pinned() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(pinnedJSON, &m); err != nil {
		panic("testdata/digests.json: " + err.Error())
	}
	return m
}

// decorate attaches the tracing decorators to a config.
func decorate(cfg core.Config, rec *recorder) core.Config {
	if rec != nil {
		cfg.Policy = tracePolicy(cfg.Policy, rec)
		cfg.Forecaster = traceForecaster(cfg.Forecaster, rec)
	}
	return cfg
}

// batchInputs is how many inputs the timed batch runs cycle through: the
// seed's own, then ones built from seeds batchSeedStride apart. Stepping
// a week costs each seed's job trace a different amount: over ten seeds
// the simulated slots per second of batch-week spread by 0.15 and 0.17 in
// two sets, and each seed repeated its place in the order. Cycling
// averages that out of each run's median while the seed still sets every
// input.
const (
	batchInputs     = 4
	batchSeedStride = 1000
)

// batchSeed is the input seed of timed run n.
func batchSeed(seed int64, n int) int64 { return seed + int64(n%batchInputs)*batchSeedStride }

// runBatch times complete batch runs: compile the inputs, core.New, then
// Simulator.Run. Every run of the same input must give the same Result
// digest, and at seed 1 the seed's own input the digest pinned in
// testdata. The layer probe gets the seed's own input.
func runBatch(e *env, w *workloadDef) (*ran, error) {
	out := &ran{}
	for i := 0; i < heapSamples; i++ {
		base := liveHeap()
		in, err := w.build(e.seed)
		if err != nil {
			return nil, err
		}
		sim, err := core.New(in.cfg)
		if err != nil {
			return nil, err
		}
		out.heap = append(out.heap, heapAdded(base))
		runtime.KeepAlive(sim)
	}
	want := map[int64]string{}
	if e.seed == 1 {
		want[e.seed] = pinned()[w.name]
	}
	start := time.Now()
	var last time.Duration
	for n := 0; e.more(start, n, last); n++ {
		seed := batchSeed(e.seed, n)
		root := e.rec.begin("batch.run", 0)
		t0 := time.Now()
		s := e.rec.begin("scenario.compile", root.ID)
		in, err := w.build(seed)
		e.rec.end(s)
		if err != nil {
			return nil, err
		}
		if seed == e.seed {
			out.in = in
		}
		s = e.rec.begin("core.new", root.ID)
		sim, err := core.New(decorate(in.cfg, e.rec))
		e.rec.end(s)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		s = e.rec.begin("core.run", root.ID)
		e.rec.setCur(s.ID)
		res, err := sim.Run()
		e.rec.end(s)
		t2 := time.Now()
		e.rec.end(root)
		last = t2.Sub(t0)
		if !e.f.op(err) {
			out.lat = append(out.lat, math.Inf(1))
			continue
		}
		if got, exp := digest(res), want[seed]; exp == "" {
			want[seed] = got
		} else if got != exp {
			e.f.fail(fmt.Sprintf("run %d (input seed %d): Result digest %.12s, want %.12s", n, seed, got, exp))
		}
		out.setup = append(out.setup, t1.Sub(t0).Seconds())
		out.lat = append(out.lat, ms(last))
		out.rates = append(out.rates, float64(res.Slots)/t2.Sub(t1).Seconds())
	}
	return out, nil
}

// startService opens a service on an empty directory and initialises it
// over HTTP, returning it with the set-up time.
func (e *env) startService(in *inputs, preload bool, name string) (*session, float64, error) {
	t0 := time.Now()
	sess, err := openSession(filepath.Join(e.tmp, name), e.rec)
	if err != nil {
		return nil, 0, err
	}
	if err := sess.c.post("/v1/init", -1, serve.InitRequest{Scenario: in.sc, WithTrace: preload}, nil); !e.f.op(err) {
		_ = sess.close() // the init failure is the error reported
		return nil, 0, err
	}
	return sess, time.Since(t0).Seconds(), nil
}

// runSessions first starts and stops the service a few times, sampling
// set-up time and the heap the initialized daemon adds. These come before
// any session because gmserve arms a timer per request which, at this
// module's go version, stays live for 30 s: timers of a finished session
// expiring between the two heap samples would be subtracted. Then it runs
// sessions until the budget is spent: set up, replay seq, check the final
// Result and trace against ref. Per request of seq it records the service
// time (reply minus send) as the operation's latency, and the latency from
// the due time for the tail. In an open loop about a third of the requests
// come due while an earlier one is outstanding, behind a checkpoint or a
// tick, so the median from the due time sits where that queue begins and
// moved by a quarter between runs of the same code on a shared host; the
// service time repeats. The rate is slots acknowledged per second the
// service spent answering the session's requests: the rate it could take
// them at back to back. An open loop's own rate is fixed by its schedule,
// and its wall time holds the schedule's idle gaps. The requests at which
// the service checkpoints are left out of the rate: a checkpoint syncs
// two files, and on a shared virtual disk the 69 checkpoints of a
// serve-open session took from 35% to two thirds of its service time, so
// the rate moved with other tenants' I/O by a quarter over ten seeds. The
// layer probe times checkpoints on their own (serve.checkpoint_ms_p50).
func runSessions(e *env, out *ran, open bool) error {
	for i := 0; i < setupSamples; i++ {
		base := liveHeap()
		sess, setup, err := e.startService(out.in, out.preload, fmt.Sprintf("setup-%d", i))
		if err != nil {
			return err
		}
		out.setup = append(out.setup, setup)
		if i < heapSamples {
			out.heap = append(out.heap, heapAdded(base))
		}
		if err := sess.close(); err != nil {
			return err
		}
	}
	sched := out.seq
	if open {
		sched = schedule(out.seq, slotWindow, rand.New(rand.NewSource(e.seed)))
	}
	start := time.Now()
	var last time.Duration
	for n := 0; e.more(start, n, last); n++ {
		t0 := time.Now()
		sess, setup, err := e.startService(out.in, out.preload, fmt.Sprintf("session-%d", n))
		if err != nil {
			return err
		}
		out.setup = append(out.setup, setup)
		outs := replay(sess.c, sched, open)
		slots, busy := 0, time.Duration(0)
		for i, o := range outs {
			e.f.op(o.err)
			out.lat = append(out.lat, o.svcMS())
			out.wait = append(out.wait, o.latMS())
			out.lag = append(out.lag, ms(o.lag))
			if opSeq(i)%checkpointEvery != 0 {
				busy += o.svc
			}
			if o.err == nil && o.tick.NextSlot > slots {
				slots = o.tick.NextSlot
			}
		}
		out.rates = append(out.rates, float64(slots)/busy.Seconds())
		if out.preload && !outs[len(outs)-1].tick.Drained {
			e.f.fail("the last tick did not drain the run")
		}
		sess.finish(out.ref, &e.f)
		if err := sess.close(); err != nil {
			return err
		}
		last = time.Since(t0)
	}
	if open {
		if p := percentile(out.lag, 99); p > maxLagMS {
			e.f.fail(fmt.Sprintf("load generator lag p99 %.1f ms exceeds %d ms: the run is invalid", p, maxLagMS))
		}
	}
	return nil
}

// runServeOpen replays the week open loop: each slot's window carries the
// next arrival slot's submissions at Poisson instants and ends with the
// slot's tick.
func runServeOpen(e *env, w *workloadDef) (*ran, error) {
	in, err := w.build(e.seed)
	if err != nil {
		return nil, err
	}
	ref, err := batchReference(in.cfg)
	if err != nil {
		return nil, err
	}
	out := &ran{in: in, seq: arrivalOps(in.cfg.Trace, nil, nil), ref: ref, http: true}
	return out, runSessions(e, out, true)
}

// runServeReplay ticks a preloaded week one slot per request, closed loop,
// until it drains.
func runServeReplay(e *env, w *workloadDef) (*ran, error) {
	in, err := w.build(e.seed)
	if err != nil {
		return nil, err
	}
	ref, err := batchReference(in.cfg)
	if err != nil {
		return nil, err
	}
	out := &ran{in: in, seq: tickOps(ref.slots), preload: true, ref: ref, http: true}
	return out, runSessions(e, out, false)
}

// runServeRecover builds a journal history through a Runner, takes a crash
// image, then times serve.Open on fresh copies of it. Every recovery must
// report the pre-crash status; the first also finalizes and must
// reproduce the uninterrupted run's audit trace.
func runServeRecover(e *env, w *workloadDef) (*ran, error) {
	in, err := w.build(e.seed)
	if err != nil {
		return nil, err
	}
	seq := arrivalOps(in.cfg.Trace, in.cfg.Green, rand.New(rand.NewSource(e.seed)))
	seq = seq[:imageSeqFor(len(seq))-1] // end the history at the crash point
	out := &ran{in: in, seq: seq, image: filepath.Join(e.tmp, "image")}
	hist := filepath.Join(e.tmp, "history")
	d, err := runDirect(hist, serve.InitRequest{Scenario: in.sc, WithTrace: false}, seq, out.image, e.rec)
	if err != nil {
		return nil, fmt.Errorf("building the history: %w", err)
	}
	out.history = d
	res, err := d.runner.Finalize()
	if err != nil {
		return nil, err
	}
	sha, err := d.runner.AuditSHA256()
	if err != nil {
		return nil, err
	}
	if err := d.runner.Close(); err != nil {
		return nil, err
	}
	out.ref = reference{digest: digest(res), sha: sha, slots: res.Slots}

	start := time.Now()
	var last time.Duration
	for n := 0; e.more(start, n, last); n++ {
		t0 := time.Now()
		// Set-up is sampled once per recovery, so its samples spread over
		// the run like the recoveries' own.
		setup, err := setupOnce(filepath.Join(e.tmp, "setup"), serve.InitRequest{Scenario: in.sc, WithTrace: false})
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, setup)
		dir := filepath.Join(e.tmp, fmt.Sprintf("recover-%d", n))
		if err := copyDir(out.image, dir); err != nil {
			return nil, err
		}
		var base int64
		if n < heapSamples {
			base = liveHeap()
		}
		s := e.rec.begin("serve.open", 0)
		t1 := time.Now()
		r, err := serve.Open(dir, serviceOptions)
		took := time.Since(t1)
		e.rec.end(s)
		if !e.f.op(err) {
			out.lat = append(out.lat, math.Inf(1))
			continue
		}
		out.lat = append(out.lat, ms(took))
		st := r.Status()
		out.rates = append(out.rates, float64(st.NextSlot)/took.Seconds())
		if st.NextSlot != d.image.NextSlot || st.AppliedSeq != d.image.AppliedSeq {
			e.f.fail(fmt.Sprintf("recovered at slot %d seq %d, crashed at slot %d seq %d",
				st.NextSlot, st.AppliedSeq, d.image.NextSlot, d.image.AppliedSeq))
		}
		if n < heapSamples {
			out.heap = append(out.heap, heapAdded(base))
		}
		if n == 0 {
			e.checkFinal(r, out.ref)
		}
		if err := r.Close(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		last = time.Since(t0)
	}
	return out, nil
}

// setupOnce opens a service on an empty directory and initialises it
// through the Runner, returning how long both took.
func setupOnce(dir string, init serve.InitRequest) (float64, error) {
	t0 := time.Now()
	r, err := serve.Open(dir, serviceOptions)
	if err != nil {
		return 0, err
	}
	err = r.Init(init)
	took := time.Since(t0).Seconds()
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	return took, err
}

// checkFinal finalizes a recovered runner and compares it with the
// uninterrupted run.
func (e *env) checkFinal(r *serve.Runner, want reference) {
	res, err := r.Finalize()
	if !e.f.op(err) {
		return
	}
	if digest(res) != want.digest {
		e.f.fail("recovered run's Result differs from the uninterrupted run")
	}
	sha, err := r.AuditSHA256()
	if !e.f.op(err) {
		return
	}
	if sha != want.sha {
		e.f.fail("recovered run's audit trace differs from the uninterrupted run")
	}
}
