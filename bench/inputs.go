package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"sort"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/solar"
	"repro/internal/workload"
	"repro/scenarios"
)

// inputs are what one workload feeds the program: the scenario the service
// is initialised with and the compiled batch config whose Trace is the
// workload's job list. Everything is derived from the seed alone.
type inputs struct {
	sc  scenario.Scenario
	cfg core.Config
}

// weekInputs is scenarios/reference.json with the seed replaced, scaled.
func weekInputs(seed int64, scale float64) (*inputs, error) {
	raw, err := scenarios.Bytes("reference")
	if err != nil {
		return nil, err
	}
	sc, err := scenario.Read(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	sc.Seed = seed
	sc = sc.Scaled(scale)
	cfg, err := sc.Compile()
	if err != nil {
		return nil, err
	}
	return &inputs{sc: sc, cfg: cfg}, nil
}

// Cold-archive shape: the full 30-node fleet with a slim catalog, a
// 40,000-slot horizon, four short batch jobs every sparseGap slots and
// almost no reads, so nearly every slot is quiescent.
const (
	sparseHorizon = 40000
	sparseGap     = 200
)

func sparseInputs(seed int64) (*inputs, error) {
	sc := scenario.Scenario{
		Name:    "sparse-archive",
		Seed:    seed,
		Nodes:   30,
		Objects: 300,
		// Compile always generates a trace; the smallest one is discarded
		// for the sparse job list below.
		WorkloadScale: 0.01,
		Source:        "solar",
		AreaM2:        165.6,
		SupplySlots:   sparseHorizon,
		Policy:        "greenmatch",
		ReadsPerSlot:  0.1,
	}
	cfg, err := sc.Compile()
	if err != nil {
		return nil, err
	}
	var jobs []workload.Job
	for submit := 0; submit+sparseGap/2 < sparseHorizon; submit += sparseGap {
		for j := 0; j < 4; j++ {
			d := 2 + j
			jobs = append(jobs, workload.Job{
				ID: len(jobs), Class: workload.Batch, Submit: submit,
				Duration: d, Deadline: submit + d, CPU: 1, RAMGB: 2,
			})
		}
	}
	cfg.Trace = jobs
	return &inputs{sc: sc, cfg: cfg}, nil
}

// recoverWeeks is how many back-to-back copies of the week serve-recover's
// history holds.
const recoverWeeks = 3

// recoverWeekSeed fixes the week serve-recover repeats; its seed drives
// the history's supply overrides instead. The recovered daemon's heap is
// its queues at the crash point, so with the week's seed replaced it
// spread by 12% over ten seeds while each seed repeated its own value
// exactly; with the week fixed the seeds agree within 0.3%.
const recoverWeekSeed = 1

// recoverInputs is the quarter-scale week repeated recoverWeeks times with
// fresh job ids.
func recoverInputs() (*inputs, error) {
	in, err := weekInputs(recoverWeekSeed, 0.25)
	if err != nil {
		return nil, err
	}
	week := in.cfg.Trace
	jobs := make([]workload.Job, 0, recoverWeeks*len(week))
	for w := 0; w < recoverWeeks; w++ {
		for _, j := range week {
			j.ID += w * len(week)
			j.Submit += w * 168
			j.Deadline += w * 168
			jobs = append(jobs, j)
		}
	}
	in.cfg.Trace = jobs
	return in, nil
}

// digest fingerprints a Result by the sha256 of its JSON encoding, which
// round-trips exactly, so a Result decoded from the service hashes alike.
func digest(res *core.Result) string {
	b, err := json.Marshal(res)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// reference is the batch run the service's answers are checked against:
// the Result digest and the sha256 of the audit JSONL, as gmchaos -serve
// computes them.
type reference struct {
	digest, sha string
	slots       int
}

func batchReference(cfg core.Config) (reference, error) {
	h := sha256.New()
	cfg.Observer = audit.NewJSONL(h)
	res, err := core.Run(cfg)
	if err != nil {
		return reference{}, err
	}
	return reference{digest: digest(res), sha: hex.EncodeToString(h.Sum(nil)), slots: res.Slots}, nil
}

type opKind uint8

const (
	opSubmit opKind = iota
	opTick
	opSupply
)

func (k opKind) String() string {
	return [...]string{"submit", "tick", "supply"}[k]
}

// An op is one service request. due is when an open-loop client should
// send it, measured from the start of the session's replay.
type op struct {
	kind  opKind
	job   workload.Job
	slot  int // tick target or overridden supply slot
	watts float64
	due   time.Duration
}

// arrivalOps turns a job list into the service request sequence: one tick
// per arrival slot, reaching the slot before the next arrival, preceded by
// the submissions of that next arrival slot. Submitting one arrival slot
// ahead keeps the live run from draining in a gap between arrivals, which
// would close it to later submissions; a job submitted early is still
// admitted at its own submit slot, so the run equals a batch run. With
// supply set, every tick is preceded by an override of the slot it
// reaches, scaled by a seeded factor in [0.5, 1.5).
func arrivalOps(jobs []workload.Job, supply solar.Provider, rnd *rand.Rand) []op {
	var slots []int
	bySlot := map[int][]workload.Job{}
	for _, j := range jobs {
		if _, ok := bySlot[j.Submit]; !ok {
			slots = append(slots, j.Submit)
		}
		bySlot[j.Submit] = append(bySlot[j.Submit], j)
	}
	sort.Ints(slots)
	var ops []op
	submit := func(slot int) {
		for _, j := range bySlot[slot] {
			ops = append(ops, op{kind: opSubmit, job: j})
		}
	}
	if len(slots) > 0 {
		submit(slots[0])
	}
	for i, s := range slots {
		to := s
		if i+1 < len(slots) {
			submit(slots[i+1])
			to = slots[i+1] - 1
		}
		if supply != nil {
			ops = append(ops, op{kind: opSupply, slot: to, watts: supply.Power(to).Scale(0.5 + rnd.Float64()).Watts()})
		}
		ops = append(ops, op{kind: opTick, slot: to})
	}
	return ops
}

// tickOps advances a preloaded run one slot per request.
func tickOps(slots int) []op {
	ops := make([]op, slots)
	for t := range ops {
		ops[t] = op{kind: opTick, slot: t}
	}
	return ops
}

// schedule gives every op an open-loop due time. Each tick closes a window
// of length window: the window's other requests come due at seeded
// Poisson instants (sorted uniform points) within its first 90%, in
// sequence order, and the tick comes due at the window's end.
func schedule(ops []op, window time.Duration, rnd *rand.Rand) []op {
	out := append([]op(nil), ops...)
	start, w := 0, time.Duration(0)
	for i := range out {
		if out[i].kind != opTick {
			continue
		}
		n := i - start
		at := make([]float64, n)
		for k := range at {
			at[k] = rnd.Float64()
		}
		sort.Float64s(at)
		for k, f := range at {
			out[start+k].due = w + time.Duration(f*0.9*float64(window))
		}
		w += window
		out[i].due = w
		start = i + 1
	}
	return out
}
