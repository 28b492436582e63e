package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/solar"
	"repro/internal/units"
	"repro/internal/workload"
)

// InitRequest initializes the scheduler from a declarative scenario. The
// full scenario travels inline so the journal alone reconstructs the run —
// recovery never depends on a file that might have changed underneath the
// daemon.
type InitRequest struct {
	Scenario scenario.Scenario `json:"scenario"`
	// Scale optionally shrinks the scenario (scenario.Scaled); 0 (not
	// given) or 1 keeps it as written. Any other value must be positive
	// and finite (scenario.CheckScale), or Init refuses it.
	Scale float64 `json:"scale,omitempty"`
	// WithTrace pre-loads the scenario's generated workload trace. Off, the
	// scheduler starts empty and every job arrives through Submit — the
	// live-service mode gmchaos -serve exercises.
	WithTrace bool `json:"with_trace,omitempty"`
}

// SubmitRequest submits one job.
type SubmitRequest struct {
	Job workload.Job `json:"job"`
}

// SubmitResponse acknowledges an accepted job.
type SubmitResponse struct {
	JobID int `json:"job_id"`
	// Seq is the journal sequence number the submission was logged at —
	// proof of durability the moment the response is read.
	Seq uint64 `json:"seq"`
}

// TickRequest advances the scheduler through slot To inclusive.
type TickRequest struct {
	To int `json:"to"`
}

// TickResponse reports where the scheduler stopped.
type TickResponse struct {
	NextSlot int  `json:"next_slot"`
	Drained  bool `json:"drained"`
	// Waiting/Mandatory/Running are the queue depths after the tick.
	Waiting   int `json:"waiting"`
	Mandatory int `json:"mandatory"`
	Running   int `json:"running"`
}

// FaultRequest injects a scheduled fault event.
type FaultRequest struct {
	Event fault.Event `json:"event"`
}

// SupplyRequest overrides (or, with Clear, un-overrides) the renewable
// supply reading for one future slot — the live form of a supply/forecast
// update feed.
type SupplyRequest struct {
	Slot  int     `json:"slot"`
	Watts float64 `json:"watts"`
	Clear bool    `json:"clear,omitempty"`
}

// Status describes the service state.
type Status struct {
	Initialized bool    `json:"initialized"`
	Finished    bool    `json:"finished"`
	Drained     bool    `json:"drained"`
	NextSlot    int     `json:"next_slot"`
	AppliedSeq  uint64  `json:"applied_seq"`
	Waiting     int     `json:"waiting"`
	Mandatory   int     `json:"mandatory"`
	Running     int     `json:"running"`
	BatterySoC  float64 `json:"battery_soc"`
	Decisions   uint64  `json:"decisions"`
}

// overrideProvider layers the live supply-override table over the compiled
// scenario supply. Mutated only between slots by the apply loop, read only
// by the scheduler inside the apply loop — no locking needed.
type overrideProvider struct {
	base solar.Provider
	over map[int]float64
}

func (p *overrideProvider) Power(slot int) units.Power {
	if w, ok := p.over[slot]; ok {
		return units.Power(w)
	}
	return p.base.Power(slot)
}

func (p *overrideProvider) Slots() int { return p.base.Slots() }

// countingWriter tracks how many bytes reached the audit file, so
// checkpoints can record the exact truncation point for recovery.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Journal entry kinds.
const (
	kindInit     = "init"
	kindSubmit   = "submit"
	kindTick     = "tick"
	kindFault    = "fault"
	kindSupply   = "supply"
	kindFinalize = "finalize"
)

// submitRecord is the journaled form of a submission: the job plus its
// idempotency key, so replay rebuilds the idempotency table.
type submitRecord struct {
	Key string       `json:"key,omitempty"`
	Job workload.Job `json:"job"`
}

// Runner is the durable scheduler state machine: a core.Live behind a
// write-ahead journal, periodic checkpoints and an audit sink. All methods
// must be called from a single goroutine (the server's apply loop); Runner
// does no locking of its own.
type Runner struct {
	dir     string
	journal *Journal
	fsync   bool
	// checkpointEvery triggers an automatic checkpoint after that many
	// applied entries (0 disables automatic checkpoints).
	checkpointEvery int
	sinceCheckpoint int

	initReq *InitRequest
	live    *core.Live
	over    *overrideProvider
	nodes   int

	auditFile *os.File
	auditW    *countingWriter

	idem       map[string]json.RawMessage
	appliedSeq uint64
	decisions  uint64

	result    *core.Result
	resultErr error
}

// Options configure a Runner.
type Options struct {
	// Fsync syncs every journal append to stable storage (the production
	// default in gmserve); tests turn it off for speed.
	Fsync bool
	// CheckpointEvery checkpoints automatically after that many applied
	// journal entries; 0 disables automatic checkpoints (explicit
	// Checkpoint calls still work).
	CheckpointEvery int
}

// Open opens (or creates) the service state under dir and recovers: load
// the newest intact checkpoint, truncate the audit file to its recorded
// offset, restore the scheduler snapshot, and replay the journal tail.
// After Open returns, the runner's state is exactly what it was after the
// last journaled request — a crash between requests never loses an
// acknowledged mutation, and the audit file's bytes are identical to an
// uninterrupted run's. A journal whose intact entries end before the
// checkpoint's seq is refused with an error and left untouched.
func Open(dir string, opts Options) (*Runner, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: creating state dir: %w", err)
	}
	cp, haveCP := loadCheckpoint(dir)
	auditOffset := int64(0)
	if haveCP {
		auditOffset = cp.AuditOffset
	}
	// A journal that ends before the checkpoint lost acknowledged entries;
	// appending to it would reissue their sequence numbers.
	journal, entries, err := openJournal(filepath.Join(dir, "journal.jsonl"), opts.Fsync, cp.Seq)
	if err != nil {
		return nil, err
	}
	r := &Runner{
		dir:             dir,
		journal:         journal,
		fsync:           opts.Fsync,
		checkpointEvery: opts.CheckpointEvery,
		idem:            make(map[string]json.RawMessage),
	}
	if err := r.openAudit(auditOffset); err != nil {
		_ = journal.Close()
		return nil, err
	}
	if haveCP {
		if err := r.restoreCheckpoint(cp); err != nil {
			r.close()
			return nil, err
		}
	}
	for _, e := range entries {
		if e.Seq <= r.appliedSeq {
			continue
		}
		if err := r.apply(e.Seq, e.Kind, e.Data); err != nil {
			r.close()
			return nil, fmt.Errorf("serve: replaying journal entry %d (%s): %w", e.Seq, e.Kind, err)
		}
		r.appliedSeq = e.Seq
	}
	return r, nil
}

// openAudit truncates the audit file to offset and positions it for
// appending.
func (r *Runner) openAudit(offset int64) error {
	path := filepath.Join(r.dir, "audit.jsonl")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("serve: opening audit sink: %w", err)
	}
	if err := f.Truncate(offset); err != nil {
		_ = f.Close()
		return fmt.Errorf("serve: truncating audit sink: %w", err)
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		_ = f.Close()
		return fmt.Errorf("serve: seeking audit sink: %w", err)
	}
	r.auditFile = f
	r.auditW = &countingWriter{w: f, n: offset}
	return nil
}

// restoreCheckpoint rebuilds the scheduler from a checkpoint.
func (r *Runner) restoreCheckpoint(cp Checkpoint) error {
	r.appliedSeq = cp.Seq
	for k, v := range cp.Idem {
		r.idem[k] = v
	}
	if cp.Init == nil {
		return nil
	}
	cfg, over, err := r.compile(*cp.Init)
	if err != nil {
		return err
	}
	for s, w := range cp.Overrides {
		over.over[s] = w
	}
	if cp.Snapshot == nil {
		return fmt.Errorf("serve: checkpoint has init but no scheduler snapshot")
	}
	live, err := core.RestoreLive(cfg, cp.Snapshot)
	if err != nil {
		return err
	}
	r.initReq = cp.Init
	r.live = live
	r.over = over
	r.nodes = cfg.Cluster.TotalNodes()
	return nil
}

// compile materializes an init request into the scheduler config, with the
// audit sink attached and the supply wrapped for live overrides.
func (r *Runner) compile(req InitRequest) (core.Config, *overrideProvider, error) {
	sc := req.Scenario
	if req.Scale > 0 {
		sc = sc.Scaled(req.Scale)
	}
	cfg, err := sc.Compile()
	if err != nil {
		return core.Config{}, nil, err
	}
	if !req.WithTrace {
		cfg.Trace = nil
	}
	over := &overrideProvider{base: cfg.Green, over: make(map[int]float64)}
	cfg.Green = over
	cfg.Observer = audit.NewJSONL(r.auditW)
	return cfg, over, nil
}

// journalThen appends the mutation to the journal and, once durable,
// applies it. This ordering is the crash-consistency contract: an applied
// mutation is always journaled, so replay can always reproduce it.
func (r *Runner) journalThen(kind string, data any) (uint64, error) {
	var raw json.RawMessage
	if data != nil {
		b, err := json.Marshal(data)
		if err != nil {
			return 0, fmt.Errorf("serve: encoding %s request: %w", kind, err)
		}
		raw = b
	}
	seq, err := r.journal.Append(kind, raw)
	if err != nil {
		return 0, err
	}
	if err := r.apply(seq, kind, raw); err != nil {
		return seq, err
	}
	r.appliedSeq = seq
	r.sinceCheckpoint++
	if r.checkpointEvery > 0 && r.sinceCheckpoint >= r.checkpointEvery {
		if err := r.Checkpoint(); err != nil {
			return seq, err
		}
	}
	return seq, nil
}

// apply executes one journaled mutation — the single code path shared by
// live requests and recovery replay, which is what makes replay
// deterministic by construction.
//
//gm:applypath
func (r *Runner) apply(seq uint64, kind string, data json.RawMessage) error {
	switch kind {
	case kindInit:
		var req InitRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return err
		}
		cfg, over, err := r.compile(req)
		if err != nil {
			return err
		}
		live, err := core.NewLive(cfg)
		if err != nil {
			return err
		}
		r.initReq = &req
		r.live = live
		r.over = over
		r.nodes = cfg.Cluster.TotalNodes()
		return nil
	case kindSubmit:
		var rec submitRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return err
		}
		if err := r.live.Submit(rec.Job); err != nil {
			return err
		}
		if rec.Key != "" {
			resp, _ := json.Marshal(SubmitResponse{JobID: rec.Job.ID, Seq: seq})
			r.idem[rec.Key] = resp
		}
		return nil
	case kindTick:
		var req TickRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return err
		}
		before := r.live.NextSlot()
		if err := r.live.StepTo(req.To); err != nil {
			return err
		}
		r.decisions += uint64(r.live.NextSlot() - before)
		return nil
	case kindFault:
		var req FaultRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return err
		}
		return r.live.InjectFault(req.Event)
	case kindSupply:
		var req SupplyRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return err
		}
		if req.Clear {
			delete(r.over.over, req.Slot)
		} else {
			r.over.over[req.Slot] = req.Watts
		}
		return nil
	case kindFinalize:
		// The memoized error (a sink write failure, say) is served to the
		// caller but never poisons replay: re-finalizing on recovery may
		// well succeed.
		r.result, r.resultErr = r.live.Finalize()
		return nil
	default:
		return fmt.Errorf("serve: unknown journal entry kind %q", kind)
	}
}

// errNotInitialized gates every pre-init mutation.
var errNotInitialized = fmt.Errorf("serve: scheduler not initialized")

// Bounds on what an init may ask the service to build, checked on the
// scenario after InitRequest.Scale is applied and before it is compiled,
// so that a request body of a few hundred bytes cannot make the service
// generate an arbitrarily large cluster, trace, supply series or read
// load. Each admits at least ten times what the largest scenario in
// scenarios/ asks for at scale 1.
const (
	maxInitNodes         = 300     // 10x the shipped scenarios' 30
	maxInitObjects       = 100_000 // 11x tiered-archive's 9,000
	maxInitReplicas      = 10      // 3x the default of 3
	maxInitWorkloadScale = 10      // ten reference weeks of jobs
	maxInitSupplySlots   = 87_600  // ten years of hourly slots
	maxInitTurbines      = 100     // 50x wind-hybrid's 2
	maxInitReadsPerSlot  = 100_000 // 500x the default of 200
)

// checkInitBounds refuses an init with a bad scale, or whose scaled
// scenario exceeds one of the service's resource bounds. It runs before
// the init is journaled, never on replay: compile still skips a
// non-positive scale, so a journal that already holds one replays as it
// did when it was written.
func checkInitBounds(req InitRequest) error {
	sc := req.Scenario
	if req.Scale != 0 {
		if err := scenario.CheckScale("serve: scale", req.Scale); err != nil {
			return err
		}
		sc = sc.Scaled(req.Scale)
	}
	for _, b := range []struct {
		field    string
		got, max float64
	}{
		{"nodes", float64(sc.Nodes), maxInitNodes},
		{"objects", float64(sc.Objects), maxInitObjects},
		{"replicas", float64(sc.Replicas), maxInitReplicas},
		{"workload_scale", sc.WorkloadScale, maxInitWorkloadScale},
		{"supply_slots", float64(sc.SupplySlots), maxInitSupplySlots},
		{"turbines", float64(sc.Turbines), maxInitTurbines},
		{"reads_per_slot", sc.ReadsPerSlot, maxInitReadsPerSlot},
	} {
		if !(b.got <= b.max) {
			return fmt.Errorf("serve: scenario %s %v exceeds the service bound %v", b.field, b.got, b.max)
		}
	}
	return nil
}

// Init initializes the scheduler. A second init is rejected: the journal
// describes exactly one run. A scenario beyond the service's resource
// bounds is refused before it is compiled.
func (r *Runner) Init(req InitRequest) error {
	if r.initReq != nil {
		return fmt.Errorf("serve: already initialized")
	}
	if err := checkInitBounds(req); err != nil {
		return err
	}
	// Compile eagerly so an invalid scenario is rejected without ever
	// reaching the journal.
	if _, _, err := r.compile(req); err != nil {
		return err
	}
	_, err := r.journalThen(kindInit, req)
	return err
}

// Submit journals and admits one job. A non-empty idempotency key that was
// seen before short-circuits to the stored response: retried requests
// (client timeout, duplicated delivery) admit the job exactly once.
func (r *Runner) Submit(key string, job workload.Job) (SubmitResponse, bool, error) {
	if r.live == nil {
		return SubmitResponse{}, false, errNotInitialized
	}
	if key != "" {
		if raw, ok := r.idem[key]; ok {
			var resp SubmitResponse
			if err := json.Unmarshal(raw, &resp); err != nil {
				return SubmitResponse{}, false, err
			}
			return resp, true, nil
		}
	}
	// Validate everything before journaling: an entry that reaches the
	// journal must be replayable, so apply may never fail on it.
	if err := job.Validate(); err != nil {
		return SubmitResponse{}, false, err
	}
	if r.live.Finished() || r.live.Drained() {
		return SubmitResponse{}, false, fmt.Errorf("serve: run has drained; submissions closed")
	}
	seq, err := r.journalThen(kindSubmit, submitRecord{Key: key, Job: job})
	if err != nil {
		return SubmitResponse{}, false, err
	}
	return SubmitResponse{JobID: job.ID, Seq: seq}, false, nil
}

// Tick advances the scheduler through slot req.To.
func (r *Runner) Tick(req TickRequest) (TickResponse, error) {
	if r.live == nil {
		return TickResponse{}, errNotInitialized
	}
	if r.live.Finished() {
		return TickResponse{}, fmt.Errorf("serve: run already finalized")
	}
	if req.To < r.live.NextSlot() {
		// Already there — ticks are monotone, a stale tick is a no-op, and
		// no journal entry is written for it.
		return r.tickResponse(), nil
	}
	if _, err := r.journalThen(kindTick, req); err != nil {
		return TickResponse{}, err
	}
	return r.tickResponse(), nil
}

func (r *Runner) tickResponse() TickResponse {
	w, m, run := r.live.Backlog()
	return TickResponse{
		NextSlot:  r.live.NextSlot(),
		Drained:   r.live.Drained(),
		Waiting:   w,
		Mandatory: m,
		Running:   run,
	}
}

// Fault journals and injects one fault event. Validation runs in full
// before journaling (event shape, node bounds, target slot in the future)
// so the journaled entry is always replayable.
func (r *Runner) Fault(req FaultRequest) error {
	if r.live == nil {
		return errNotInitialized
	}
	if r.live.Finished() {
		return fmt.Errorf("serve: run already finalized")
	}
	probe := fault.Config{Events: []fault.Event{req.Event}}
	if err := probe.Validate(r.nodes); err != nil {
		return err
	}
	if req.Event.At < r.live.NextSlot() {
		return fmt.Errorf("serve: fault event at slot %d is in the past (next slot is %d)",
			req.Event.At, r.live.NextSlot())
	}
	_, err := r.journalThen(kindFault, req)
	return err
}

// Supply journals and applies one supply override. The slot must be in the
// future: the past is already settled.
func (r *Runner) Supply(req SupplyRequest) error {
	if r.live == nil {
		return errNotInitialized
	}
	if r.live.Finished() {
		return fmt.Errorf("serve: run already finalized")
	}
	if req.Slot < r.live.NextSlot() {
		return fmt.Errorf("serve: supply override for settled slot %d (next slot is %d)",
			req.Slot, r.live.NextSlot())
	}
	if !req.Clear && (req.Watts < 0) {
		return fmt.Errorf("serve: negative supply override %v W", req.Watts)
	}
	_, err := r.journalThen(kindSupply, req)
	return err
}

// Finalize drains the run and closes the books, returning the Result a
// batch run over the same submissions would have produced. Idempotent: a
// finalized runner returns the memoized result without re-journaling.
func (r *Runner) Finalize() (*core.Result, error) {
	if r.live == nil {
		return nil, errNotInitialized
	}
	if r.live.Finished() {
		return r.result, r.resultErr
	}
	if _, err := r.journalThen(kindFinalize, nil); err != nil {
		return nil, err
	}
	return r.result, r.resultErr
}

// Checkpoint snapshots the full service state — scheduler, supply
// overrides, idempotency table, audit offset — and persists it atomically.
// No-op after finalize (the journal's finalize entry re-derives the result
// on recovery) and before init.
func (r *Runner) Checkpoint() error {
	r.sinceCheckpoint = 0
	if r.live == nil || r.live.Finished() {
		return nil
	}
	snap, err := r.live.Snapshot()
	if err != nil {
		return err
	}
	if err := r.auditFile.Sync(); err != nil {
		return fmt.Errorf("serve: syncing audit sink: %w", err)
	}
	cp := Checkpoint{
		Seq:         r.appliedSeq,
		AuditOffset: r.auditW.n,
		Init:        r.initReq,
		Snapshot:    snap,
		Idem:        r.idem,
	}
	if len(r.over.over) > 0 {
		cp.Overrides = r.over.over
	}
	return writeCheckpoint(r.dir, cp)
}

// Status reports the service state.
func (r *Runner) Status() Status {
	st := Status{
		Initialized: r.initReq != nil,
		AppliedSeq:  r.appliedSeq,
		Decisions:   r.decisions,
	}
	if r.live != nil {
		st.Finished = r.live.Finished()
		st.Drained = r.live.Drained()
		st.NextSlot = r.live.NextSlot()
		if !st.Finished {
			st.Waiting, st.Mandatory, st.Running = r.live.Backlog()
			st.BatterySoC = r.live.BatterySoC()
		}
	}
	return st
}

// AuditSHA256 returns the hex sha256 of the audit file's current contents
// — the determinism fingerprint gmchaos -serve compares against a local
// batch run.
func (r *Runner) AuditSHA256() (string, error) {
	if err := r.auditFile.Sync(); err != nil {
		return "", err
	}
	f, err := os.Open(filepath.Join(r.dir, "audit.jsonl"))
	if err != nil {
		return "", err
	}
	// Read-only handle: a close failure cannot lose audit bytes.
	defer func() { _ = f.Close() }()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Close checkpoints (when mid-run), syncs the audit sink and closes all
// files — the graceful-shutdown path. Crash recovery never needs Close to
// have run; it only makes the next startup's replay shorter.
func (r *Runner) Close() error {
	var first error
	if r.live != nil && !r.live.Finished() {
		if err := r.Checkpoint(); err != nil {
			first = err
		}
	}
	if err := r.close(); err != nil && first == nil {
		first = err
	}
	return first
}

func (r *Runner) close() error {
	var first error
	if r.auditFile != nil {
		if err := r.auditFile.Sync(); err != nil {
			first = err
		}
		if err := r.auditFile.Close(); err != nil && first == nil {
			first = err
		}
	}
	if r.journal != nil {
		if err := r.journal.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
