package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// testScenario is the small battery-equipped scenario the serve suite
// runs: the chaos harness cluster with a seeded random fault schedule.
func testScenario(seed int64, withFaults bool) scenario.Scenario {
	sc := scenario.Scenario{
		Name:          "serve-test",
		Seed:          seed,
		Nodes:         8,
		Objects:       400,
		WorkloadScale: 0.08,
		AreaM2:        40,
		BatteryKWh:    10,
		Policy:        "greenmatch",
		ReadsPerSlot:  50,
	}
	if withFaults {
		fc := fault.Generate(seed, fault.GenSpec{Slots: 200, Nodes: sc.Nodes, AllowMTBF: true})
		sc.Faults = &fc
	}
	return sc
}

// batchSHA runs the scenario as a plain batch simulation with a digesting
// JSONL sink and returns the result plus the audit-trace sha256 — the
// ground truth every daemon run must reproduce.
func batchSHA(t *testing.T, sc scenario.Scenario) (*core.Result, string) {
	t.Helper()
	cfg, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	cfg.Observer = audit.NewJSONL(h)
	sim, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, hex.EncodeToString(h.Sum(nil))
}

// drive ticks the runner to completion and finalizes.
func drive(t *testing.T, r *Runner) *core.Result {
	t.Helper()
	for {
		st := r.Status()
		if st.Drained {
			break
		}
		if _, err := r.Tick(TickRequest{To: st.NextSlot + 24}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// resultJSON canonicalizes a result for comparison.
func resultJSON(t *testing.T, res *core.Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRunnerMatchesBatch pins the daemon/batch equivalence: a runner
// initialized with the scenario's trace, ticked to completion and
// finalized produces the batch run's Result and audit sha256.
func TestRunnerMatchesBatch(t *testing.T) {
	sc := testScenario(501, true)
	wantRes, wantSHA := batchSHA(t, sc)

	r, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Init(InitRequest{Scenario: sc, WithTrace: true}); err != nil {
		t.Fatal(err)
	}
	res := drive(t, r)
	sum, err := r.AuditSHA256()
	if err != nil {
		t.Fatal(err)
	}
	if sum != wantSHA {
		t.Fatalf("daemon audit sha %s != batch %s", sum, wantSHA)
	}
	if resultJSON(t, res) != resultJSON(t, wantRes) {
		t.Fatalf("daemon result differs from batch:\nbatch  %s\ndaemon %s",
			resultJSON(t, wantRes), resultJSON(t, res))
	}
}

// TestRunnerSubmitPathMatchesBatch pins the live ingestion path: a runner
// started empty and fed the trace through Submit (all before the first
// tick) matches the batch run byte for byte.
func TestRunnerSubmitPathMatchesBatch(t *testing.T) {
	sc := testScenario(502, true)
	wantRes, wantSHA := batchSHA(t, sc)
	cfg, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}

	r, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Init(InitRequest{Scenario: sc}); err != nil {
		t.Fatal(err)
	}
	for i, j := range cfg.Trace {
		if _, _, err := r.Submit(fmt.Sprintf("job-%d", i), j); err != nil {
			t.Fatal(err)
		}
	}
	res := drive(t, r)
	sum, err := r.AuditSHA256()
	if err != nil {
		t.Fatal(err)
	}
	if sum != wantSHA {
		t.Fatalf("submit-path audit sha %s != batch %s", sum, wantSHA)
	}
	if resultJSON(t, res) != resultJSON(t, wantRes) {
		t.Fatal("submit-path result differs from batch")
	}
}

// kill abandons a runner the way SIGKILL would: file handles are released
// (the test re-opens the same paths) but nothing is checkpointed or
// flushed beyond what the write-ahead discipline already made durable.
func kill(r *Runner) { _ = r.close() }

// TestRunnerCrashRecovery is the heart of the tentpole: kill the runner at
// several points mid-run — with and without a checkpoint on disk — restart
// from the same directory, finish, and require the audit sha256 and Result
// to match both an uninterrupted daemon run and the batch ground truth.
func TestRunnerCrashRecovery(t *testing.T) {
	for _, checkpointEvery := range []int{0, 3} {
		for _, killAfter := range []int{1, 4} {
			name := fmt.Sprintf("ckpt=%d/kill=%d", checkpointEvery, killAfter)
			t.Run(name, func(t *testing.T) {
				sc := testScenario(503, true)
				wantRes, wantSHA := batchSHA(t, sc)

				dir := t.TempDir()
				opts := Options{CheckpointEvery: checkpointEvery}
				r, err := Open(dir, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.Init(InitRequest{Scenario: sc, WithTrace: true}); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < killAfter; i++ {
					if _, err := r.Tick(TickRequest{To: r.Status().NextSlot + 9}); err != nil {
						t.Fatal(err)
					}
				}
				kill(r)

				r2, err := Open(dir, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer r2.Close()
				if got, want := r2.Status().NextSlot, killAfter*10; got != want {
					t.Fatalf("recovered at slot %d, want %d", got, want)
				}
				res := drive(t, r2)
				sum, err := r2.AuditSHA256()
				if err != nil {
					t.Fatal(err)
				}
				if sum != wantSHA {
					t.Fatalf("recovered audit sha %s != batch %s", sum, wantSHA)
				}
				if resultJSON(t, res) != resultJSON(t, wantRes) {
					t.Fatal("recovered result differs from batch")
				}
			})
		}
	}
}

// TestRunnerDoubleKill kills the daemon twice — once between checkpoints,
// once immediately after recovery before any new progress — and still
// demands byte-identity.
func TestRunnerDoubleKill(t *testing.T) {
	sc := testScenario(504, true)
	wantRes, wantSHA := batchSHA(t, sc)
	dir := t.TempDir()
	opts := Options{CheckpointEvery: 2}

	r, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Init(InitRequest{Scenario: sc, WithTrace: true}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := r.Tick(TickRequest{To: r.Status().NextSlot + 7}); err != nil {
			t.Fatal(err)
		}
	}
	kill(r)

	r2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	kill(r2) // no progress between the kills

	r3, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	res := drive(t, r3)
	sum, err := r3.AuditSHA256()
	if err != nil {
		t.Fatal(err)
	}
	if sum != wantSHA {
		t.Fatalf("twice-recovered audit sha %s != batch %s", sum, wantSHA)
	}
	if resultJSON(t, res) != resultJSON(t, wantRes) {
		t.Fatal("twice-recovered result differs from batch")
	}
}

// TestRunnerRecoveryWithLiveMutations pins recovery when the journal tail
// holds the live-only request kinds: submissions, fault injections and
// supply overrides. Two daemons process the identical request sequence —
// one killed and recovered mid-way, one uninterrupted — and must converge
// to identical bytes.
func TestRunnerRecoveryWithLiveMutations(t *testing.T) {
	sc := testScenario(505, false)
	cfg, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	extra := workload.Job{
		ID: 900000, Class: workload.Batch,
		Submit: 60, Duration: 3, Deadline: 140, CPU: 1, RAMGB: 1,
	}
	ev := fault.Event{Kind: fault.KindPVDerate, At: 30, Duration: 20, Magnitude: 0.7}

	type phase func(r *Runner) error
	script := []phase{
		func(r *Runner) error { return r.Init(InitRequest{Scenario: sc}) },
		func(r *Runner) error {
			for i, j := range cfg.Trace {
				if _, _, err := r.Submit(fmt.Sprintf("k%d", i), j); err != nil {
					return err
				}
			}
			return nil
		},
		func(r *Runner) error { return r.Supply(SupplyRequest{Slot: 12, Watts: 0}) },
		func(r *Runner) error { _, err := r.Tick(TickRequest{To: 9}); return err },
		func(r *Runner) error { return r.Fault(FaultRequest{Event: ev}) },
		func(r *Runner) error { _, _, err := r.Submit("late", extra); return err },
		func(r *Runner) error { _, err := r.Tick(TickRequest{To: 39}); return err },
	}

	runScript := func(dir string, killAt int) (*core.Result, string) {
		opts := Options{CheckpointEvery: 5}
		r, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range script {
			if i == killAt {
				kill(r)
				r, err = Open(dir, opts)
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := p(r); err != nil {
				t.Fatal(err)
			}
		}
		defer r.Close()
		res := drive(t, r)
		sum, err := r.AuditSHA256()
		if err != nil {
			t.Fatal(err)
		}
		return res, sum
	}

	wantRes, wantSHA := runScript(t.TempDir(), -1)
	for killAt := 1; killAt < len(script); killAt++ {
		gotRes, gotSHA := runScript(t.TempDir(), killAt)
		if gotSHA != wantSHA {
			t.Errorf("kill before phase %d: audit sha %s != uninterrupted %s", killAt, gotSHA, wantSHA)
		}
		if resultJSON(t, gotRes) != resultJSON(t, wantRes) {
			t.Errorf("kill before phase %d: result differs from uninterrupted run", killAt)
		}
	}
}

// TestRunnerIdempotentSubmit pins exactly-once admission under retries.
func TestRunnerIdempotentSubmit(t *testing.T) {
	sc := testScenario(506, false)
	r, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Init(InitRequest{Scenario: sc}); err != nil {
		t.Fatal(err)
	}
	job := workload.Job{ID: 1, Class: workload.Batch, Submit: 0, Duration: 2, Deadline: 90, CPU: 1}
	first, replayed, err := r.Submit("retry-key", job)
	if err != nil || replayed {
		t.Fatalf("first submit: replayed=%v err=%v", replayed, err)
	}
	second, replayed, err := r.Submit("retry-key", job)
	if err != nil || !replayed {
		t.Fatalf("second submit: replayed=%v err=%v", replayed, err)
	}
	if first != second {
		t.Fatalf("idempotent replay returned %+v, want %+v", second, first)
	}
	seqAfter := r.journal.next
	if _, _, err := r.Submit("retry-key", job); err != nil {
		t.Fatal(err)
	}
	if r.journal.next != seqAfter {
		t.Fatal("idempotent replay appended a journal entry")
	}
	// The table survives a crash: retry after recovery still replays.
	kill(r)
	r2, err := Open(r.dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	third, replayed, err := r2.Submit("retry-key", job)
	if err != nil || !replayed {
		t.Fatalf("post-recovery submit: replayed=%v err=%v", replayed, err)
	}
	if third != first {
		t.Fatalf("post-recovery replay returned %+v, want %+v", third, first)
	}
}

// TestJournalTornTail pins torn-write recovery: garbage and half-written
// lines after the last intact entry are discarded, intact entries survive.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	j, entries, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("fresh journal has %d entries", len(entries))
	}
	for i := 0; i < 3; i++ {
		if _, err := j.Append("tick", TickRequest{To: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tail := range []string{
		"{\"seq\":4,\"kind\":\"tick\",\"da", // torn mid-line
		"not json at all\n",
		"{\"seq\":9,\"kind\":\"tick\",\"crc\":0}\n",  // sequence gap
		"{\"seq\":4,\"kind\":\"tick\",\"crc\":12}\n", // bad crc
	} {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(append([]byte(nil), blob...), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		j2, entries, err := OpenJournal(path, false)
		if err != nil {
			t.Fatalf("tail %q: %v", tail, err)
		}
		if len(entries) != 3 {
			t.Fatalf("tail %q: recovered %d entries, want 3", tail, len(entries))
		}
		if j2.next != 4 {
			t.Fatalf("tail %q: next seq %d, want 4", tail, j2.next)
		}
		// The torn tail must be gone from disk.
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(after) != string(blob) {
			t.Fatalf("tail %q: file not truncated to intact prefix", tail)
		}
		j2.Close()
	}

	// An intact final line that lost its newline is torn too: it is
	// dropped, the file is cut back to the intact prefix rather than
	// extended, and an entry appended after recovery survives the next
	// recovery on a line of its own.
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(`{"to":3}`)
	torn := appendLine(nil, 4, kindTick, data, entryCRC(4, kindTick, data))
	if err := os.WriteFile(path, append(append([]byte(nil), blob...), torn[:len(torn)-1]...), 0o644); err != nil {
		t.Fatal(err)
	}
	j3, entries, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("unterminated tail: recovered %d entries, want 3", len(entries))
	}
	if after, err := os.ReadFile(path); err != nil || string(after) != string(blob) {
		t.Fatalf("unterminated tail: file not cut back to the intact prefix (err %v)", err)
	}
	seq, err := j3.Append(kindTick, TickRequest{To: 7})
	if err != nil || seq != 4 {
		t.Fatalf("append after recovery: seq %d, err %v", seq, err)
	}
	if err := j3.Close(); err != nil {
		t.Fatal(err)
	}
	j4, entries, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j4.Close()
	if len(entries) != 4 || string(entries[3].Data) != `{"to":7}` {
		t.Fatalf("second recovery: %d entries, want the 4 acknowledged", len(entries))
	}
}

// TestOpenRefusesJournalBehindCheckpoint pins the refusal to recover from
// a journal whose intact entries end before the checkpoint — a lost
// unsynced tail, or a corrupt entry mid-file. Appending there would
// reissue acknowledged sequence numbers and move the applied seq
// backwards, so Open fails naming both seqs and leaves the journal as it
// found it.
func TestOpenRefusesJournalBehindCheckpoint(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Init(InitRequest{Scenario: testScenario(511, false), WithTrace: true}); err != nil {
		t.Fatal(err)
	}
	for to := 0; to < 10; to++ {
		if _, err := r.Tick(TickRequest{To: to}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := r.Status().AppliedSeq; got != 11 {
		t.Fatalf("checkpointed at seq %d, want 11", got)
	}
	kill(r)

	path := filepath.Join(dir, "journal.jsonl")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(full, []byte("\n"))
	lost := bytes.Join(lines[:8], nil)
	corrupt := bytes.Join(lines, nil)
	at := len(bytes.Join(lines[:8], nil)) + bytes.Index(lines[8], []byte(`"crc":`)) + len(`"crc":`)
	corrupt[at] ^= 1 // entry 9's CRC no longer matches
	for name, journal := range map[string][]byte{"lost tail": lost, "corrupt entry": corrupt} {
		if err := os.WriteFile(path, journal, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir, Options{})
		if err == nil {
			kill(r)
			t.Fatalf("%s: Open recovered from a journal ending at seq 8 behind checkpoint seq 11", name)
		}
		if msg := err.Error(); !strings.Contains(msg, "seq 8") || !strings.Contains(msg, "seq 11") {
			t.Errorf("%s: error %q does not name both seqs", name, msg)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, journal) {
			t.Errorf("%s: the refused journal was modified (err %v)", name, err)
		}
	}
}

// TestCheckpointCorruptionFallback pins the self-integrity envelope: a
// corrupted current checkpoint falls back to the previous one, and a
// directory with both corrupt recovers from the journal alone.
func TestCheckpointCorruptionFallback(t *testing.T) {
	dir := t.TempDir()
	cpA := Checkpoint{Seq: 1, AuditOffset: 0}
	if err := writeCheckpoint(dir, cpA); err != nil {
		t.Fatal(err)
	}
	cpB := Checkpoint{Seq: 2, AuditOffset: 10}
	if err := writeCheckpoint(dir, cpB); err != nil {
		t.Fatal(err)
	}
	got, ok := loadCheckpoint(dir)
	if !ok || got.Seq != 2 {
		t.Fatalf("loaded %+v ok=%v, want seq 2", got, ok)
	}
	// Corrupt the current file: fall back to previous.
	if err := os.WriteFile(filepath.Join(dir, checkpointName), []byte("{\"sha256\":\"00\",\"payload\":{}}"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok = loadCheckpoint(dir)
	if !ok || got.Seq != 1 {
		t.Fatalf("after corruption loaded %+v ok=%v, want fallback seq 1", got, ok)
	}
	// Corrupt both: no checkpoint.
	if err := os.WriteFile(filepath.Join(dir, checkpointPrev), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := loadCheckpoint(dir); ok {
		t.Fatal("corrupt checkpoints should not load")
	}
}

// TestRunnerFinalizeSurvivesRestart pins post-finalize recovery: the
// journaled finalize entry re-derives the identical result on restart.
func TestRunnerFinalizeSurvivesRestart(t *testing.T) {
	sc := testScenario(507, true)
	dir := t.TempDir()
	r, err := Open(dir, Options{CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Init(InitRequest{Scenario: sc, WithTrace: true}); err != nil {
		t.Fatal(err)
	}
	res := drive(t, r)
	sha, err := r.AuditSHA256()
	if err != nil {
		t.Fatal(err)
	}
	kill(r)

	r2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if !r2.Status().Finished {
		t.Fatal("recovered runner lost its finalized state")
	}
	res2, err := r2.result, r2.resultErr
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, res2) != resultJSON(t, res) {
		t.Fatal("recovered result differs from pre-crash result")
	}
	sha2, err := r2.AuditSHA256()
	if err != nil {
		t.Fatal(err)
	}
	if sha2 != sha {
		t.Fatalf("recovered audit sha %s != pre-crash %s", sha2, sha)
	}
}

// TestRecoverInitWithRetiredSkipField pins journal compatibility for the
// retired scenario field disable_slot_skipping. A journal written while the
// field existed still recovers, because apply decodes with plain
// json.Unmarshal and ignores it, and the recovered run's audit sha256 is
// that of the same init without the field (slot skipping never changed a
// trace byte). A scenario file naming the field is refused by
// scenario.Read as unknown.
func TestRecoverInitWithRetiredSkipField(t *testing.T) {
	sc := testScenario(505, true)
	_, wantSHA := batchSHA(t, sc)
	raw, err := json.Marshal(InitRequest{Scenario: sc, WithTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	legacy := bytes.Replace(raw, []byte(`"scenario":{`), []byte(`"scenario":{"disable_slot_skipping":true,`), 1)
	if bytes.Equal(legacy, raw) {
		t.Fatalf("init %s has no scenario object to extend", raw)
	}

	dir := t.TempDir()
	j, _, err := OpenJournal(filepath.Join(dir, "journal.jsonl"), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(kindInit, json.RawMessage(legacy)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovering a journal whose init names disable_slot_skipping: %v", err)
	}
	defer r.Close()
	drive(t, r)
	sum, err := r.AuditSHA256()
	if err != nil {
		t.Fatal(err)
	}
	if sum != wantSHA {
		t.Fatalf("recovered audit sha %s != batch %s of the init without the field", sum, wantSHA)
	}

	var scJSON bytes.Buffer
	if err := sc.Write(&scJSON); err != nil {
		t.Fatal(err)
	}
	file := bytes.Replace(scJSON.Bytes(), []byte("{"), []byte(`{"disable_slot_skipping": true,`), 1)
	if _, err := scenario.Read(bytes.NewReader(file)); err == nil || !strings.Contains(err.Error(), "disable_slot_skipping") {
		t.Fatalf("scenario.Read of a file naming disable_slot_skipping: err = %v, want an unknown-field error", err)
	}
}

// TestRecoverInitWithNegativeScale: Init refuses a negative scale, but a
// journal that already holds an init at one still recovers, and runs the
// scenario unscaled as it did when the init was accepted.
func TestRecoverInitWithNegativeScale(t *testing.T) {
	sc := testScenario(507, false)
	_, wantSHA := batchSHA(t, sc)
	raw, err := json.Marshal(InitRequest{Scenario: sc, Scale: -1, WithTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	j, _, err := OpenJournal(filepath.Join(dir, "journal.jsonl"), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(kindInit, json.RawMessage(raw)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovering a journaled init at scale -1: %v", err)
	}
	defer r.Close()
	drive(t, r)
	sum, err := r.AuditSHA256()
	if err != nil {
		t.Fatal(err)
	}
	if sum != wantSHA {
		t.Fatalf("recovered audit sha %s != batch %s of the unscaled scenario", sum, wantSHA)
	}
}

// TestRunnerRejections pins the API edges that must never reach the
// journal: pre-init mutations, double init, settled-slot supply overrides,
// past-slot faults and post-drain submissions.
func TestRunnerRejections(t *testing.T) {
	r, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, _, err := r.Submit("", workload.Job{ID: 1, Duration: 1, Deadline: 5, CPU: 1}); err == nil {
		t.Error("pre-init submit accepted")
	}
	if _, err := r.Tick(TickRequest{To: 5}); err == nil {
		t.Error("pre-init tick accepted")
	}
	sc := testScenario(508, false)
	if err := r.Init(InitRequest{Scenario: sc, WithTrace: true}); err != nil {
		t.Fatal(err)
	}
	if err := r.Init(InitRequest{Scenario: sc}); err == nil {
		t.Error("double init accepted")
	}
	if _, err := r.Tick(TickRequest{To: 4}); err != nil {
		t.Fatal(err)
	}
	if err := r.Supply(SupplyRequest{Slot: 2, Watts: 100}); err == nil {
		t.Error("supply override for settled slot accepted")
	}
	if err := r.Fault(FaultRequest{Event: fault.Event{Kind: fault.KindPVDropout, At: 1, Duration: 1}}); err == nil {
		t.Error("past-slot fault accepted")
	}
	if err := r.Fault(FaultRequest{Event: fault.Event{Kind: fault.KindNodeCrash, At: 50, Nodes: []int{99}}}); err == nil {
		t.Error("out-of-cluster crash target accepted")
	}
	seq := r.journal.next
	if err := r.Supply(SupplyRequest{Slot: 2, Watts: 100}); err == nil {
		t.Error("second settled-slot override accepted")
	}
	if r.journal.next != seq {
		t.Error("rejected request reached the journal")
	}
}
