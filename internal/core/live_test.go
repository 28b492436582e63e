package core

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/audit"
	"repro/internal/fault"
	"repro/internal/power"
	"repro/internal/storage"
	"repro/internal/workload"
)

// liveFinalize runs a live scheduler to completion, failing the test on
// error.
func liveFinalize(t *testing.T, l *Live) *Result {
	t.Helper()
	res, err := l.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLiveMatchesRun pins the central live/batch equivalence: a Live built
// over a config's trace and finalized produces the same Result and the
// same audit-trace bytes as a batch Run of that config — with and without
// a fault schedule, across the policy arena.
func TestLiveMatchesRun(t *testing.T) {
	for _, withFaults := range []bool{false, true} {
		for _, seed := range []int64{1001, 1004, 1007} {
			name := fmt.Sprintf("seed=%d/faults=%v", seed, withFaults)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				build := func() (Config, *bytes.Buffer) {
					cfg := chaosConfig(t, seed)
					if withFaults {
						cfg.Faults = fault.Generate(seed, fault.GenSpec{
							Slots: 200, Nodes: cfg.Cluster.Nodes, AllowMTBF: true,
						})
					}
					var buf bytes.Buffer
					cfg.Observer = audit.NewJSONL(&buf)
					return cfg, &buf
				}

				bcfg, bbuf := build()
				want := run(t, bcfg)

				lcfg, lbuf := build()
				l, err := NewLive(lcfg)
				if err != nil {
					t.Fatal(err)
				}
				got := liveFinalize(t, l)

				if !reflect.DeepEqual(want, got) {
					t.Fatalf("live result differs from batch run:\nbatch %+v\nlive  %+v", want, got)
				}
				if !bytes.Equal(bbuf.Bytes(), lbuf.Bytes()) {
					t.Fatalf("live trace differs from batch run (%d vs %d bytes)",
						bbuf.Len(), lbuf.Len())
				}
			})
		}
	}
}

// TestLiveStepGranularityInvariant pins that how the run is sliced into
// StepTo calls cannot matter: one slot at a time, odd strides, and one big
// Finalize all produce identical results and bytes.
func TestLiveStepGranularityInvariant(t *testing.T) {
	type variant struct {
		name string
		step func(l *Live) error
	}
	variants := []variant{
		{"finalize-only", func(l *Live) error { return nil }},
		{"one-slot", func(l *Live) error {
			for !l.Drained() {
				if err := l.StepTo(l.NextSlot()); err != nil {
					return err
				}
			}
			return nil
		}},
		{"stride-7", func(l *Live) error {
			for !l.Drained() {
				if err := l.StepTo(l.NextSlot() + 6); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	var wantRes *Result
	var wantTrace []byte
	for _, v := range variants {
		cfg := chaosConfig(t, 1002)
		cfg.Faults = fault.Generate(1002, fault.GenSpec{
			Slots: 200, Nodes: cfg.Cluster.Nodes, AllowMTBF: true,
		})
		var buf bytes.Buffer
		cfg.Observer = audit.NewJSONL(&buf)
		l, err := NewLive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.step(l); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		res := liveFinalize(t, l)
		if wantRes == nil {
			wantRes, wantTrace = res, buf.Bytes()
			continue
		}
		if !reflect.DeepEqual(wantRes, res) {
			t.Fatalf("%s: result differs from %s", v.name, variants[0].name)
		}
		if !bytes.Equal(wantTrace, buf.Bytes()) {
			t.Fatalf("%s: trace differs from %s", v.name, variants[0].name)
		}
	}
}

// TestLiveSubmitMatchesTrace pins the daemon ingestion path: a Live built
// with an empty trace and fed the same jobs through Submit before any slot
// executes is byte-identical to the batch run of the full trace.
func TestLiveSubmitMatchesTrace(t *testing.T) {
	cfg := chaosConfig(t, 1003)

	var bbuf bytes.Buffer
	bcfg := cfg
	bcfg.Observer = audit.NewJSONL(&bbuf)
	want := run(t, bcfg)

	lcfg := cfg
	lcfg.Trace = nil
	var lbuf bytes.Buffer
	lcfg.Observer = audit.NewJSONL(&lbuf)
	l, err := NewLive(lcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range cfg.Trace {
		if err := l.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	got := liveFinalize(t, l)

	if !reflect.DeepEqual(want, got) {
		t.Fatalf("submitted run differs from batch run:\nbatch %+v\nlive  %+v", want, got)
	}
	if !bytes.Equal(bbuf.Bytes(), lbuf.Bytes()) {
		t.Fatalf("submitted-run trace differs from batch run (%d vs %d bytes)",
			bbuf.Len(), lbuf.Len())
	}
}

// TestLiveSnapshotRoundTrip is the crash-recovery kernel test: run live to
// a mid-run boundary, snapshot (through a JSON round trip, as a checkpoint
// file would), restore into a fresh scheduler, and require the restored
// run's Result and remaining trace bytes to complete the original exactly.
func TestLiveSnapshotRoundTrip(t *testing.T) {
	for _, seed := range []int64{1001, 1005, 1006} {
		for _, cut := range []int{1, 17, 64} {
			t.Run(fmt.Sprintf("seed=%d/cut=%d", seed, cut), func(t *testing.T) {
				t.Parallel()
				build := func() (Config, *bytes.Buffer) {
					cfg := chaosConfig(t, seed)
					cfg.Faults = fault.Generate(seed, fault.GenSpec{
						Slots: 200, Nodes: cfg.Cluster.Nodes, AllowMTBF: true,
					})
					var buf bytes.Buffer
					cfg.Observer = audit.NewJSONL(&buf)
					return cfg, &buf
				}

				cfg, buf := build()
				l, err := NewLive(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := l.StepTo(cut - 1); err != nil {
					t.Fatal(err)
				}
				snap, err := l.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				prefix := append([]byte(nil), buf.Bytes()...)

				// The original keeps running: a snapshot must not disturb it.
				wantRes := liveFinalize(t, l)
				wantTrace := buf.Bytes()

				// Checkpoint-file fidelity: restore from the JSON encoding,
				// not the in-memory value.
				blob, err := json.Marshal(snap)
				if err != nil {
					t.Fatal(err)
				}
				var decoded LiveSnapshot
				if err := json.Unmarshal(blob, &decoded); err != nil {
					t.Fatal(err)
				}

				rcfg, rbuf := build()
				r, err := RestoreLive(rcfg, &decoded)
				if err != nil {
					t.Fatal(err)
				}
				gotRes := liveFinalize(t, r)

				if !reflect.DeepEqual(wantRes, gotRes) {
					t.Fatalf("restored result differs:\noriginal %+v\nrestored %+v", wantRes, gotRes)
				}
				gotTrace := append(prefix, rbuf.Bytes()...)
				if !bytes.Equal(wantTrace, gotTrace) {
					t.Fatalf("restored trace differs (%d vs %d bytes)", len(wantTrace), len(gotTrace))
				}
			})
		}
	}
}

// TestLiveSnapshotWithPendingSubmissions pins that not-yet-admitted
// submissions survive a snapshot in admission order. A job whose submit
// slot has already passed is clamped to the next slot and admitted behind
// the trace jobs already due there, on the original and on the restored
// run alike. The legacy case restores from the checkpoint layout written
// before the arrival queue (pending jobs in submission order, each with
// its event time "at" in hours) and before the disk keep mask left the
// checkpoint, which must recover the same run. The
// digests pin each uninterrupted run's Result and audit trace.
func TestLiveSnapshotWithPendingSubmissions(t *testing.T) {
	// Slots 0..cut run before the snapshot. Two trace web jobs are due at
	// cut+1, and the mandatory queue's order reaches the placement, so the
	// digests move if past is admitted ahead of them.
	const seed, cut = 1010, 20
	future := workload.Job{
		ID: 100000, Class: workload.Batch,
		Submit: 80, Duration: 2, Deadline: 120, CPU: 1, RAMGB: 1,
	}
	// past is submitted after slot cut ran, so it is due at cut+1.
	past := workload.Job{
		ID: 100001, Class: workload.Web,
		Submit: 3, Duration: 15, Deadline: 36, CPU: 1, RAMGB: 1,
	}
	jobs := func(js ...workload.Job) []workload.Job { return js }

	for _, tc := range []struct {
		name string
		// pre is submitted before any slot runs, mid after StepTo(cut) and
		// before the snapshot, post after the snapshot to both runs.
		pre, mid, post []workload.Job
		legacy         bool
		resSHA         string
		traceSHA       string
	}{
		{name: "future", pre: jobs(future),
			resSHA:   "96f33e7089e19d96352ade7f2c4e32e261985581247580f20e48bc1a5d4e5118",
			traceSHA: "959aef8052545fed53c0f2c2bf9fa4c858818eaa006442af741dab3fe72ca11c"},
		{name: "past-slot", mid: jobs(past),
			resSHA:   "9a2fd03adf283f6a794eb38fd10ca84b20366f3d249d166cb3fd1b16f4b95bfa",
			traceSHA: "be90a81398355a1afc8b74d0018d6effa070d8e34a2b4a1dfd4b0359e22e1732"},
		{name: "both", pre: jobs(future), post: jobs(past),
			resSHA:   "7c91661ef88955578a12889269116aaa0eb9887c9857786aa3cdb4a5c809936d",
			traceSHA: "e6c6fcec13c49f35099cb765d55b333cec3d494868ca2d9462bbcc254630e621"},
		{name: "legacy-checkpoint", pre: jobs(future), mid: jobs(past), legacy: true,
			resSHA:   "7c91661ef88955578a12889269116aaa0eb9887c9857786aa3cdb4a5c809936d",
			traceSHA: "e6c6fcec13c49f35099cb765d55b333cec3d494868ca2d9462bbcc254630e621"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() (Config, *bytes.Buffer) {
				c := chaosConfig(t, seed)
				var buf bytes.Buffer
				c.Observer = audit.NewJSONL(&buf)
				return c, &buf
			}
			submit := func(l *Live, js []workload.Job) {
				t.Helper()
				for _, j := range js {
					if err := l.Submit(j); err != nil {
						t.Fatal(err)
					}
				}
			}

			cfg, buf := build()
			l, err := NewLive(cfg)
			if err != nil {
				t.Fatal(err)
			}
			submit(l, tc.pre)
			if err := l.StepTo(cut); err != nil {
				t.Fatal(err)
			}
			submit(l, tc.mid)
			snap, err := l.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			pending := map[int]bool{}
			for _, p := range snap.Pending {
				pending[p.Job.ID] = true
			}
			for _, j := range append(tc.pre, tc.mid...) {
				if !pending[j.ID] {
					t.Fatalf("submission %d missing from snapshot pending list", j.ID)
				}
			}
			blob, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			if tc.legacy {
				submitted := append(append(append([]workload.Job(nil), cfg.Trace...), tc.pre...), tc.mid...)
				blob = legacyCheckpoint(t, blob, submitted, cfg.ApplyDefaults().SlotHours)
			}
			prefix := append([]byte(nil), buf.Bytes()...)

			submit(l, tc.post)
			wantRes := liveFinalize(t, l)
			if want := len(cfg.Trace) + len(tc.pre) + len(tc.mid) + len(tc.post); wantRes.SLA.Submitted != want {
				t.Fatalf("original run admitted %d jobs, want %d", wantRes.SLA.Submitted, want)
			}
			if got := sha256Hex(t, wantRes); got != tc.resSHA {
				t.Errorf("Result sha256 = %s, want %s", got, tc.resSHA)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.traceSHA {
				t.Errorf("audit trace sha256 = %s, want %s", got, tc.traceSHA)
			}

			var decoded LiveSnapshot
			if err := json.Unmarshal(blob, &decoded); err != nil {
				t.Fatal(err)
			}
			rcfg, rbuf := build()
			r, err := RestoreLive(rcfg, &decoded)
			if err != nil {
				t.Fatal(err)
			}
			submit(r, tc.post)
			gotRes := liveFinalize(t, r)
			if !reflect.DeepEqual(wantRes, gotRes) {
				t.Fatalf("restored result differs:\noriginal %+v\nrestored %+v", wantRes, gotRes)
			}
			if gotTrace := append(prefix, rbuf.Bytes()...); !bytes.Equal(buf.Bytes(), gotTrace) {
				t.Fatalf("restored trace differs (%d vs %d bytes)", buf.Len(), len(gotTrace))
			}
		})
	}
}

// TestArrivalQueueOrder pins the queue's admission order to the
// event-list rule: each submission is keyed by the slot it is due at (its
// submit slot clamped to the next slot at submission) and then by
// submission order, and each slot admits every key due by it in key
// order. Submissions interleave with slot advances, so past-slot
// submissions land among jobs already due.
func TestArrivalQueueOrder(t *testing.T) {
	type key struct{ due, seq int }
	cfg := tinyConfig(t)
	cfg.Trace = nil
	rnd := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ref []key
		var want []int
		seq := 0
		for slot := 0; slot < 40; slot++ {
			for n := rnd.Intn(4); n > 0; n-- {
				submit := rnd.Intn(slot + 8)
				s.enqueue(workload.Job{
					ID: seq, Class: workload.Batch,
					Submit: submit, Duration: 1, Deadline: submit + 100, CPU: 1,
				})
				ref = append(ref, key{due: max(submit, slot), seq: seq})
				seq++
			}
			slices.SortFunc(ref, func(a, b key) int {
				return cmp.Or(cmp.Compare(a.due, b.due), cmp.Compare(a.seq, b.seq))
			})
			for len(ref) > 0 && ref[0].due <= slot {
				want = append(want, ref[0].seq)
				ref = ref[1:]
			}
			s.admitDue(slot)
			s.next = slot + 1
		}
		got := make([]int, len(s.waiting))
		for i, st := range s.waiting {
			got[i] = st.job.ID
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: admission order\n got %v\nwant %v", trial, got, want)
		}
	}
}

// TestArrivalQueueFIFOTiebreak pins the tiebreak among jobs due at the same
// slot: they are admitted in submission order, whatever their IDs, and a
// job whose submit slot has already passed queues behind them.
func TestArrivalQueueFIFOTiebreak(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.Trace = nil
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job := func(id, submit int) workload.Job {
		return workload.Job{
			ID: id, Class: workload.Batch,
			Submit: submit, Duration: 1, Deadline: submit + 100, CPU: 1,
		}
	}
	var want []int
	for i := 0; i < 10; i++ {
		id := 20 - 2*i // IDs descend while submission order ascends
		s.enqueue(job(id, 2))
		want = append(want, id)
	}
	s.next = 2
	for _, id := range []int{7, 3, 5} {
		s.enqueue(job(id, 0)) // past slot: due at 2, behind the jobs above
		want = append(want, id)
	}
	s.admitDue(2)
	got := make([]int, len(s.waiting))
	for i, st := range s.waiting {
		got[i] = st.job.ID
	}
	if !slices.Equal(got, want) {
		t.Fatalf("FIFO violated among jobs due at slot 2:\n got %v\nwant %v", got, want)
	}
}

// legacyCheckpoint rewrites a snapshot blob into the layout of checkpoints
// written while arrivals rode an event heap: the pending jobs in
// submission order, each carrying the heap time it was scheduled at —
// its submit slot clamped to the slot that was next at submission, in
// hours. submitted lists every submission in order. It also adds the
// keep_mask array those checkpoints carried: the last power plan's
// per-disk keep flags, which at a slot boundary with no disk wake are
// exactly the spinning disks of powered nodes. Those checkpoints also
// stored one latency sample per read (see parentReads).
func legacyCheckpoint(t *testing.T, blob []byte, submitted []workload.Job, slotHours float64) []byte {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(blob, &fields); err != nil {
		t.Fatal(err)
	}
	var snap LiveSnapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}
	pending := map[int]bool{}
	for _, p := range snap.Pending {
		pending[p.Job.ID] = true
	}
	type legacyPending struct {
		Job workload.Job `json:"job"`
		At  float64      `json:"at"`
	}
	var legacy []legacyPending
	for _, j := range submitted {
		if pending[j.ID] {
			legacy = append(legacy, legacyPending{Job: j, At: float64(max(j.Submit, snap.Next)) * slotHours})
		}
	}
	if len(legacy) != len(snap.Pending) {
		t.Fatalf("legacy layout holds %d pending jobs, snapshot %d", len(legacy), len(snap.Pending))
	}
	var keep []bool
	for _, n := range snap.Cluster.Nodes {
		for _, d := range n.Disks {
			keep = append(keep, n.Powered && d.State != power.DiskStandby)
		}
	}
	var err error
	if fields["pending"], err = json.Marshal(legacy); err != nil {
		t.Fatal(err)
	}
	if fields["keep_mask"], err = json.Marshal(keep); err != nil {
		t.Fatal(err)
	}
	fields["reads"] = parentReads(t, fields["reads"])
	out, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// parentReads rewrites a snapshot's reads field into the layout written
// before latencies were counted: one sample per read in a "latencies"
// array, here in a shuffled order, beside the running sum.
func parentReads(t *testing.T, raw json.RawMessage) json.RawMessage {
	t.Helper()
	var st storage.ReadModelState
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	samples := []float64{}
	for i, v := range st.LatencyValues {
		for range st.LatencyCounts[i] {
			samples = append(samples, v)
		}
	}
	rand.New(rand.NewSource(int64(len(samples)))).Shuffle(len(samples), func(i, j int) {
		samples[i], samples[j] = samples[j], samples[i]
	})
	out, err := json.Marshal(struct {
		Draws      uint64    `json:"draws,omitempty"`
		Latencies  []float64 `json:"latencies"`
		LatencySum float64   `json:"latency_sum,omitempty"`
	}{st.Draws, samples, st.LatencySum})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLiveRestoresParentLatencies restores a checkpoint whose reads field
// is in the layout written before latencies were counted and requires the
// run to finish with the batch run's Result and audit trace, whose digests
// are pinned.
func TestLiveRestoresParentLatencies(t *testing.T) {
	const (
		seed, cut = 1003, 60
		resSHA    = "417d926b8ce604133a5a3caebb3d57b1766dcc83ba809bd99f08c5ad1b565279"
		traceSHA  = "524f362036f5b1bc6f5bc285069ae01d3d1361c18f27e153f9f694c5398563c5"
	)
	build := func() (Config, *bytes.Buffer) {
		cfg := chaosConfig(t, seed)
		var buf bytes.Buffer
		cfg.Observer = audit.NewJSONL(&buf)
		return cfg, &buf
	}
	bcfg, bbuf := build()
	want := run(t, bcfg)
	if got := sha256Hex(t, want); got != resSHA {
		t.Errorf("batch Result sha256 = %s, want %s", got, resSHA)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(bbuf.Bytes())); got != traceSHA {
		t.Errorf("batch audit trace sha256 = %s, want %s", got, traceSHA)
	}

	cfg, buf := build()
	l, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.StepTo(cut); err != nil {
		t.Fatal(err)
	}
	snap, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(blob, &fields); err != nil {
		t.Fatal(err)
	}
	fields["reads"] = parentReads(t, fields["reads"])
	if blob, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	var decoded LiveSnapshot
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Reads.LatencyValues != nil || len(decoded.Reads.Latencies) == 0 {
		t.Fatalf("rewritten reads field is not in the parent layout: %+v", decoded.Reads)
	}
	rcfg, rbuf := build()
	r, err := RestoreLive(rcfg, &decoded)
	if err != nil {
		t.Fatal(err)
	}
	got := liveFinalize(t, r)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("restored result differs from batch run:\nbatch    %+v\nrestored %+v", want, got)
	}
	if gotTrace := append(buf.Bytes(), rbuf.Bytes()...); !bytes.Equal(bbuf.Bytes(), gotTrace) {
		t.Fatalf("restored trace differs from batch run (%d vs %d bytes)", bbuf.Len(), len(gotTrace))
	}
}

// TestLiveSnapshotReadsFlat pins that the reads field of a snapshot grows
// with the distinct latencies, not with the reads served: four times the
// slots serve about four times the reads, and the field stays the same
// size up to the digits of its counters.
func TestLiveSnapshotReadsFlat(t *testing.T) {
	const k = 40
	l, err := NewLive(chaosConfig(t, 1003))
	if err != nil {
		t.Fatal(err)
	}
	reads := func(to int) (storage.ReadModelState, []byte) {
		t.Helper()
		if err := l.StepTo(to); err != nil {
			t.Fatal(err)
		}
		snap, err := l.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(snap.Reads)
		if err != nil {
			t.Fatal(err)
		}
		return snap.Reads, b
	}
	n := func(st storage.ReadModelState) (total int) {
		for _, c := range st.LatencyCounts {
			total += c
		}
		return total
	}
	before, bb := reads(k - 1)
	after, ab := reads(4*k - 1)
	if n(before) == 0 || n(after) < 3*n(before) {
		t.Fatalf("served %d reads in %d slots and %d in %d", n(before), k, n(after), 4*k)
	}
	if len(after.LatencyValues) != len(before.LatencyValues) || len(ab) > len(bb)+16 {
		t.Fatalf("reads field grew from %d B (%s) to %d B (%s)", len(bb), bb, len(ab), ab)
	}
}

// sha256Hex digests v's JSON encoding.
func sha256Hex(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// TestLiveInjectFault pins live fault injection: injecting the schedule's
// events over the Live API before the run starts matches compiling them
// into the config, and past-slot injection is rejected.
func TestLiveInjectFault(t *testing.T) {
	events := []fault.Event{
		{Kind: fault.KindNodeCrash, At: 10, Nodes: []int{2}, Duration: 8},
		{Kind: fault.KindPVDerate, At: 20, Duration: 30, Magnitude: 0.5},
	}

	bcfg := chaosConfig(t, 1001)
	bcfg.Faults = fault.Config{Events: events}
	var bbuf bytes.Buffer
	bcfg.Observer = audit.NewJSONL(&bbuf)
	want := run(t, bcfg)

	lcfg := chaosConfig(t, 1001)
	var lbuf bytes.Buffer
	lcfg.Observer = audit.NewJSONL(&lbuf)
	l, err := NewLive(lcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := l.InjectFault(ev); err != nil {
			t.Fatal(err)
		}
	}
	got := liveFinalize(t, l)

	if !reflect.DeepEqual(want, got) {
		t.Fatalf("injected run differs from compiled run:\ncompiled %+v\ninjected %+v", want, got)
	}
	if !bytes.Equal(bbuf.Bytes(), lbuf.Bytes()) {
		t.Fatalf("injected-run trace differs from compiled run (%d vs %d bytes)",
			bbuf.Len(), lbuf.Len())
	}
}

// TestLiveRejections pins the API edges: past-slot faults, submissions
// after drain, and operations after finalize all error cleanly.
func TestLiveRejections(t *testing.T) {
	l, err := NewLive(chaosConfig(t, 1001))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.StepTo(4); err != nil {
		t.Fatal(err)
	}
	if err := l.InjectFault(fault.Event{Kind: fault.KindPVDropout, At: 2, Duration: 1}); err == nil {
		t.Error("past-slot fault injection should be rejected")
	}
	if err := l.Submit(workload.Job{}); err == nil {
		t.Error("invalid job should be rejected")
	}
	if _, err := l.Finalize(); err != nil {
		t.Fatal(err)
	}
	if !l.Finished() {
		t.Fatal("Finished() false after Finalize")
	}
	if err := l.Submit(workload.Job{ID: 1, Submit: 0, Duration: 1, Deadline: 5, CPU: 1}); err == nil {
		t.Error("submit after finalize should be rejected")
	}
	if err := l.StepTo(1000); err == nil {
		t.Error("step after finalize should be rejected")
	}
	if _, err := l.Snapshot(); err == nil {
		t.Error("snapshot after finalize should be rejected")
	}
	// Finalize is idempotent.
	if _, err := l.Finalize(); err != nil {
		t.Fatal(err)
	}
}
