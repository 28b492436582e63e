package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/storage"
)

// counts are the exact per-layer numbers a traced pass produces besides
// its spans.
type counts struct {
	fastRatio     float64
	checkpointKB  []float64
	writePerOp    float64
	replayEntries int
}

// probeRepeats is how often the probe repeats a call it times alone.
const probeRepeats = 3

// probe makes, on a workload's own inputs, the calls into each layer that
// its traced pass did not make, so every per-layer metric is measured on
// every workload: construction, a decorated batch run and Live pass, a
// direct Runner session over the workload's request sequence with its
// crash image, journal appends, a recovery broken into its phases and,
// for workloads that send no HTTP traffic of their own, the same sequence
// over HTTP. Every run it makes must reproduce the reference answers.
func probe(e *env, w *workloadDef, r *ran) (counts, error) {
	var c counts
	rec, in := e.rec, r.in
	for i := 0; i < probeRepeats; i++ {
		if err := probeConstruction(e, w); err != nil {
			return c, err
		}
	}

	plain, err := core.Run(in.cfg)
	if err != nil {
		return c, err
	}
	want := digest(plain)
	sim, err := core.New(decorate(in.cfg, rec))
	if err != nil {
		return c, err
	}
	s := rec.begin("core.run", 0)
	rec.setCur(s.ID)
	res, err := sim.Run()
	rec.end(s)
	if e.f.op(err) && digest(res) != want {
		e.f.fail("the decorated batch run changed the Result")
	}
	if c.fastRatio, err = livePass(e, in.cfg, want); err != nil {
		return c, err
	}

	if r.seq == nil {
		r.seq = arrivalOps(in.cfg.Trace, nil, nil)
	}
	if r.ref.digest == "" {
		if r.ref, err = batchReference(in.cfg); err != nil {
			return c, err
		}
	}
	d, image := r.history, r.image
	if d == nil {
		image = filepath.Join(e.tmp, "probe-image")
		if d, err = runDirect(filepath.Join(e.tmp, "probe-direct"), serve.InitRequest{Scenario: in.sc, WithTrace: r.preload}, r.seq, image, rec); err != nil {
			return c, fmt.Errorf("direct session: %w", err)
		}
		e.checkFinal(d.runner, r.ref)
		if err := d.runner.Close(); err != nil {
			return c, err
		}
	}
	c.checkpointKB = d.checkpointKB
	c.writePerOp = float64(d.writeBytes) / float64(d.acked)

	var entries []serve.Entry
	for i := 0; i < probeRepeats; i++ {
		if entries, c.replayEntries, err = probeRecovery(e, image, d.image, i); err != nil {
			return c, err
		}
	}
	if err := probeJournal(e, entries); err != nil {
		return c, err
	}

	if !r.http {
		sess, _, err := e.startService(in, r.preload, "probe-http")
		if err != nil {
			return c, err
		}
		outs := replay(sess.c, r.seq, false)
		for _, o := range outs {
			e.f.op(o.err)
			r.lag = append(r.lag, ms(o.lag))
		}
		sess.finish(r.ref, &e.f)
		if err := sess.close(); err != nil {
			return c, err
		}
	}
	return c, nil
}

// probeConstruction times compiling the inputs, building the storage
// cluster and its minimal cover on their own, and core.New.
func probeConstruction(e *env, w *workloadDef) error {
	rec := e.rec
	s := rec.begin("scenario.compile", 0)
	in, err := w.build(e.seed)
	rec.end(s)
	if err != nil {
		return err
	}
	cc := in.cfg.Cluster
	cc.Nodes = cc.TotalNodes() // as core.New normalizes it
	s = rec.begin("storage.new_cluster", 0)
	cl, err := storage.NewCluster(cc)
	rec.end(s)
	if err != nil {
		return err
	}
	s = rec.begin("storage.minimal_cover", 0)
	cover := cl.MinimalCover()
	rec.end(s)
	if len(cover) == 0 {
		return fmt.Errorf("empty minimal cover")
	}
	s = rec.begin("core.new", 0)
	_, err = core.New(in.cfg)
	rec.end(s)
	return err
}

// livePass steps a decorated core.Live one slot per call, snapshotting at
// the checkpoint cadence, and returns the share of slots that took the
// fast path. Its Result must equal the batch run's.
func livePass(e *env, cfg core.Config, want string) (float64, error) {
	rec := e.rec
	live, err := core.NewLive(decorate(cfg, rec))
	if err != nil {
		return 0, err
	}
	for n := 1; !live.Drained(); n++ {
		next := live.NextSlot()
		s := rec.begin("core.step", 0)
		rec.setCur(s.ID)
		//lint:allow applypath a private scheduler stepped to time the kernel; no service journals it
		err := live.StepTo(next)
		rec.end(s)
		if err != nil {
			return 0, err
		}
		if live.NextSlot() == next {
			break // the overrun bound stopped the run
		}
		if n%checkpointEvery == 0 {
			s := rec.begin("core.snapshot", 0)
			_, err := live.Snapshot()
			rec.end(s)
			if err != nil {
				return 0, err
			}
		}
	}
	//lint:allow applypath the same private scheduler, finalized to check its Result
	res, err := live.Finalize()
	if !e.f.op(err) {
		return 0, nil
	}
	if digest(res) != want {
		e.f.fail("the decorated Live pass changed the Result")
	}
	return float64(res.FastSlots) / float64(res.Slots), nil
}

// probeRecovery recovers a copy of the crash image with serve.Open, then
// repeats recovery's phases one at a time on another copy: the journal
// scan, loading the checkpoint, core.RestoreLive and the replay of the
// journal tail. It returns the journal's entries and the tail length.
func probeRecovery(e *env, image string, crashed serve.Status, i int) ([]serve.Entry, int, error) {
	rec := e.rec
	dir := filepath.Join(e.tmp, fmt.Sprintf("probe-recover-%d", i))
	if err := copyDir(image, dir); err != nil {
		return nil, 0, err
	}
	s := rec.begin("serve.open", 0)
	r, err := serve.Open(dir, serviceOptions)
	rec.end(s)
	if !e.f.op(err) {
		return nil, 0, nil
	}
	if st := r.Status(); st.NextSlot != crashed.NextSlot || st.AppliedSeq != crashed.AppliedSeq {
		e.f.fail("probe recovery did not reach the crash point")
	}
	if err := r.Close(); err != nil {
		return nil, 0, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}

	if err := copyDir(image, dir); err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	s = rec.begin("serve.journal_scan", 0)
	j, entries, err := serve.OpenJournal(filepath.Join(dir, "journal.jsonl"), false)
	rec.end(s)
	if err != nil {
		return nil, 0, err
	}
	if err := j.Close(); err != nil {
		return nil, 0, err
	}
	s = rec.begin("serve.checkpoint_load", 0)
	cp, err := loadCheckpoint(dir)
	rec.end(s)
	if err != nil {
		return nil, 0, err
	}
	if cp.Init == nil || cp.Snapshot == nil {
		return nil, 0, fmt.Errorf("crash image checkpoint holds no scheduler state")
	}
	cfg, over, err := serviceConfig(*cp.Init, cp.Overrides)
	if err != nil {
		return nil, 0, err
	}
	s = rec.begin("core.restore", 0)
	live, err := core.RestoreLive(cfg, cp.Snapshot)
	rec.end(s)
	if err != nil {
		return nil, 0, err
	}
	s = rec.begin("serve.replay", 0)
	n, err := replayTail(live, over, entries, cp.Seq)
	rec.end(s)
	if err != nil {
		return nil, 0, err
	}
	if live.NextSlot() != crashed.NextSlot {
		e.f.fail("replaying the journal tail did not reach the crash point")
	}
	return entries, n, nil
}

// probeJournal appends the session's journal payloads to scratch
// journals, without fsync and then with it.
func probeJournal(e *env, entries []serve.Entry) error {
	for _, fsync := range []bool{false, true} {
		path := filepath.Join(e.tmp, fmt.Sprintf("journal-fsync-%v.jsonl", fsync))
		j, _, err := serve.OpenJournal(path, fsync)
		if err != nil {
			return err
		}
		for _, en := range entries {
			s := e.rec.begin("serve.journal_append", 0)
			s.Attrs = map[string]any{"fsync": fsync}
			_, err := j.Append(en.Kind, en.Data)
			e.rec.end(s)
			if err != nil {
				_ = j.Close() // the append error is the one reported
				return err
			}
		}
		if err := j.Close(); err != nil {
			return err
		}
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	return nil
}
