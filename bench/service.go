package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/solar"
	"repro/internal/units"
	"repro/internal/workload"
)

// checkpointEvery is gmserve's default automatic checkpoint cadence, in
// journal entries.
const checkpointEvery = 64

// serviceOptions are gmserve's defaults but for the journal fsync. On a
// shared virtual disk fsync latency is other tenants' I/O: at a p50 of
// 80–160 µs and a p99 of 3 ms it was half of a submit's time, and its
// episodes moved serve-open's median latency sixfold between runs. The
// layer probe measures it on its own (serve.journal_fsync_us_p50), and
// checkpoints still sync.
var serviceOptions = serve.Options{CheckpointEvery: checkpointEvery}

// session is one in-process gmserve: serve.Open plus serve.NewServer with
// serviceOptions, listening on loopback TCP.
type session struct {
	dir  string
	srv  *serve.Server
	hs   *http.Server
	done chan error
	c    *client
}

// openSession starts a service over an empty state directory. With rec
// set, the handler records an http.handler span per request.
func openSession(dir string, rec *recorder) (*session, error) {
	r, err := serve.Open(dir, serviceOptions)
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(r, serve.ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	h := srv.Handler()
	if rec != nil {
		h = traceHandler(h, rec)
	}
	s := &session{dir: dir, srv: srv, hs: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	s.c = newClient("http://"+ln.Addr().String(), rec)
	return s, nil
}

// close stops the listener, then the apply loop and runner, waits for the
// serving goroutine and removes the state directory.
func (s *session) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.c.close()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// finish finalizes the run over HTTP and checks its Result and audit
// trace against want.
func (s *session) finish(want reference, f *failures) {
	var res core.Result
	err := s.c.post("/v1/finalize", -1, nil, &res)
	if f.op(err) && digest(&res) != want.digest {
		f.fail("finalize Result differs from the batch run")
	}
	var sha struct {
		SHA256 string `json:"sha256"`
	}
	err = s.c.get("/v1/trace/sha256", &sha)
	if f.op(err) && sha.SHA256 != want.sha {
		f.fail("audit trace sha256 differs from the batch run")
	}
}

// direct is the outcome of running an op sequence through a Runner's
// methods, without HTTP.
type direct struct {
	runner       *serve.Runner
	imageSeq     uint64
	image        serve.Status // status at the crash image
	checkpointKB []float64    // size of each checkpoint written
	writeBytes   int64        // journal, checkpoint and audit bytes written
	acked        int          // requests acknowledged, init included
}

// opSeq is the journal sequence number op i is written at: init is 1.
func opSeq(i int) uint64 { return uint64(i) + 2 }

// imageSeqFor picks the crash point of an n-op sequence: the last entry
// with seq 63 mod 64, so recovery restores a checkpoint and replays the
// longest tail the cadence allows.
func imageSeqFor(n int) uint64 {
	last := opSeq(n - 1)
	if last < checkpointEvery-1 {
		return last
	}
	return last - (last+1)%checkpointEvery
}

// runDirect initialises a Runner in dir and applies ops through its
// methods, checkpointing by hand after every 64th journal entry (where
// gmserve's automatic cadence would) so checkpoints are timed apart from
// the ops. After the entry at imageSeq it copies dir to image: a crash
// image, taken without Close. The Runner is returned open.
func runDirect(dir string, init serve.InitRequest, ops []op, image string, rec *recorder) (*direct, error) {
	r, err := serve.Open(dir, serve.Options{})
	if err != nil {
		return nil, err
	}
	d := &direct{runner: r, imageSeq: imageSeqFor(len(ops)), acked: 1}
	s := rec.begin("serve.init", 0)
	err = r.Init(init)
	rec.end(s)
	if err != nil {
		return d, err
	}
	for i, o := range ops {
		s := rec.begin("serve."+o.kind.String(), 0)
		s.Attrs = map[string]any{"op": i}
		switch o.kind {
		case opSubmit:
			_, _, err = r.Submit("", o.job)
		case opSupply:
			err = r.Supply(serve.SupplyRequest{Slot: o.slot, Watts: o.watts})
		default:
			_, err = r.Tick(serve.TickRequest{To: o.slot})
		}
		rec.end(s)
		if err != nil {
			return d, fmt.Errorf("op %d (%v): %w", i, o.kind, err)
		}
		d.acked++
		seq := opSeq(i)
		if seq%checkpointEvery == 0 {
			s := rec.begin("serve.checkpoint", 0)
			err := r.Checkpoint()
			rec.end(s)
			if err != nil {
				return d, err
			}
			fi, err := os.Stat(filepath.Join(dir, "checkpoint.json"))
			if err != nil {
				return d, err
			}
			d.writeBytes += fi.Size()
			d.checkpointKB = append(d.checkpointKB, float64(fi.Size())/1024)
		}
		if seq == d.imageSeq && image != "" {
			d.image = r.Status()
			if err := copyDir(dir, image); err != nil {
				return d, err
			}
		}
	}
	for _, name := range []string{"journal.jsonl", "audit.jsonl"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			return d, err
		}
		d.writeBytes += fi.Size()
	}
	return d, nil
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// loadCheckpoint reads and verifies the image's checkpoint envelope, the
// way serve.Open does.
func loadCheckpoint(dir string) (serve.Checkpoint, error) {
	var cp serve.Checkpoint
	blob, err := os.ReadFile(filepath.Join(dir, "checkpoint.json"))
	if err != nil {
		return cp, err
	}
	var env struct {
		SHA256  string          `json:"sha256"`
		Payload json.RawMessage `json:"payload"`
	}
	if err := json.Unmarshal(blob, &env); err != nil {
		return cp, err
	}
	sum := sha256.Sum256(env.Payload)
	if hex.EncodeToString(sum[:]) != env.SHA256 {
		return cp, fmt.Errorf("checkpoint digest mismatch")
	}
	return cp, json.Unmarshal(env.Payload, &cp)
}

// overrides layers supply overrides over the compiled supply, as the
// service does.
type overrides struct {
	base solar.Provider
	over map[int]float64
}

func (p *overrides) Power(slot int) units.Power {
	if w, ok := p.over[slot]; ok {
		return units.Power(w)
	}
	return p.base.Power(slot)
}

func (p *overrides) Slots() int { return p.base.Slots() }

// serviceConfig compiles an init request the way the service does, with
// the audit trace discarded.
func serviceConfig(req serve.InitRequest, over map[int]float64) (core.Config, *overrides, error) {
	sc := req.Scenario
	if req.Scale > 0 {
		sc = sc.Scaled(req.Scale)
	}
	cfg, err := sc.Compile()
	if err != nil {
		return cfg, nil, err
	}
	if !req.WithTrace {
		cfg.Trace = nil
	}
	p := &overrides{base: cfg.Green, over: map[int]float64{}}
	for s, w := range over {
		p.over[s] = w
	}
	cfg.Green = p
	cfg.Observer = audit.NewJSONL(io.Discard)
	return cfg, p, nil
}

// replayTail re-applies journal entries past the checkpoint to a restored
// scheduler, as recovery does, and returns how many it applied.
func replayTail(live *core.Live, over *overrides, entries []serve.Entry, after uint64) (int, error) {
	n := 0
	for _, e := range entries {
		if e.Seq <= after {
			continue
		}
		n++
		var err error
		switch e.Kind {
		case "submit":
			var rec struct {
				Job workload.Job `json:"job"`
			}
			if err = json.Unmarshal(e.Data, &rec); err == nil {
				//lint:allow applypath re-applies journaled entries to a private copy, as recovery does, to time the replay
				err = live.Submit(rec.Job)
			}
		case "tick":
			var req serve.TickRequest
			if err = json.Unmarshal(e.Data, &req); err == nil {
				//lint:allow applypath re-applies journaled entries to a private copy, as recovery does, to time the replay
				err = live.StepTo(req.To)
			}
		case "supply":
			var req serve.SupplyRequest
			if err = json.Unmarshal(e.Data, &req); err == nil {
				if req.Clear {
					delete(over.over, req.Slot)
				} else {
					over.over[req.Slot] = req.Watts
				}
			}
		default:
			err = fmt.Errorf("unexpected journal entry kind %q", e.Kind)
		}
		if err != nil {
			return n, fmt.Errorf("replaying entry %d: %w", e.Seq, err)
		}
	}
	return n, nil
}
