package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
)

// This file is the live half of the chaos harness: instead of calling the
// simulator in-process, it starts a real gmserve daemon, replays the chaos
// workload over HTTP — submissions, ticks — SIGKILLs the daemon
// mid-replay, restarts it against the same state directory, finishes the
// run, and requires the daemon's audit-trace sha256 and final Result to
// be byte-identical to a local batch simulation of the same scenario.
// That closes the loop the in-process recovery tests can't: the journal,
// checkpoint and audit files survive a real process death, not a
// simulated one.

// daemon wraps one gmserve subprocess.
type daemon struct {
	cmd *exec.Cmd
	url string
}

// startDaemon launches gmserve against dir on an ephemeral port and waits
// until it is ready (which, on a restart, means recovery has completed).
func startDaemon(bin, dir string, verbose bool) (*daemon, error) {
	// Remove any stale addr file so readiness polling can't race a
	// previous incarnation's address.
	_ = os.Remove(filepath.Join(dir, "addr"))
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-dir", dir,
		"-fsync=false", // page-cache durability is enough: the harness kills the process, not the machine
		"-checkpoint-every", "16",
	)
	if verbose {
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if blob, err := os.ReadFile(filepath.Join(dir, "addr")); err == nil {
			d.url = "http://" + strings.TrimSpace(string(blob))
			resp, err := http.Get(d.url + "/readyz")
			if err == nil {
				_ = resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("gmserve did not become ready in %s", dir)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// kill SIGKILLs the daemon — the adversarial crash.
func (d *daemon) kill() {
	if d.cmd.Process != nil {
		_ = d.cmd.Process.Kill()
	}
	_ = d.cmd.Wait()
}

// stop shuts the daemon down gracefully (SIGTERM) and waits.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("gmserve ignored SIGTERM")
	}
}

// post sends one JSON request and decodes the JSON response into out (when
// non-nil). Network errors are returned as-is so the caller can tell a
// killed daemon from a rejected request.
func (d *daemon) post(path string, body any, headers map[string]string, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(http.MethodPost, d.url+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %d %s", path, resp.StatusCode, bytes.TrimSpace(blob))
	}
	if out != nil {
		return json.Unmarshal(blob, out)
	}
	return nil
}

func (d *daemon) get(path string, out any) error {
	resp, err := http.Get(d.url + path)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %d %s", path, resp.StatusCode, bytes.TrimSpace(blob))
	}
	return json.Unmarshal(blob, out)
}

type serveStatus struct {
	NextSlot int  `json:"next_slot"`
	Drained  bool `json:"drained"`
	Finished bool `json:"finished"`
}

// serveSeed runs one seed of the live chaos harness: reference batch run,
// daemon replay over HTTP with a SIGKILL mid-replay and a restart, then
// the byte-identity comparison.
func serveSeed(seed int64, bin string, sp runSpec, verbose bool) error {
	sc, cfg, err := chaosScenario(seed, sp)
	if err != nil {
		return err
	}

	// Reference: the same scenario as a plain in-process batch run with the
	// identical JSONL audit sink the daemon writes.
	h := sha256.New()
	cfg.Observer = audit.NewJSONL(h)
	wantRes, err := core.Run(cfg)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	wantSHA := hex.EncodeToString(h.Sum(nil))

	dir, err := os.MkdirTemp("", "gmchaos-serve-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	d, err := startDaemon(bin, dir, verbose)
	if err != nil {
		return err
	}
	defer d.kill() // no-op after a clean stop

	// The daemon starts empty (with_trace off) and receives every job over
	// the wire before the first tick — the live-service ingestion path.
	if err := d.post("/v1/init", map[string]any{"scenario": sc}, nil, nil); err != nil {
		return fmt.Errorf("init: %w", err)
	}
	for i, j := range cfg.Trace {
		hdr := map[string]string{"Idempotency-Key": fmt.Sprintf("seed%d-job%d", seed, i)}
		if err := d.post("/v1/jobs", map[string]any{"job": j}, hdr, nil); err != nil {
			return fmt.Errorf("submit %d: %w", i, err)
		}
	}

	// Advance to just before the kill point, then fire the fatal tick and
	// SIGKILL the daemon while it is (most likely) mid-slot. Whether the
	// tick's journal entry landed complete, torn or not at all, recovery
	// must produce a consistent state the run can resume from.
	killSlot := max(sp.slots/3, 2)
	var st serveStatus
	for st.NextSlot < killSlot-1 && !st.Drained {
		if err := d.post("/v1/tick", map[string]any{"to": min(st.NextSlot+8, killSlot-1)}, nil, &st); err != nil {
			return fmt.Errorf("tick: %w", err)
		}
	}
	go d.post("/v1/tick", map[string]any{"to": killSlot + 8}, nil, nil) // response is lost with the process
	time.Sleep(5 * time.Millisecond)
	d.kill()

	// Restart against the same state directory: readiness implies recovery
	// (checkpoint restore + journal tail replay) has completed.
	d2, err := startDaemon(bin, dir, verbose)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	defer d2.kill()
	if err := d2.get("/v1/status", &st); err != nil {
		return fmt.Errorf("status after recovery: %w", err)
	}
	if verbose {
		fmt.Printf("seed %d: killed near slot %d, recovered at slot %d\n", seed, killSlot, st.NextSlot)
	}
	for !st.Drained {
		if err := d2.post("/v1/tick", map[string]any{"to": st.NextSlot + 16}, nil, &st); err != nil {
			return fmt.Errorf("tick after recovery: %w", err)
		}
	}
	var gotRes json.RawMessage
	if err := d2.post("/v1/finalize", nil, nil, &gotRes); err != nil {
		return fmt.Errorf("finalize: %w", err)
	}
	var sha struct {
		SHA256 string `json:"sha256"`
	}
	if err := d2.get("/v1/trace/sha256", &sha); err != nil {
		return fmt.Errorf("trace sha: %w", err)
	}
	if err := d2.stop(); err != nil {
		return fmt.Errorf("graceful stop: %w", err)
	}

	if sha.SHA256 != wantSHA {
		return fmt.Errorf("audit trace diverged: daemon %s, batch %s", sha.SHA256, wantSHA)
	}
	if !jsonEqual(gotRes, wantRes) {
		return fmt.Errorf("final result diverged from batch run")
	}
	return nil
}

// jsonEqual compares a raw JSON value against the canonical encoding of v.
func jsonEqual(raw json.RawMessage, v any) bool {
	want, err := json.Marshal(v)
	if err != nil {
		return false
	}
	var a, b any
	if json.Unmarshal(raw, &a) != nil || json.Unmarshal(want, &b) != nil {
		return false
	}
	return reflect.DeepEqual(a, b)
}
