package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/workload"
	"repro/scenarios"
)

func newTestServer(t *testing.T, dir string, sopts ServerOptions) (*Server, *httptest.Server) {
	t.Helper()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(r, sopts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestServerEndToEnd drives a whole run over HTTP: init, submissions with
// idempotency keys, supply override, fault injection, ticks, finalize, and
// the sha256 trace endpoint — and cross-checks the probes and metrics.
func TestServerEndToEnd(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, dir, ServerOptions{})

	for _, probe := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + probe)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s returned %d", probe, resp.StatusCode)
		}
	}

	sc := testScenario(601, false)
	cfg, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/init", InitRequest{Scenario: sc}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("init: %d %s", resp.StatusCode, body)
	}

	// Submit the compiled trace over the wire, each with a key; resubmit one
	// and require the replayed flag plus the original sequence number.
	var first SubmitResponse
	for i, j := range cfg.Trace {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Job: j},
			map[string]string{"Idempotency-Key": fmt.Sprintf("job-%d", i)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
		}
		if i == 0 {
			if err := json.Unmarshal(body, &first); err != nil {
				t.Fatal(err)
			}
		}
	}
	resp, body = postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Job: cfg.Trace[0]},
		map[string]string{"Idempotency-Key": "job-0"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replayed submit: %d %s", resp.StatusCode, body)
	}
	var replayed struct {
		SubmitResponse
		Replayed bool `json:"replayed"`
	}
	if err := json.Unmarshal(body, &replayed); err != nil {
		t.Fatal(err)
	}
	if !replayed.Replayed || replayed.SubmitResponse != first {
		t.Fatalf("replayed submit returned %+v, want replay of %+v", replayed, first)
	}

	if resp, body := postJSON(t, ts.URL+"/v1/supply", SupplyRequest{Slot: 10, Watts: 0}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("supply: %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/fault", FaultRequest{Event: faultEvent(20)}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("fault: %d %s", resp.StatusCode, body)
	}

	// A rejected request surfaces as 422, an unknown field as 400.
	if resp, _ := postJSON(t, ts.URL+"/v1/fault", FaultRequest{Event: faultEvent(-5)}, nil); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("invalid fault returned %d, want 422", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/tick", map[string]any{"to": 1, "bogus": true}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field returned %d, want 400", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/v1/init"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on POST route returned %d, want 405", resp.StatusCode)
	}

	var tick TickResponse
	for !tick.Drained {
		resp, body := postJSON(t, ts.URL+"/v1/tick", TickRequest{To: tick.NextSlot + 24}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tick: %d %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &tick); err != nil {
			t.Fatal(err)
		}
	}
	if resp, body := postJSON(t, ts.URL+"/v1/finalize", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("finalize: %d %s", resp.StatusCode, body)
	}

	resp, body = postJSON(t, ts.URL+"/v1/checkpoint", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", resp.StatusCode, body)
	}

	respG, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(respG.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	respG.Body.Close()
	if !st.Finished || !st.Initialized {
		t.Fatalf("status after finalize: %+v", st)
	}
	if st.Decisions == 0 {
		t.Fatal("no decisions counted")
	}

	respG, err = http.Get(ts.URL + "/v1/trace/sha256")
	if err != nil {
		t.Fatal(err)
	}
	var sha map[string]string
	if err := json.NewDecoder(respG.Body).Decode(&sha); err != nil {
		t.Fatal(err)
	}
	respG.Body.Close()
	if len(sha["sha256"]) != 64 {
		t.Fatalf("trace sha endpoint returned %q", sha["sha256"])
	}

	respG, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	mbuf.ReadFrom(respG.Body)
	respG.Body.Close()
	for _, want := range []string{"gmserve_finished 1", "gmserve_decisions_total", "gmserve_queue_capacity"} {
		if !strings.Contains(mbuf.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func faultEvent(at int) fault.Event {
	return fault.Event{Kind: fault.KindPVDerate, At: at, Duration: 10, Magnitude: 0.5}
}

// TestServerLoadShedding fills the bounded ingestion queue while the apply
// loop is held still and requires 429 plus a Retry-After hint on the
// overflow, then releases the gate and requires the queued requests to
// complete.
func TestServerLoadShedding(t *testing.T) {
	r, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(r, ServerOptions{QueueSize: 2, RetryAfter: 3 * time.Second})
	gate := make(chan struct{})
	s.applyGate = gate // set before any request: the queue send orders this write
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// With the apply loop held at the gate, at most 1 in-flight + 2 queued
	// requests can be accepted; of 6 concurrent requests at least 3 must be
	// shed — and shed responses return immediately, without the gate.
	const n = 6
	codes := make([]int, n)
	retryAfter := make([]string, n)
	var wg sync.WaitGroup
	var returned atomic.Int32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/status")
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
			returned.Add(1)
		}(i)
	}
	// Wait for the guaranteed shed responses before opening the gate, so the
	// accepted requests cannot drain the queue under the late senders.
	deadline := time.Now().Add(10 * time.Second)
	for returned.Load() < n-3 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d shed responses arrived", returned.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	var ok, shed int
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if retryAfter[i] != "3" {
				t.Errorf("429 response carried Retry-After %q, want \"3\"", retryAfter[i])
			}
		default:
			t.Errorf("unexpected status %d", c)
		}
	}
	if shed == 0 {
		t.Fatal("no request was shed")
	}
	// Queue cap 2 + 1 in flight at the gate: at most 3 can succeed.
	if ok > 3 {
		t.Fatalf("%d requests succeeded past a full queue of 2", ok)
	}
	if ok+shed != n {
		t.Fatalf("ok %d + shed %d != %d", ok, shed, n)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServerApplyTimeout pins the per-request timeout: a handler gives up
// with 503 when the apply loop stays wedged past RequestTimeout.
func TestServerApplyTimeout(t *testing.T) {
	r, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(r, ServerOptions{RequestTimeout: 50 * time.Millisecond})
	gate := make(chan struct{})
	s.applyGate = gate
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("wedged apply loop returned %d, want 503", resp.StatusCode)
	}
	close(gate)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServerGracefulShutdown pins the SIGTERM path: Shutdown drains the
// queue, checkpoints, and a fresh Open resumes exactly where the server
// stopped with no journal replay needed beyond the checkpoint.
func TestServerGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, dir, ServerOptions{})
	sc := testScenario(602, true)
	if resp, body := postJSON(t, ts.URL+"/v1/init", InitRequest{Scenario: sc, WithTrace: true}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("init: %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/tick", TickRequest{To: 19}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("tick: %d %s", resp.StatusCode, body)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Shutdown checkpointed: recovery needs no replay to stand back up.
	cp, okCP := loadCheckpoint(dir)
	if !okCP {
		t.Fatal("graceful shutdown left no checkpoint")
	}
	r2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	st := r2.Status()
	if st.NextSlot != 20 {
		t.Fatalf("recovered at slot %d, want 20", st.NextSlot)
	}
	if st.AppliedSeq != cp.Seq {
		t.Fatalf("recovery replayed past the shutdown checkpoint: applied %d, checkpoint %d", st.AppliedSeq, cp.Seq)
	}
}

// TestServerSubmitOverHTTPRecovery round-trips a submission-heavy session
// through an HTTP server, kills the backing runner without shutdown, and
// requires the recovered daemon to finish byte-identically to an
// uninterrupted runner fed the same request sequence directly.
func TestServerSubmitOverHTTPRecovery(t *testing.T) {
	sc := testScenario(603, false)
	jobs := []workload.Job{
		{ID: 1, Class: workload.Batch, Submit: 0, Duration: 2, Deadline: 80, CPU: 1},
		{ID: 2, Class: workload.Web, Submit: 1, Duration: 3, Deadline: 4, CPU: 1},
		{ID: 3, Class: workload.Batch, Submit: 5, Duration: 1, Deadline: 90, CPU: 1},
	}

	// Reference: the same session driven through the Runner API, no crash.
	ref, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.Init(InitRequest{Scenario: sc}); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if _, _, err := ref.Submit("", j); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ref.Tick(TickRequest{To: 6}); err != nil {
		t.Fatal(err)
	}
	wantRes, err := ref.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	wantSHA, err := ref.AuditSHA256()
	if err != nil {
		t.Fatal(err)
	}

	// Same sequence over HTTP, killed after the tick.
	dir := t.TempDir()
	s, ts := newTestServer(t, dir, ServerOptions{})
	if resp, body := postJSON(t, ts.URL+"/v1/init", InitRequest{Scenario: sc}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("init: %d %s", resp.StatusCode, body)
	}
	for _, j := range jobs {
		if resp, body := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Job: j}, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: %d %s", j.ID, resp.StatusCode, body)
		}
	}
	if resp, body := postJSON(t, ts.URL+"/v1/tick", TickRequest{To: 6}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("tick: %d %s", resp.StatusCode, body)
	}
	ts.Close()
	kill(s.runner) // SIGKILL: no Shutdown, no checkpoint

	r2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.Status().NextSlot; got != 7 {
		t.Fatalf("recovered at slot %d, want 7", got)
	}
	res, err := r2.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r2.AuditSHA256()
	if err != nil {
		t.Fatal(err)
	}
	if sum != wantSHA {
		t.Fatalf("recovered audit sha %s != uninterrupted %s", sum, wantSHA)
	}
	if resultJSON(t, res) != resultJSON(t, wantRes) {
		t.Fatal("recovered result differs from uninterrupted run")
	}
}

// postRaw posts body verbatim and returns the status code.
func postRaw(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// initServer starts an HTTP server over a fresh state directory and
// initializes it with a small scenario.
func initServer(t *testing.T) *httptest.Server {
	t.Helper()
	_, ts := newTestServer(t, t.TempDir(), ServerOptions{})
	if resp, body := postJSON(t, ts.URL+"/v1/init", InitRequest{Scenario: testScenario(603, false)}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("init: %d %s", resp.StatusCode, body)
	}
	return ts
}

// appliedSeq reads the last applied journal sequence number over HTTP.
func appliedSeq(t *testing.T, ts *httptest.Server) uint64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.AppliedSeq
}

// TestServerRejectsTrailingData pins that a body holds exactly one JSON
// value: anything after it but whitespace is a 400, and the request is not
// applied.
func TestServerRejectsTrailingData(t *testing.T) {
	ts := initServer(t)
	for _, body := range []string{`{"to":3} junk`, `{"to":3}{"to":4}`, `{"to":3} {}`, `{"to":3}]`, `{"to":3} 7`} {
		if code := postRaw(t, ts.URL+"/v1/tick", body); code != http.StatusBadRequest {
			t.Errorf("tick %q returned %d, want 400", body, code)
		}
	}
	if seq := appliedSeq(t, ts); seq != 1 {
		t.Fatalf("refused ticks were journaled: applied seq %d, want 1 (the init)", seq)
	}
	if code := postRaw(t, ts.URL+"/v1/tick", "{\"to\":3} \r\n\t "); code != http.StatusOK {
		t.Fatalf("tick with trailing whitespace returned %d, want 200", code)
	}
	if seq := appliedSeq(t, ts); seq != 2 {
		t.Fatalf("tick with trailing whitespace not journaled: applied seq %d, want 2", seq)
	}
}

// TestServerRejectsOversizedBody pins the request body bound: one byte
// over maxRequestBody is a 413 and is not applied, a body of exactly the
// bound is decoded as usual.
func TestServerRejectsOversizedBody(t *testing.T) {
	ts := initServer(t)
	padded := func(n int) string {
		const head, tail = `{"to":`, `3}`
		return head + strings.Repeat(" ", n-len(head)-len(tail)) + tail
	}
	for _, route := range []string{"/v1/tick", "/v1/jobs", "/v1/supply"} {
		if code := postRaw(t, ts.URL+route, padded(maxRequestBody+1)); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body returned %d, want 413", route, maxRequestBody+1, code)
		}
	}
	if seq := appliedSeq(t, ts); seq != 1 {
		t.Fatalf("oversized requests were journaled: applied seq %d, want 1 (the init)", seq)
	}
	if code := postRaw(t, ts.URL+"/v1/tick", padded(maxRequestBody)); code != http.StatusOK {
		t.Fatalf("tick with a %d-byte body returned %d, want 200", maxRequestBody, code)
	}
	if seq := appliedSeq(t, ts); seq != 2 {
		t.Fatalf("tick with a %d-byte body not journaled: applied seq %d, want 2", maxRequestBody, seq)
	}
}

// TestServerRejectsOversizedInit pins the init resource bounds: on a
// fresh server a scenario past any bound, as written or once Scale is
// applied, is a 422 and leaves the journal empty; a valid init then
// succeeds.
func TestServerRejectsOversizedInit(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), ServerOptions{})
	withScale := func(scale float64, edit func(*scenario.Scenario)) InitRequest {
		sc := testScenario(605, false)
		edit(&sc)
		return InitRequest{Scenario: sc, Scale: scale}
	}
	for _, c := range []struct {
		field string
		req   InitRequest
	}{
		{"nodes", withScale(0, func(sc *scenario.Scenario) { sc.Nodes = maxInitNodes + 1 })},
		{"objects", withScale(0, func(sc *scenario.Scenario) { sc.Objects = maxInitObjects + 1 })},
		{"replicas", withScale(0, func(sc *scenario.Scenario) { sc.Replicas = maxInitReplicas + 1 })},
		{"workload_scale", withScale(0, func(sc *scenario.Scenario) { sc.WorkloadScale = maxInitWorkloadScale * 1.01 })},
		{"supply_slots", withScale(0, func(sc *scenario.Scenario) { sc.SupplySlots = maxInitSupplySlots + 1 })},
		{"turbines", withScale(0, func(sc *scenario.Scenario) { sc.Source, sc.Turbines = "wind", maxInitTurbines+1 })},
		{"reads_per_slot", withScale(0, func(sc *scenario.Scenario) { sc.ReadsPerSlot = maxInitReadsPerSlot * 1.01 })},
		// Within every bound as written, past one once scaled. At a scale
		// of 1e300 the scaled counts overflow int, and where they land
		// depends on the platform, so any bound may be the one that
		// refuses it; the read rate's always does.
		{"nodes", withScale(maxInitNodes, func(*scenario.Scenario) {})},
		{"", withScale(1e300, func(sc *scenario.Scenario) { sc.WorkloadScale = 1e-300 })},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/init", c.req, nil)
		if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "scenario "+c.field) {
			t.Errorf("init past the %s bound at scale %v returned %d %s, want 422 naming it", c.field, c.req.Scale, resp.StatusCode, body)
		}
	}
	if seq := appliedSeq(t, ts); seq != 0 {
		t.Fatalf("refused inits were journaled: applied seq %d", seq)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/init", InitRequest{Scenario: testScenario(605, false)}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid init after refusals: %d %s", resp.StatusCode, body)
	}
	if seq := appliedSeq(t, ts); seq != 1 {
		t.Fatalf("valid init not journaled: applied seq %d, want 1", seq)
	}
}

// TestServerRejectsBadScale: a negative init scale is a 422 that leaves the
// journal empty. A zero scale still means "not given".
func TestServerRejectsBadScale(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), ServerOptions{})
	resp, body := postJSON(t, ts.URL+"/v1/init", InitRequest{Scenario: testScenario(606, false), Scale: -1}, nil)
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "scale must be positive and finite") {
		t.Errorf("init at scale -1 returned %d %s, want 422 naming the scale", resp.StatusCode, body)
	}
	if seq := appliedSeq(t, ts); seq != 0 {
		t.Fatalf("refused init was journaled: applied seq %d", seq)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/init", InitRequest{Scenario: testScenario(606, false)}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("init without a scale: %d %s", resp.StatusCode, body)
	}
}

// TestInitBoundsAdmitShippedScenarios checks that the init bounds admit
// every scenario in scenarios/ at each scale the tests, the chaos harness
// and the benchmark run them at, and at scale 1.
func TestInitBoundsAdmitShippedScenarios(t *testing.T) {
	for _, name := range scenarios.Names() {
		raw, err := scenarios.Bytes(name)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := scenario.Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		for _, scale := range []float64{0, 0.08, 0.25, 1} {
			if err := checkInitBounds(InitRequest{Scenario: sc, Scale: scale}); err != nil {
				t.Errorf("%s at scale %v: %v", name, scale, err)
			}
		}
	}
}

// FuzzHandlers posts arbitrary bodies to the POST routes of a freshly
// initialized server. No body may panic a handler, every answer must be a
// status the API documents, and the server must still answer /v1/status.
// The server is initialized first, so a fuzzed /v1/init is refused before
// it compiles a scenario of arbitrary size.
func FuzzHandlers(f *testing.F) {
	routes := []string{"/v1/init", "/v1/jobs", "/v1/tick", "/v1/fault", "/v1/supply", "/v1/finalize", "/v1/checkpoint"}
	job, err := json.Marshal(SubmitRequest{Job: workload.Job{ID: 7, Class: workload.Batch, Submit: 2, Duration: 2, Deadline: 30, CPU: 1, RAMGB: 1}})
	if err != nil {
		f.Fatal(err)
	}
	fault, err := json.Marshal(FaultRequest{Event: faultEvent(20)})
	if err != nil {
		f.Fatal(err)
	}
	for i, body := range []string{`{"scenario":{}}`, string(job), `{"to":12}`, string(fault), `{"slot":9,"watts":120.5}`, ``, `null`} {
		f.Add(uint8(i), []byte(body))
	}
	for _, body := range []string{``, `{}`, `null`, `[]`, `{"to":3} junk`, `{"to":1e400}`, `{"to":-9}`, `{"job":{"id":-1}}`,
		`{"event":{"kind":"node-crash","at":5,"nodes":[99]}}`, `{"slot":3,"watts":-1}`, `{"to":"3"}`, "\x00", `{"to":3,"to":4}`} {
		f.Add(uint8(2), []byte(body))
		f.Add(uint8(1), []byte(body))
	}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		r, err := Open(t.TempDir(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Init(InitRequest{Scenario: testScenario(604, false)}); err != nil {
			t.Fatal(err)
		}
		s := NewServer(r, ServerOptions{})
		defer func() {
			if err := s.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
		}()
		h := s.Handler()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, routes[int(route)%len(routes)], bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusMethodNotAllowed, http.StatusRequestEntityTooLarge,
			http.StatusUnprocessableEntity, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("%s %q returned %d: %s", routes[int(route)%len(routes)], body, rec.Code, rec.Body)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/status", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/v1/status returned %d after %s %q", rec.Code, routes[int(route)%len(routes)], body)
		}
	})
}
