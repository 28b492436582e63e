package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// ServerOptions configure the HTTP layer.
type ServerOptions struct {
	// QueueSize bounds the ingestion queue (default 64). A full queue sheds
	// load: requests are rejected with 429 and a Retry-After header instead
	// of stacking up goroutines in front of the apply loop.
	QueueSize int
	// RequestTimeout bounds how long a handler waits for the apply loop
	// before giving up with 503 (default 30s). Ticks get TickTimeout
	// (default 5m) — advancing many slots is legitimately slow.
	RequestTimeout time.Duration
	TickTimeout    time.Duration
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.QueueSize <= 0 {
		o.QueueSize = 64
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.TickTimeout <= 0 {
		o.TickTimeout = 5 * time.Minute
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	return o
}

// op is one queued mutation: a closure the apply loop runs against the
// runner, plus the channel its result comes back on.
type op struct {
	run  func(*Runner) (any, error)
	done chan opResult
}

type opResult struct {
	v   any
	err error
}

// Server is the HTTP front of a Runner. All mutations funnel through one
// bounded queue drained by a single apply goroutine, which serializes
// journal writes and scheduler steps without locks; reads (status, probes,
// metrics) take the same path so they observe consistent state.
type Server struct {
	runner *Runner
	opts   ServerOptions
	queue  chan op
	// applyGate, when non-nil, is received from before each op — a test
	// hook that holds the apply loop still while a test fills the queue to
	// provoke load shedding deterministically.
	applyGate chan struct{}
	done      chan struct{} // apply loop exited
}

// NewServer wraps a runner. Call Serve (or wire Handler into an
// http.Server) and Shutdown when done.
func NewServer(r *Runner, opts ServerOptions) *Server {
	s := &Server{
		runner: r,
		opts:   opts.withDefaults(),
		done:   make(chan struct{}),
	}
	s.queue = make(chan op, s.opts.QueueSize)
	go s.applyLoop()
	return s
}

func (s *Server) applyLoop() {
	defer close(s.done)
	for o := range s.queue {
		if s.applyGate != nil {
			<-s.applyGate
		}
		v, err := o.run(s.runner)
		o.done <- opResult{v: v, err: err}
	}
}

// Shutdown drains the queue, closes the runner (final checkpoint, audit
// flush) and returns. The HTTP listener must already be stopped — gmserve
// stops it first, then calls Shutdown, so every accepted request is
// applied and durable before exit.
func (s *Server) Shutdown(ctx context.Context) error {
	close(s.queue)
	select {
	case <-s.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	return s.runner.Close()
}

// enqueue submits an op to the apply loop, shedding load when the queue is
// full, and waits up to timeout for the result.
func (s *Server) enqueue(w http.ResponseWriter, timeout time.Duration, run func(*Runner) (any, error)) (any, bool) {
	o := op{run: run, done: make(chan opResult, 1)}
	select {
	case s.queue <- o:
	default:
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(s.opts.RetryAfter.Seconds())))
		http.Error(w, "ingestion queue full", http.StatusTooManyRequests)
		return nil, false
	}
	// An explicit timer stopped on return: under go 1.22 a time.After
	// timer and its channel stay live until it fires, one per request.
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res := <-o.done:
		if res.err != nil {
			http.Error(w, res.err.Error(), http.StatusUnprocessableEntity)
			return nil, false
		}
		return res.v, true
	case <-timer.C:
		http.Error(w, "apply loop timeout", http.StatusServiceUnavailable)
		return nil, false
	}
}

// writeJSON answers 200 with the JSON encoding of v. It encodes into a
// buffer first, so a value JSON cannot encode (a NaN or infinite float) is
// a 500 instead of a 200 with an empty body.
func writeJSON(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		http.Error(w, "serve: encode response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = buf.WriteTo(w)
}

// maxRequestBody bounds a request body; a larger one is refused with 413.
const maxRequestBody = 1 << 20

// decodeJSON decodes a request body holding exactly one JSON value,
// answering 413 for a body over maxRequestBody and 400 for anything else it
// refuses, data after the value included.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		var extra json.RawMessage
		if err = dec.Decode(&extra); err == io.EOF {
			return true
		}
		if err == nil {
			err = errors.New("data after the JSON value")
		}
	}
	if tooBig := new(http.MaxBytesError); errors.As(err, &tooBig) {
		http.Error(w, fmt.Sprintf("request body over %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
		return false
	}
	http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
	return false
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/init", s.post(s.handleInit))
	mux.HandleFunc("/v1/jobs", s.post(s.handleJobs))
	mux.HandleFunc("/v1/tick", s.post(s.handleTick))
	mux.HandleFunc("/v1/fault", s.post(s.handleFault))
	mux.HandleFunc("/v1/supply", s.post(s.handleSupply))
	mux.HandleFunc("/v1/finalize", s.post(s.handleFinalize))
	mux.HandleFunc("/v1/checkpoint", s.post(s.handleCheckpoint))
	mux.HandleFunc("/v1/status", s.handleStatus)
	mux.HandleFunc("/v1/trace/sha256", s.handleTraceSHA)
	return mux
}

func (s *Server) post(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

// handleReadyz reports readiness: the apply loop is reachable (a probe op
// round-trips) and recovery has completed, which Open guarantees before
// the server exists.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	_, ok := s.enqueue(w, s.opts.RequestTimeout, func(r *Runner) (any, error) {
		return r.Status(), nil
	})
	if !ok {
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ready\n"))
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	v, ok := s.enqueue(w, s.opts.RequestTimeout, func(r *Runner) (any, error) {
		return r.Status(), nil
	})
	if ok {
		writeJSON(w, v)
	}
}

// handleMetrics renders the Prometheus-style text exposition of the
// service gauges — the live counterpart of the audit layer's Prom sink.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	v, ok := s.enqueue(w, s.opts.RequestTimeout, func(r *Runner) (any, error) {
		return r.Status(), nil
	})
	if !ok {
		return
	}
	st := v.(Status)
	b := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	var sb strings.Builder
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	gauge("gmserve_initialized", "Whether the scheduler is initialized.", b(st.Initialized))
	gauge("gmserve_finished", "Whether the run is finalized.", b(st.Finished))
	gauge("gmserve_next_slot", "Next slot to execute.", float64(st.NextSlot))
	gauge("gmserve_applied_seq", "Last applied journal sequence number.", float64(st.AppliedSeq))
	gauge("gmserve_jobs_waiting", "Deferrable jobs waiting.", float64(st.Waiting))
	gauge("gmserve_jobs_mandatory", "Mandatory jobs queued.", float64(st.Mandatory))
	gauge("gmserve_jobs_running", "Jobs running.", float64(st.Running))
	gauge("gmserve_battery_soc", "Battery state of charge.", st.BatterySoC)
	gauge("gmserve_decisions_total", "Slot placement decisions made.", float64(st.Decisions))
	gauge("gmserve_queue_depth", "Ingestion queue depth.", float64(len(s.queue)))
	gauge("gmserve_queue_capacity", "Ingestion queue capacity.", float64(cap(s.queue)))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write([]byte(sb.String()))
}

func (s *Server) handleInit(w http.ResponseWriter, r *http.Request) {
	var req InitRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	_, ok := s.enqueue(w, s.opts.RequestTimeout, func(rn *Runner) (any, error) {
		return nil, rn.Init(req)
	})
	if ok {
		writeJSON(w, map[string]bool{"ok": true})
	}
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	key := r.Header.Get("Idempotency-Key")
	v, ok := s.enqueue(w, s.opts.RequestTimeout, func(rn *Runner) (any, error) {
		resp, replayed, err := rn.Submit(key, req.Job)
		if err != nil {
			return nil, err
		}
		return struct {
			SubmitResponse
			Replayed bool `json:"replayed,omitempty"`
		}{resp, replayed}, nil
	})
	if ok {
		writeJSON(w, v)
	}
}

func (s *Server) handleTick(w http.ResponseWriter, r *http.Request) {
	var req TickRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	v, ok := s.enqueue(w, s.opts.TickTimeout, func(rn *Runner) (any, error) {
		return rn.Tick(req)
	})
	if ok {
		writeJSON(w, v)
	}
}

func (s *Server) handleFault(w http.ResponseWriter, r *http.Request) {
	var req FaultRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	_, ok := s.enqueue(w, s.opts.RequestTimeout, func(rn *Runner) (any, error) {
		return nil, rn.Fault(req)
	})
	if ok {
		writeJSON(w, map[string]bool{"ok": true})
	}
}

func (s *Server) handleSupply(w http.ResponseWriter, r *http.Request) {
	var req SupplyRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	_, ok := s.enqueue(w, s.opts.RequestTimeout, func(rn *Runner) (any, error) {
		return nil, rn.Supply(req)
	})
	if ok {
		writeJSON(w, map[string]bool{"ok": true})
	}
}

func (s *Server) handleFinalize(w http.ResponseWriter, r *http.Request) {
	v, ok := s.enqueue(w, s.opts.TickTimeout, func(rn *Runner) (any, error) {
		return rn.Finalize()
	})
	if ok {
		writeJSON(w, v)
	}
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	_, ok := s.enqueue(w, s.opts.RequestTimeout, func(rn *Runner) (any, error) {
		return nil, rn.Checkpoint()
	})
	if ok {
		writeJSON(w, map[string]bool{"ok": true})
	}
}

func (s *Server) handleTraceSHA(w http.ResponseWriter, _ *http.Request) {
	v, ok := s.enqueue(w, s.opts.RequestTimeout, func(rn *Runner) (any, error) {
		sum, err := rn.AuditSHA256()
		if err != nil {
			return nil, err
		}
		return map[string]string{"sha256": sum}, nil
	})
	if ok {
		writeJSON(w, v)
	}
}
