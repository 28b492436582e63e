package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/forecast"
	"repro/internal/match"
	"repro/internal/sched"
	"repro/internal/solar"
	"repro/internal/units"
)

// A span is one timed call at a layer boundary. Parent is the span that
// caused it; Req is the request id a client span and the handler span it
// caused share through the reqHeader header.
type span struct {
	ID     uint64         `json:"id"`
	Parent uint64         `json:"parent,omitempty"`
	Req    uint64         `json:"req,omitempty"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// Request headers the client sets so the handler span can name its cause.
const (
	reqHeader = "X-Bench-Req"
	opHeader  = "X-Bench-Op"
)

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pass nil and pay one nil check per
// call site.
type recorder struct {
	base time.Time

	mu    sync.Mutex
	next  uint64
	spans []span

	// cur is the span the policy and forecaster decorators hang their
	// spans under. Only the goroutine stepping the simulator touches it.
	cur uint64
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) newID() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// begin starts a span; end records it.
func (r *recorder) begin(name string, parent uint64) span {
	if r == nil {
		return span{}
	}
	return span{ID: r.newID(), Parent: parent, Name: name, Start: int64(time.Since(r.base))}
}

func (r *recorder) end(s span) {
	if r == nil {
		return
	}
	s.End = int64(time.Since(r.base))
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// setCur makes id the parent of the decorators' next spans.
func (r *recorder) setCur(id uint64) {
	if r != nil {
		r.cur = id
	}
}

func (r *recorder) len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover.
func selfTimes(spans []span) map[uint64]int64 {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// tracedPolicy times every Plan call and records which solver tiers it
// used. It forwards QuiescentDecision through tracedQuiescent when the
// wrapped policy has one, so the simulator's fast path stays engaged.
type tracedPolicy struct {
	inner sched.Policy
	rec   *recorder
}

type tracedQuiescent struct{ tracedPolicy }

func tracePolicy(p sched.Policy, rec *recorder) sched.Policy {
	tp := tracedPolicy{inner: p, rec: rec}
	if _, ok := p.(sched.QuiescentPlanner); ok {
		return tracedQuiescent{tp}
	}
	return tp
}

func (p tracedPolicy) Name() string { return p.inner.Name() }

func (p tracedPolicy) Plan(v sched.View) sched.Decision {
	var before match.SolverStats
	if v.Scratch != nil {
		before = v.Scratch.SolverStats()
	}
	s := p.rec.begin("sched.plan", p.rec.cur)
	d := p.inner.Plan(v)
	p.rec.end(withTiers(s, before, v.Scratch))
	return d
}

// withTiers attaches the solver tier counts a Plan call added.
func withTiers(s span, before match.SolverStats, sc *sched.PlanScratch) span {
	if sc == nil {
		return s
	}
	after := sc.SolverStats()
	s.Attrs = map[string]any{
		"cold":   after.ColdSolves - before.ColdSolves,
		"repair": after.ArcRepairs - before.ArcRepairs,
		"memo":   after.MemoHits - before.MemoHits,
	}
	return s
}

func (p tracedQuiescent) QuiescentDecision() sched.Decision {
	return p.inner.(sched.QuiescentPlanner).QuiescentDecision()
}

// tracedForecaster times every prediction, forwarding PredictInto through
// tracedInto when the wrapped forecaster has it, so the simulator keeps
// its allocation-free path.
type tracedForecaster struct {
	inner forecast.Forecaster
	rec   *recorder
}

type tracedInto struct{ tracedForecaster }

func traceForecaster(f forecast.Forecaster, rec *recorder) forecast.Forecaster {
	tf := tracedForecaster{inner: f, rec: rec}
	if _, ok := f.(forecast.IntoPredictor); ok {
		return tracedInto{tf}
	}
	return tf
}

func (f tracedForecaster) Name() string { return f.inner.Name() }

func (f tracedForecaster) Predict(actual solar.Provider, now, horizon int) []units.Power {
	s := f.rec.begin("forecast.predict", f.rec.cur)
	p := f.inner.Predict(actual, now, horizon)
	f.rec.end(s)
	return p
}

func (f tracedInto) PredictInto(dst []units.Power, actual solar.Provider, now, horizon int) []units.Power {
	s := f.rec.begin("forecast.predict", f.rec.cur)
	p := f.inner.(forecast.IntoPredictor).PredictInto(dst, actual, now, horizon)
	f.rec.end(s)
	return p
}

// statusWriter remembers the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// traceHandler records one http.handler span per request, parented to the
// client span named by the request's reqHeader.
func traceHandler(h http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		op, err := strconv.Atoi(r.Header.Get(opHeader))
		if err != nil {
			op = -1
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		s := rec.begin("http.handler", req)
		s.Req = req
		h.ServeHTTP(sw, r)
		s.Attrs = map[string]any{"route": r.URL.Path, "status": sw.code, "op": op}
		rec.end(s)
	})
}

// attrInt reads an integer attribute.
func attrInt(s span, key string) int {
	v, _ := s.Attrs[key].(int)
	return v
}

// ledgerRow aggregates the spans of one name.
type ledgerRow struct {
	name        string
	n           int
	total, self int64
	selfP50     float64
}

// ledger groups spans by name, largest self time first.
func ledger(spans []span) []ledgerRow {
	self := selfTimes(spans)
	rows := map[string]*ledgerRow{}
	selfs := map[string][]float64{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &ledgerRow{name: s.Name}
			rows[s.Name] = r
		}
		r.n++
		r.total += s.dur()
		r.self += self[s.ID]
		selfs[s.Name] = append(selfs[s.Name], float64(self[s.ID]))
	}
	out := make([]ledgerRow, 0, len(rows))
	for name, r := range rows {
		r.selfP50 = median(selfs[name])
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}

func formatLedger(rows []ledgerRow) string {
	s := fmt.Sprintf("  %-22s %8s %12s %12s %12s\n", "span", "n", "total ms", "self ms", "self p50 us")
	for _, r := range rows {
		s += fmt.Sprintf("  %-22s %8d %12.2f %12.2f %12.2f\n", r.name, r.n,
			float64(r.total)/1e6, float64(r.self)/1e6, r.selfP50/1e3)
	}
	return s
}
