package main

import "math"

// metricDef names a reported metric. better is the direction that counts
// as an improvement; exact marks per-layer counts that must repeat
// identically between runs of the same code and seed.
type metricDef struct {
	name, unit, better string
	exact              bool
}

// e2eDefs are the end-to-end metrics, measured with tracing off. Each is
// defined for every workload; README.md gives the per-workload meaning.
var e2eDefs = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "op_p50_ms", unit: "ms", better: "lower"},
	{name: "slots_per_s", unit: "slots/s", better: "higher"},
	{name: "heap_mb", unit: "MB", better: "lower"},
}

// layerDefs are the per-layer metrics of a traced pass, named after the
// repository's modules.
var layerDefs = []metricDef{
	{name: "scenario.compile_ms", unit: "ms", better: "lower"},
	{name: "storage.new_cluster_ms", unit: "ms", better: "lower"},
	{name: "storage.minimal_cover_ms", unit: "ms", better: "lower"},
	{name: "core.new_ms", unit: "ms", better: "lower"},
	{name: "core.slot_us_p50", unit: "us", better: "lower"},
	{name: "core.full_slot_us_p50", unit: "us", better: "lower"},
	{name: "core.fast_slot_ratio", unit: "fraction", better: "higher", exact: true},
	{name: "core.live_step_us_p50", unit: "us", better: "lower"},
	{name: "core.snapshot_ms", unit: "ms", better: "lower"},
	{name: "core.restore_ms", unit: "ms", better: "lower"},
	{name: "sched.plan_calls", unit: "count", better: "lower", exact: true},
	{name: "sched.plan_us_p50", unit: "us", better: "lower"},
	{name: "sched.plan_share", unit: "fraction", better: "lower"},
	{name: "match.cold_solves", unit: "count", better: "lower", exact: true},
	{name: "match.arc_repairs", unit: "count", better: "higher", exact: true},
	{name: "match.memo_hits", unit: "count", better: "higher", exact: true},
	{name: "forecast.predict_us_p50", unit: "us", better: "lower"},
	{name: "serve.op_us_p50", unit: "us", better: "lower"},
	{name: "serve.tick_us_p50", unit: "us", better: "lower"},
	{name: "serve.checkpoint_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.checkpoints", unit: "count", better: "lower", exact: true},
	{name: "serve.checkpoint_kb", unit: "KB", better: "lower", exact: true},
	{name: "serve.journal_append_us_p50", unit: "us", better: "lower"},
	{name: "serve.journal_fsync_us_p50", unit: "us", better: "lower"},
	{name: "serve.write_bytes_per_op", unit: "B", better: "lower", exact: true},
	{name: "serve.journal_scan_ms", unit: "ms", better: "lower"},
	{name: "serve.checkpoint_load_ms", unit: "ms", better: "lower"},
	{name: "serve.replay_entries", unit: "count", better: "lower", exact: true},
	{name: "serve.replay_ms", unit: "ms", better: "lower"},
	{name: "http.handler_us_p50", unit: "us", better: "lower"},
	{name: "http.handler_us_p99", unit: "us", better: "lower"},
	{name: "http.tick_handler_us_p50", unit: "us", better: "lower"},
	{name: "http.queue_wait_us_p50", unit: "us", better: "lower"},
	{name: "loadgen.lag_p99_ms", unit: "ms", better: "lower"},
}

// finite keeps a metric encodable as JSON: a tail that reached a failed
// request (+Inf) reads as the largest float.
func finite(m metric) metric {
	switch {
	case math.IsNaN(m.Value):
		m.Value = 0
	case math.IsInf(m.Value, 1):
		m.Value = math.MaxFloat64
	case math.IsInf(m.Value, -1):
		m.Value = -math.MaxFloat64
	}
	return m
}

// e2e summarizes a pass into the end-to-end metrics, each a median.
func e2e(r *ran) map[string]metric {
	m := map[string]metric{
		"setup_s":     summarize(r.setup, "s", median),
		"op_p50_ms":   summarize(r.lat, "ms", median),
		"slots_per_s": summarize(r.rates, "slots/s", median),
		"heap_mb":     summarize(r.heap, "MB", median),
	}
	for k, v := range m {
		m[k] = finite(v)
	}
	return m
}

// tail reports the operation latency, from the due time where requests
// have one, at the highest percentile that leaves ten samples beyond it.
// It is printed and recorded, not gated.
func tail(r *ran) metric {
	xs := r.wait
	if len(xs) == 0 {
		xs = r.lat
	}
	p := tailPct(len(xs))
	m := summarize(xs, "ms", func(xs []float64) float64 { return percentile(xs, p) })
	m.Pct = p
	return finite(m)
}

// spanSet indexes a traced pass's spans.
type spanSet struct {
	byName map[string][]span
	self   map[uint64]int64
	names  map[uint64]string
}

func indexSpans(spans []span) *spanSet {
	s := &spanSet{byName: map[string][]span{}, self: selfTimes(spans), names: map[uint64]string{}}
	for _, sp := range spans {
		s.byName[sp.Name] = append(s.byName[sp.Name], sp)
		s.names[sp.ID] = sp.Name
	}
	return s
}

// durs returns span durations in units of scale nanoseconds.
func durs(spans []span, scale float64) []float64 {
	out := make([]float64, len(spans))
	for i, sp := range spans {
		out[i] = float64(sp.dur()) / scale
	}
	return out
}

func p50(xs []float64, unit string) metric {
	return metric{Value: median(xs), Unit: unit, N: len(xs)}
}

// opRoutes are the request routes an op sequence uses.
var opRoutes = map[string]bool{"/v1/jobs": true, "/v1/tick": true, "/v1/supply": true}

// layerMetrics derives every per-layer metric from a traced pass's spans,
// its exact counts and its load generator lags.
func layerMetrics(spans []span, c counts, lag []float64) map[string]metric {
	ix := indexSpans(spans)
	m := map[string]metric{}
	msOf := func(name string) metric { return p50(durs(ix.byName[name], 1e6), "ms") }
	usOf := func(name string) metric { return p50(durs(ix.byName[name], 1e3), "us") }

	m["scenario.compile_ms"] = msOf("scenario.compile")
	m["storage.new_cluster_ms"] = msOf("storage.new_cluster")
	m["storage.minimal_cover_ms"] = msOf("storage.minimal_cover")
	m["core.new_ms"] = msOf("core.new")

	// Slots are the Live pass's core.step spans; a slot with a Plan call
	// is a full slot, one without took the fast path.
	steps := ix.byName["core.step"]
	stepIDs := map[uint64]bool{}
	for _, s := range steps {
		stepIDs[s.ID] = true
	}
	planned := map[uint64]bool{}
	var calls, cold, repair, memo int
	var planInRuns, runs float64
	for _, p := range ix.byName["sched.plan"] {
		if stepIDs[p.Parent] {
			planned[p.Parent] = true
			calls++
			cold += attrInt(p, "cold")
			repair += attrInt(p, "repair")
			memo += attrInt(p, "memo")
		}
		if ix.names[p.Parent] == "core.run" {
			planInRuns += float64(p.dur())
		}
	}
	for _, r := range ix.byName["core.run"] {
		runs += float64(r.dur())
	}
	var slotSelf, fullSelf []float64
	for _, s := range steps {
		us := float64(ix.self[s.ID]) / 1e3
		slotSelf = append(slotSelf, us)
		if planned[s.ID] {
			fullSelf = append(fullSelf, us)
		}
	}
	m["core.slot_us_p50"] = p50(slotSelf, "us")
	m["core.full_slot_us_p50"] = p50(fullSelf, "us")
	m["core.fast_slot_ratio"] = metric{Value: c.fastRatio, Unit: "fraction", N: len(steps)}
	m["core.live_step_us_p50"] = usOf("core.step")
	m["core.snapshot_ms"] = msOf("core.snapshot")
	m["core.restore_ms"] = msOf("core.restore")

	m["sched.plan_calls"] = metric{Value: float64(calls), Unit: "count"}
	m["sched.plan_us_p50"] = usOf("sched.plan")
	m["sched.plan_share"] = metric{Value: planInRuns / runs, Unit: "fraction", N: len(ix.byName["core.run"])}
	m["match.cold_solves"] = metric{Value: float64(cold), Unit: "count"}
	m["match.arc_repairs"] = metric{Value: float64(repair), Unit: "count"}
	m["match.memo_hits"] = metric{Value: float64(memo), Unit: "count"}
	m["forecast.predict_us_p50"] = usOf("forecast.predict")

	// Direct Runner calls, indexed by their op for the queue-wait pairing.
	direct := map[int]float64{}
	var opUS []float64
	for _, kind := range []opKind{opSubmit, opTick, opSupply} {
		for _, s := range ix.byName["serve."+kind.String()] {
			us := float64(s.dur()) / 1e3
			opUS = append(opUS, us)
			direct[attrInt(s, "op")] = us
		}
	}
	m["serve.op_us_p50"] = p50(opUS, "us")
	m["serve.tick_us_p50"] = usOf("serve.tick")
	m["serve.checkpoint_ms_p50"] = msOf("serve.checkpoint")
	m["serve.checkpoints"] = metric{Value: float64(len(c.checkpointKB)), Unit: "count"}
	m["serve.checkpoint_kb"] = p50(c.checkpointKB, "KB")
	var off, on []float64
	for _, s := range ix.byName["serve.journal_append"] {
		if s.Attrs["fsync"] == true {
			on = append(on, float64(s.dur())/1e3)
		} else {
			off = append(off, float64(s.dur())/1e3)
		}
	}
	m["serve.journal_append_us_p50"] = p50(off, "us")
	m["serve.journal_fsync_us_p50"] = metric{Value: median(on) - median(off), Unit: "us", N: len(on)}
	m["serve.write_bytes_per_op"] = metric{Value: c.writePerOp, Unit: "B"}
	m["serve.journal_scan_ms"] = msOf("serve.journal_scan")
	m["serve.checkpoint_load_ms"] = msOf("serve.checkpoint_load")
	m["serve.replay_entries"] = metric{Value: float64(c.replayEntries), Unit: "count"}
	m["serve.replay_ms"] = msOf("serve.replay")

	// Handler spans of op requests. Queue wait pairs each with the direct
	// call of the same op, skipping ops at which the service checkpoints.
	var handler, ticks, wait []float64
	for _, s := range ix.byName["http.handler"] {
		route, _ := s.Attrs["route"].(string)
		op := attrInt(s, "op")
		if !opRoutes[route] || op < 0 {
			continue
		}
		us := float64(s.dur()) / 1e3
		handler = append(handler, us)
		if route == "/v1/tick" {
			ticks = append(ticks, us)
		}
		if d, ok := direct[op]; ok && opSeq(op)%checkpointEvery != 0 {
			wait = append(wait, us-d)
		}
	}
	m["http.handler_us_p50"] = p50(handler, "us")
	m["http.handler_us_p99"] = metric{Value: percentile(handler, 99), Unit: "us", N: len(handler), Pct: 99}
	m["http.tick_handler_us_p50"] = p50(ticks, "us")
	m["http.queue_wait_us_p50"] = p50(wait, "us")
	m["loadgen.lag_p99_ms"] = metric{Value: percentile(lag, 99), Unit: "ms", N: len(lag), Pct: 99}
	for k, v := range m {
		m[k] = finite(v)
	}
	return m
}
