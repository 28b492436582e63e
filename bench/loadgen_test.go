package main

import (
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"
)

func TestScheduleIsSeedDeterministic(t *testing.T) {
	in, err := weekInputs(1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	ops := arrivalOps(in.cfg.Trace, nil, nil)
	a := schedule(ops, slotWindow, rand.New(rand.NewSource(7)))
	b := schedule(ops, slotWindow, rand.New(rand.NewSource(7)))
	c := schedule(ops, slotWindow, rand.New(rand.NewSource(8)))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// Within each window, requests come due in its first 90% and in order;
	// the tick closing the window comes due at its end.
	var window time.Duration
	var prev time.Duration
	for i, o := range a {
		if o.due < prev {
			t.Fatalf("op %d due at %v before op %d at %v", i, o.due, i-1, prev)
		}
		prev = o.due
		if o.kind == opTick {
			window += slotWindow
			if o.due != window {
				t.Fatalf("tick %d due at %v, want the window end %v", i, o.due, window)
			}
			continue
		}
		if o.due < window || o.due >= window+slotWindow*9/10 {
			t.Fatalf("op %d due at %v, outside the first 90%% of window [%v, %v)", i, o.due, window, window+slotWindow)
		}
	}
}

func TestArrivalOpsSubmitAhead(t *testing.T) {
	in, err := weekInputs(6, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	ops := arrivalOps(in.cfg.Trace, nil, nil)
	submitted, lastTick, latest := 0, -1, -1
	for i, o := range ops {
		switch o.kind {
		case opSubmit:
			submitted++
			if o.job.Submit <= lastTick {
				t.Fatalf("op %d submits a job for slot %d after the tick to %d", i, o.job.Submit, lastTick)
			}
			latest = max(latest, o.job.Submit)
		case opTick:
			if o.slot <= lastTick {
				t.Fatalf("op %d ticks to %d, not past %d", i, o.slot, lastTick)
			}
			lastTick = o.slot
			// Until the last tick, a later arrival is always already in,
			// so the live run cannot drain between arrivals.
			if i < len(ops)-1 && latest <= o.slot {
				t.Fatalf("op %d ticks to %d with no arrival beyond it submitted", i, o.slot)
			}
		}
	}
	if submitted != len(in.cfg.Trace) {
		t.Fatalf("submitted %d of %d jobs", submitted, len(in.cfg.Trace))
	}
}

func submits(n int, every time.Duration) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind: opSubmit, due: time.Duration(i) * every}
	}
	return ops
}

func TestLatencyCountsAStallFromTheDueTime(t *testing.T) {
	const stalled, stall, every = 2, 50 * time.Millisecond, 5 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(opHeader) == strconv.Itoa(stalled) {
			time.Sleep(stall)
		}
		_, _ = w.Write([]byte("{}"))
	}))
	defer srv.Close()
	c := newClient(srv.URL, nil)
	defer c.close()
	ops := submits(16, every)
	outs := replay(c, ops, true)
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("op %d: %v", i, o.err)
		}
	}
	if outs[stalled].lat < stall {
		t.Errorf("the stalled request took %v, want at least %v", outs[stalled].lat, stall)
	}
	// Every request that came due during the stall waited for its end.
	stallEnd := ops[stalled].due + stall
	for i := stalled + 1; i < len(ops) && ops[i].due < stallEnd; i++ {
		if want := stallEnd - ops[i].due; outs[i].lat < want {
			t.Errorf("op %d due %v into the stall reads %v, want at least %v", i, ops[i].due-ops[stalled].due, outs[i].lat, want)
		}
	}
	if outs[0].lat > stall/2 {
		t.Errorf("a request before the stall reads %v", outs[0].lat)
	}
}

func TestRefusedRequestsReadInfinite(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(opHeader) == "1" {
			http.Error(w, "ingestion queue full", http.StatusTooManyRequests)
			return
		}
		_, _ = w.Write([]byte("{}"))
	}))
	defer srv.Close()
	c := newClient(srv.URL, nil)
	defer c.close()
	outs := replay(c, submits(3, 0), false)
	var f failures
	var lat []float64
	for _, o := range outs {
		f.op(o.err)
		lat = append(lat, o.latMS())
	}
	if f.attempted != 3 || f.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 3 and 1", f.attempted, f.failed)
	}
	if !math.IsInf(lat[1], 1) || math.IsInf(lat[0], 0) {
		t.Fatalf("latencies %v: want only the refused request at +Inf", lat)
	}
	if !math.IsInf(percentile(lat, 99), 1) {
		t.Fatal("the refused request does not reach the tail")
	}
}
