package core

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/workload"
)

// tinyConfig returns a quick scenario small enough for short-mode race
// runs yet still exercising spin-down, consolidation, the battery and the
// read model.
func tinyConfig(t testing.TB) Config {
	cfg := referenceConfig(t)
	cl := storage.DefaultConfig()
	cl.Nodes = 4
	cl.Objects = 120
	cfg.Cluster = cl
	gen := workload.Scaled(0.05)
	cfg.Trace = genTrace(t, gen)
	cfg.Green = referenceSupply(t, 10)
	cfg.ReadsPerSlot = 10
	cfg.BatteryCapacityWh = 2000
	cfg.Policy = sched.GreenMatch{}
	return cfg
}

// TestConcurrentRunsShareNothing runs many simulations of the SAME Config
// value concurrently and asserts every run reproduces the sequential
// result. It runs in short mode on purpose: together with the race
// detector it is the tier-1 guard for the concurrency contract documented
// on Run ("a Config may be shared across concurrent Runs; Run never
// mutates it").
//
// The live case shares one Config whose Trace has spare capacity among
// live schedulers that each Submit a different extra job: the arrival
// queue starts as the trace itself, so a submission that appended in
// place would write into the shared backing array.
func TestConcurrentRunsShareNothing(t *testing.T) {
	const parallel = 8
	race := func(t *testing.T, want func(i int) *Result, got func(i int) (*Result, error)) {
		results := make([]*Result, parallel)
		errs := make([]error, parallel)
		var wg sync.WaitGroup
		wg.Add(parallel)
		for i := 0; i < parallel; i++ {
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = got(i)
			}(i)
		}
		wg.Wait()
		for i := 0; i < parallel; i++ {
			if errs[i] != nil {
				t.Fatalf("concurrent run %d failed: %v", i, errs[i])
			}
			if w := want(i); !reflect.DeepEqual(results[i], w) {
				t.Errorf("concurrent run %d diverged from its sequential result:\n got %+v\nwant %+v",
					i, results[i], w)
			}
		}
	}

	t.Run("run", func(t *testing.T) {
		cfg := tinyConfig(t)
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		race(t, func(int) *Result { return want }, func(int) (*Result, error) { return Run(cfg) })
	})

	t.Run("live", func(t *testing.T) {
		cfg := tinyConfig(t)
		last := cfg.Trace[len(cfg.Trace)-1]
		extra := func(i int) workload.Job {
			return workload.Job{
				ID: last.ID + 1 + i, Class: workload.Batch,
				Submit: last.Submit + 1 + i, Duration: 1 + i, Deadline: last.Submit + 40, CPU: 1, RAMGB: 1,
			}
		}
		live := func(cfg Config, j workload.Job) (*Result, error) {
			l, err := NewLive(cfg)
			if err != nil {
				return nil, err
			}
			if err := l.Submit(j); err != nil {
				return nil, err
			}
			return l.Finalize()
		}
		want := make([]*Result, parallel)
		for i := range want {
			solo := cfg
			solo.Trace = slices.Clone(cfg.Trace)
			res, err := live(solo, extra(i))
			if err != nil {
				t.Fatal(err)
			}
			want[i] = res
		}
		shared := cfg
		shared.Trace = slices.Grow(slices.Clone(cfg.Trace), parallel)
		race(t, func(i int) *Result { return want[i] }, func(i int) (*Result, error) { return live(shared, extra(i)) })
		if !slices.Equal(shared.Trace, cfg.Trace) {
			t.Fatal("live submissions wrote into the shared trace")
		}
	})
}

// TestConcurrentRunsMixedPolicies races distinct configs (different
// policies sharing the same Trace and Green series) to catch read-only
// violations on the shared substrate slices.
func TestConcurrentRunsMixedPolicies(t *testing.T) {
	base := tinyConfig(t)
	pols := []sched.Policy{
		sched.Baseline{}, sched.SpinDown{},
		sched.DeferFraction{Fraction: 0.5}, sched.GreenMatch{},
	}

	run := func() []*Result {
		out := make([]*Result, len(pols))
		var wg sync.WaitGroup
		wg.Add(len(pols))
		for i, pol := range pols {
			go func(i int, pol sched.Policy) {
				defer wg.Done()
				cfg := base
				cfg.Policy = pol
				res, err := Run(cfg)
				if err != nil {
					t.Errorf("policy %s: %v", pol.Name(), err)
					return
				}
				out[i] = res
			}(i, pol)
		}
		wg.Wait()
		return out
	}

	first := run()
	second := run()
	for i := range pols {
		if first[i] == nil || second[i] == nil {
			continue // already reported
		}
		if !reflect.DeepEqual(first[i], second[i]) {
			t.Errorf("policy %s: repeated concurrent runs disagree", pols[i].Name())
		}
	}
}
