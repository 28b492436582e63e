package runner

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestSweepPreservesSubmissionOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 200
			// A barrier releases the early jobs last, so completion order is
			// roughly the reverse of submission order under real concurrency.
			var started sync.WaitGroup
			if workers >= n {
				started.Add(n)
			}
			jobs := make([]Job, n)
			for i := range jobs {
				i := i
				jobs[i] = Job{
					Label: fmt.Sprintf("job %d", i),
					Run: func() (any, error) {
						if workers >= n {
							started.Done()
							started.Wait()
						}
						return i * i, nil
					},
				}
			}
			outs := Sweep(jobs, Options{Workers: workers})
			if len(outs) != n {
				t.Fatalf("got %d outcomes, want %d", len(outs), n)
			}
			for i, o := range outs {
				if o.Err != nil {
					t.Fatalf("job %d failed: %v", i, o.Err)
				}
				if o.Value.(int) != i*i {
					t.Fatalf("slot %d holds %v, want %d", i, o.Value, i*i)
				}
				if want := fmt.Sprintf("job %d", i); o.Label != want {
					t.Fatalf("slot %d labeled %q, want %q", i, o.Label, want)
				}
			}
		})
	}
}

func TestSweepAggregatesErrorsWithoutFailFast(t *testing.T) {
	boom := errors.New("diverged")
	var ran atomic.Int32
	jobs := []Job{
		{Label: "a", Run: func() (any, error) { ran.Add(1); return 1, nil }},
		{Label: "b", Run: func() (any, error) { ran.Add(1); return nil, boom }},
		{Label: "c", Run: func() (any, error) { ran.Add(1); return 3, nil }},
		{Label: "d", Run: func() (any, error) { ran.Add(1); return nil, boom }},
	}
	outs := Sweep(jobs, Options{Workers: 2})
	if got := ran.Load(); got != 4 {
		t.Fatalf("only %d of 4 jobs ran — sweep must not fail fast", got)
	}
	if outs[0].Err != nil || outs[2].Err != nil {
		t.Fatalf("healthy jobs reported errors: %+v", outs)
	}
	if !errors.Is(outs[1].Err, boom) || !errors.Is(outs[3].Err, boom) {
		t.Fatalf("failed jobs lost their errors: %+v", outs)
	}
	err := Errs(outs)
	if err == nil {
		t.Fatal("Errs returned nil for a failed sweep")
	}
	for _, want := range []string{"2 of", "b: diverged", "d: diverged"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregate error %q missing %q", err, want)
		}
	}
	if Errs(outs[:1]) != nil {
		t.Error("Errs of a clean prefix should be nil")
	}
}

func TestSweepCapturesPanics(t *testing.T) {
	jobs := []Job{
		{Label: "ok", Run: func() (any, error) { return "fine", nil }},
		{Label: "explodes", Run: func() (any, error) { panic("kaboom") }},
		{Label: "nil-run"},
	}
	for _, workers := range []int{1, 3} {
		outs := Sweep(jobs, Options{Workers: workers})
		if outs[0].Err != nil || outs[0].Value != "fine" {
			t.Fatalf("workers=%d: healthy job corrupted: %+v", workers, outs[0])
		}
		var pe *PanicError
		if !errors.As(outs[1].Err, &pe) {
			t.Fatalf("workers=%d: panic not captured as PanicError: %v", workers, outs[1].Err)
		}
		if pe.Value != "kaboom" || pe.Label != "explodes" {
			t.Fatalf("workers=%d: panic details lost: %+v", workers, pe)
		}
		if len(pe.Stack) == 0 || !strings.Contains(pe.Error(), "kaboom") {
			t.Fatalf("workers=%d: panic error lacks stack or value: %v", workers, pe)
		}
		if outs[2].Err == nil {
			t.Fatalf("workers=%d: nil Run not reported", workers)
		}
	}
}

func TestSweepEmpty(t *testing.T) {
	if outs := Sweep(nil, Options{}); len(outs) != 0 {
		t.Fatalf("empty sweep produced outcomes: %v", outs)
	}
}

func TestResolveWorkers(t *testing.T) {
	if got := (Options{Workers: 7}).ResolveWorkers(); got != 7 {
		t.Fatalf("explicit workers: got %d", got)
	}
	if got, want := (Options{}).ResolveWorkers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("default workers: got %d, want GOMAXPROCS %d", got, want)
	}
}
