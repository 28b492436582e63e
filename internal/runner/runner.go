// Package runner executes embarrassingly-parallel experiment sweeps over a
// bounded worker pool. Every figure and table of the GreenMatch evaluation
// is a grid of independent core.Run invocations — panel-area x policy,
// battery-capacity x defer-fraction, and so on — so fanning the grid out
// across cores is the simulator's primary throughput lever.
//
// The contract is deliberately strict so sweeps stay reproducible:
//
//   - Results come back in submission order, regardless of completion
//     order: each worker writes into an index-addressed slot, so no
//     channel-drain-and-sort step can perturb row ordering.
//   - Errors are aggregated per job, labeled, and never fail-fast: one
//     diverging configuration in a 60-point sweep reports its own error
//     while the other 59 points still complete.
//   - A panicking job is captured (with its stack) and converted into that
//     job's error instead of killing the process.
//
// Worker count resolution: Options.Workers > 0 wins; Workers == 1 runs the
// jobs inline on the calling goroutine (exactly the historical sequential
// behaviour); Workers == 0 uses runtime.GOMAXPROCS(0), which Go's own
// GOMAXPROCS environment variable already throttles.
package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
)

// Job is one point of a sweep.
type Job struct {
	// Label identifies the point in error messages ("E3 cap=40kWh
	// policy=greenmatch"). Optional but strongly recommended.
	Label string
	// Run computes the point's result.
	Run func() (any, error)
}

// Outcome is the result slot of one Job, at the same index.
type Outcome struct {
	// Label echoes the job's label.
	Label string
	// Value is Run's result when Err is nil.
	Value any
	// Err is Run's error, or a *PanicError when the job panicked.
	Err error
}

// PanicError is the error recorded for a job that panicked; it preserves
// the panic value and the worker goroutine's stack.
type PanicError struct {
	// Label is the panicking job's label.
	Label string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at recovery.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %q panicked: %v\n%s", e.Label, e.Value, e.Stack)
}

// Options configures a sweep.
type Options struct {
	// Workers bounds the pool: N > 0 uses N workers, 1 runs inline
	// sequentially, 0 uses GOMAXPROCS(0).
	Workers int
}

// ResolveWorkers returns the effective worker count for the options (always
// at least 1).
func (o Options) ResolveWorkers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Sweep executes the jobs over the worker pool and returns one Outcome per
// job, index-aligned with the input. It never returns early: every job
// runs, and per-job errors (including captured panics) land in their slot.
func Sweep(jobs []Job, opts Options) []Outcome {
	out := make([]Outcome, len(jobs))
	if len(jobs) == 0 {
		return out
	}
	workers := opts.ResolveWorkers()
	if workers > len(jobs) {
		workers = len(jobs)
	}

	// runOne runs one job to completion into its index-addressed slot.
	runOne := func(i int) {
		j := jobs[i]
		o := &out[i]
		o.Label = j.Label
		defer func() {
			if r := recover(); r != nil {
				o.Err = &PanicError{Label: j.Label, Value: r, Stack: debug.Stack()}
			}
		}()
		if j.Run == nil {
			o.Err = fmt.Errorf("runner: job %q has nil Run", j.Label)
			return
		}
		o.Value, o.Err = j.Run()
	}

	if workers == 1 {
		// Inline sequential path: no goroutines, identical to the
		// historical nested-loop execution (and friendlier to profilers).
		for i := range jobs {
			runOne(i)
		}
		return out
	}

	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				runOne(i)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// Errs collects the non-nil errors of a sweep into one error (nil when the
// sweep was clean). Each failed point contributes one line with its label.
func Errs(outs []Outcome) error {
	var lines []string
	for _, o := range outs {
		if o.Err == nil {
			continue
		}
		if o.Label != "" {
			lines = append(lines, fmt.Sprintf("%s: %v", o.Label, o.Err))
		} else {
			lines = append(lines, o.Err.Error())
		}
	}
	if len(lines) == 0 {
		return nil
	}
	return fmt.Errorf("runner: %d of the sweep's points failed:\n  %s",
		len(lines), strings.Join(lines, "\n  "))
}
