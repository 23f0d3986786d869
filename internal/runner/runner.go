// Package runner provides a parallel execution engine for independent
// simulation replicas. Each job builds and runs its own sim.Sim, so jobs
// share no state: workers claim job numbers from one atomic counter and
// write only their own jobs' result slots.
//
// The contract that makes parallel sweeps safe to trust:
//
//   - deterministic results: results are indexed by job number, so the
//     output is identical regardless of worker count or interleaving;
//   - deterministic errors: job failures are reported in job order, not
//     completion order;
//   - panic isolation: a panicking job is captured as a *PanicError with
//     its stack and does not take down the other workers.
package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Options configures a Map call.
type Options struct {
	// Workers is the number of worker goroutines; <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// OnProgress, when non-nil, is called after every completed job with
	// the number done so far and the total. Calls are serialised.
	OnProgress func(done, total int)
}

// PanicError wraps a panic recovered from a job.
type PanicError struct {
	Job   int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %d panicked: %v", e.Job, e.Value)
}

// workers resolves the worker count.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn for every job index in [0, n) across a pool of workers that
// each claim the next unclaimed job until none is left, so a slow job holds
// up only its own worker. It returns the results in job order. The returned
// error is nil only if every job succeeded; otherwise it reports the
// failures in job order (a panicking fn surfaces as a *PanicError, other
// jobs keep running).
func Map[T any](n int, opts Options, fn func(job int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	if n <= 0 {
		return results, nil
	}
	nw := min(opts.workers(), n)

	var next, done atomic.Int64
	var progressMu sync.Mutex
	report := func() {
		if opts.OnProgress == nil {
			done.Add(1)
			return
		}
		// Count under the lock, so the serialised calls see done rise by
		// one each and the last call reports n.
		progressMu.Lock()
		defer progressMu.Unlock()
		opts.OnProgress(int(done.Add(1)), n)
	}

	runJob := func(j int) {
		defer func() {
			if r := recover(); r != nil {
				errs[j] = &PanicError{Job: j, Value: r, Stack: debug.Stack()}
			}
			report()
		}()
		results[j], errs[j] = fn(j)
	}

	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= n {
					return
				}
				runJob(j)
			}
		}()
	}
	wg.Wait()

	var first error
	nerr := 0
	for _, err := range errs {
		if err != nil {
			if first == nil {
				first = err
			}
			nerr++
		}
	}
	if first != nil {
		if nerr > 1 {
			return results, fmt.Errorf("%d of %d jobs failed; first: %w", nerr, n, first)
		}
		return results, first
	}
	return results, nil
}
