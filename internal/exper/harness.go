package exper

import (
	"runtime"
	"sync"

	"opec/internal/apps"
	"opec/internal/mach"
)

// Harness runs the evaluation's experiments over a shared build cache
// with a bounded worker pool. One harness per sweep is the intended
// shape: `opec-bench -exp all` builds a single harness so Table 2 finds
// Figure 9's vanilla and OPEC runs already memoized, Figure 11 finds
// Figure 10's ACES builds, and so on.
//
// Per-app work fans out over the pool, but results are always written
// into index-addressed slots and reassembled in the fixed application
// order, so rendered tables are byte-identical at every parallelism
// level (including 1).
type Harness struct {
	// Cache is the harness's build cache, shared by every experiment
	// method. Exposed so callers can inspect hit behaviour.
	Cache *Cache

	parallel int
	// checks is the check level of every machine the harness runs.
	checks mach.Checks
}

// NewHarness returns a harness with an empty cache running at most
// parallel concurrent per-app jobs; parallel <= 0 selects GOMAXPROCS.
func NewHarness(parallel int) *Harness {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	return &Harness{Cache: NewCache(), parallel: parallel}
}

// Parallel returns the harness's worker limit.
func (h *Harness) Parallel() int { return h.parallel }

// appsFor is AppsFor at the harness's check level.
func (h *Harness) appsFor(s AppSet) []*apps.App {
	list := AppsFor(s)
	for i, app := range list {
		list[i] = app.WithChecks(h.checks)
	}
	return list
}

// forEach runs fn(i) for every i in [0, n) on up to h.parallel workers
// and waits for all of them. All n jobs run even when one fails; the
// returned error is the lowest-index failure, so the reported error is
// the same at every parallelism level.
func (h *Harness) forEach(n int, fn func(i int) error) error {
	p := h.parallel
	if p > n {
		p = n
	}
	errs := make([]error, n)
	if p <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < p; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					errs[i] = fn(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
