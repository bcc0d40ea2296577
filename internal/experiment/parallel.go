package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// maxJoinedErrors bounds how many distinct cell failures a grid reports.
// A campaign log should show every failing cell, but a systemic failure
// (disk full, bad build) would otherwise repeat one message hundreds of
// times.
const maxJoinedErrors = 8

// parallelFor runs fn(0..n-1) across GOMAXPROCS workers (one worker is
// the serial case: items run in index order). Every simulation run is
// self-contained (its own simulated memory, RNG streams, and recorder), so
// experiment grids parallelise trivially; results must be written to
// index-distinct slots by fn. o.Monitor, when set, observes every item.
//
// The first error — or o's context becoming done — cancels the grid
// promptly: no new indices are issued, and items already queued to a
// worker are drained without running. Every item that does not run, drained
// or never issued, is counted as skipped, so the monitor's Done+Skipped
// reaches n. At most one in-flight item per worker executes after the
// failure. The returned error joins every distinct cell failure observed
// before the grid stopped, capped at maxJoinedErrors, so one campaign log
// names every failing cell instead of only the first.
func parallelFor(o Options, n int, fn func(i int) error) error {
	mon := o.Monitor
	workers := min(runtime.GOMAXPROCS(0), n)
	// stop is done once the grid fails or o's context is done.
	stop, cancel := context.WithCancel(o.ctx())
	defer cancel()
	// A panic in one grid cell (an application bug surfaced by an unusual
	// seed, or a simulator defect) must not unwind a worker goroutine and
	// crash the whole campaign: it is converted into an error carrying the
	// grid index, and cancels the grid like any other failure.
	runItem := func(i int) (err error) {
		start := time.Now() //lint:wallclock-ok — wall-clock run timing for the progress monitor
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("experiment: panic in grid item %d: %v", i, r)
			}
			mon.RunDone(time.Since(start)) //lint:wallclock-ok — reporting only, never feeds simulated state
		}()
		return fn(i)
	}
	mon.Begin(n, workers)

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
		seen = map[string]bool{}
	)
	fail := func(err error) {
		mu.Lock()
		cancel()
		// Deduplicate by message: a systemic failure hits many cells with
		// the same text, and repeating it drowns the distinct ones.
		if msg := err.Error(); len(errs) < maxJoinedErrors && !seen[msg] {
			seen[msg] = true
			errs = append(errs, err)
		}
		mu.Unlock()
	}
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if stop.Err() != nil {
					mon.RunSkipped(1) // drained without running
					continue
				}
				if err := runItem(i); err != nil {
					fail(err)
				}
			}
		}()
	}
	i := 0
feed:
	for ; i < n; i++ {
		select {
		case next <- i:
		case <-stop.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	mon.RunSkipped(n - i) // never issued
	if err := o.ctx().Err(); len(errs) == 0 && err != nil {
		return err
	}
	return errors.Join(errs...)
}
