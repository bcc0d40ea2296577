package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"clumsy/internal/telemetry"
)

func TestParallelForVisitsEveryIndex(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	const n = 100
	var hits [n]int32
	if err := parallelFor(Options{}, n, func(i int) error {
		atomic.AddInt32(&hits[i], 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestParallelForPropagatesError(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	boom := errors.New("boom")
	err := parallelFor(Options{}, 50, func(i int) error {
		if i == 17 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestParallelForSerialFallback(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	order := []int{}
	if err := parallelFor(Options{}, 5, func(i int) error {
		order = append(order, i) // safe: serial path
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial path out of order: %v", order)
		}
	}
}

func TestParallelForZero(t *testing.T) {
	if err := parallelFor(Options{}, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal("zero-length loop should not invoke fn")
	}
}

// TestParallelForEarlyCancel is the regression test for the early-cancel
// behaviour: after the first error, the feeder must stop issuing new work
// instead of draining the full grid. The old implementation executed all n
// items; the fixed one runs at most a few items per worker.
func TestParallelForEarlyCancel(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	const n = 1000
	boom := errors.New("boom")
	errored := make(chan struct{})
	var calls atomic.Int32
	err := parallelFor(Options{}, n, func(i int) error {
		calls.Add(1)
		if i == 0 {
			close(errored)
			return boom
		}
		// Park the other workers until the failure has fired so the test
		// observes cancellation rather than a fast grid finishing first.
		<-errored
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if got := calls.Load(); got > n/2 {
		t.Fatalf("executed %d of %d items after the first error; early-cancel is not working", got, n)
	}
}

// TestParallelForPanicRecovery is the regression test for worker panic
// containment: a panic inside one grid item must surface as an error naming
// the item's index, not crash the process, on both the parallel and the
// serial path.
func TestParallelForPanicRecovery(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	err := parallelFor(Options{}, 50, func(i int) error {
		if i == 23 {
			panic("index out of range [12] with length 4")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panicking item must fail the grid")
	}
	if !strings.Contains(err.Error(), "grid item 23") ||
		!strings.Contains(err.Error(), "index out of range") {
		t.Fatalf("panic error must carry the grid index and cause: %v", err)
	}

	runtime.GOMAXPROCS(1)
	err = parallelFor(Options{}, 3, func(i int) error {
		if i == 1 {
			panic("serial boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "grid item 1") {
		t.Fatalf("serial path must contain panics too: %v", err)
	}
}

// TestParallelForMonitor checks that the installed grid monitor observes
// every run, keeps consistent progress, and feeds the registry — with the
// monitor shared by concurrent workers (exercised under -race).
func TestParallelForMonitor(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	reg := telemetry.NewRegistry()
	var events atomic.Int32
	mon := &telemetry.RunMonitor{Registry: reg}
	mon.OnProgress = func(p telemetry.Progress) {
		events.Add(1)
		if p.Done < 1 || p.Done > p.Total {
			t.Errorf("inconsistent progress: %d/%d", p.Done, p.Total)
		}
	}

	const n = 64
	if err := parallelFor(Options{Monitor: mon}, n, func(i int) error {
		time.Sleep(50 * time.Microsecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := events.Load(); got != n {
		t.Fatalf("OnProgress fired %d times, want %d", got, n)
	}
	p := mon.Progress()
	if p.Done != n || p.Total != n {
		t.Fatalf("final progress %d/%d, want %d/%d", p.Done, p.Total, n, n)
	}
	if p.Busy <= 0 || p.AvgRun <= 0 {
		t.Fatalf("busy/avg not recorded: %+v", p)
	}
	if got := reg.Counter("experiment.runs").Load(); got != n {
		t.Fatalf("experiment.runs = %d, want %d", got, n)
	}
	if got := reg.Histogram("experiment.run_ms").Count(); got != n {
		t.Fatalf("experiment.run_ms count = %d, want %d", got, n)
	}
}

// TestParallelForJoinsDistinctErrors: the grid error must name every
// distinct failing cell (deduplicated, bounded), not just the first.
func TestParallelForJoinsDistinctErrors(t *testing.T) {
	old := runtime.GOMAXPROCS(1) // serial path keeps the failure set deterministic
	defer runtime.GOMAXPROCS(old)
	errA := errors.New("cell 3: disk full")
	err := parallelFor(Options{}, 10, func(i int) error {
		if i == 3 {
			return errA
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v", err)
	}

	// Parallel path: workers that fail concurrently each contribute one
	// distinct message; duplicates collapse.
	runtime.GOMAXPROCS(4)
	start := make(chan struct{})
	err = parallelFor(Options{}, 4, func(i int) error {
		if i == 0 {
			close(start)
		}
		<-start
		if i%2 == 0 {
			return errors.New("same failure")
		}
		return fmt.Errorf("distinct failure %d", i)
	})
	if err == nil {
		t.Fatal("failing grid returned nil")
	}
	if n := strings.Count(err.Error(), "same failure"); n > 1 {
		t.Fatalf("duplicate messages not collapsed: %v", err)
	}
}

// TestParallelForCancelledContext: a cancelled campaign context stops the
// grid and surfaces as the context error, and every item that did not run
// is counted as skipped, so Done+Skipped reaches n. With one worker the set
// of never-run items is deterministic.
func TestParallelForCancelledContext(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	const n = 100
	var calls atomic.Int32
	cancelAtThird := func(cancel context.CancelFunc) func(int) error {
		calls.Store(0)
		return func(int) error {
			if calls.Add(1) == 3 {
				cancel()
			}
			return nil
		}
	}

	mon := &telemetry.RunMonitor{}
	ctx, cancel := context.WithCancel(context.Background())
	err := parallelFor(Options{Ctx: ctx, Monitor: mon}, n, cancelAtThird(cancel))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("one worker executed %d items after cancellation at the 3rd, want exactly 3", got)
	}
	if p := mon.Progress(); p.Done != 3 || p.Skipped != n-3 {
		t.Fatalf("monitor counted %d done, %d skipped, want 3 and %d", p.Done, p.Skipped, n-3)
	}

	// Four workers: cancellation still stops the grid early and returns the
	// context error. Which items are drained and which are never issued is
	// scheduling-dependent, but every item is counted one way or the other.
	runtime.GOMAXPROCS(4)
	mon = &telemetry.RunMonitor{}
	var last telemetry.Progress
	mon.OnProgress = func(p telemetry.Progress) { last = p }
	ctx, cancel = context.WithCancel(context.Background())
	err = parallelFor(Options{Ctx: ctx, Monitor: mon}, n, cancelAtThird(cancel))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel err = %v, want context.Canceled", err)
	}
	if got := calls.Load(); got >= n {
		t.Fatalf("all %d items ran despite cancellation", got)
	}
	p := mon.Progress()
	if p.Done != int(calls.Load()) || p.Done+p.Skipped != n {
		t.Fatalf("monitor counted %d done + %d skipped after %d runs, want %d in all",
			p.Done, p.Skipped, calls.Load(), n)
	}
	if last.Done+last.Skipped != n {
		t.Fatalf("last progress report %d+%d of %d: a progress line would never close",
			last.Done, last.Skipped, n)
	}
}
