package telemetry

import (
	"io"
	"testing"
)

// Micro-benchmarks of the instrumentation primitives. The numbers that
// matter: the disabled (nil) trace must be a constant-time no-op with zero
// allocations, counters and histograms must be a single atomic add, and
// the enabled emit path must reuse its scratch buffer rather than
// allocating per event.

func BenchmarkCounterAdd(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}

func BenchmarkDisabledTraceEmit(b *testing.B) {
	var rt *RunTrace // the disabled trace held by uninstrumented runs
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt.FaultInjection("read", 1, uint64(i))
	}
}

func BenchmarkEnabledTraceEmit(b *testing.B) {
	sink := NewJSONLSink(io.Discard)
	tel := New()
	tel.SetSink(sink)
	rt := tel.StartRun(func() float64 { return 1234.5 })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.FaultInjection("read", 1, uint64(i))
	}
}

// TestDisabledTraceNoAllocs asserts (not just reports) that the disabled
// telemetry path allocates nothing: the guarantee that lets the cache hot
// path carry a trace pointer for free.
func TestDisabledTraceNoAllocs(t *testing.T) {
	var rt *RunTrace
	allocs := testing.AllocsPerRun(1000, func() {
		rt.FaultInjection("read", 1, 42)
		rt.Recovery("retry", 1, 42)
		rt.FreqTransition(1, "keep", 1)
	})
	if allocs != 0 {
		t.Fatalf("disabled trace allocated %.1f times per op, want 0", allocs)
	}
}

// TestCounterNoAllocs asserts the counter/histogram fast path is
// allocation-free, since the registry is shared by all parallel workers.
// One measured run of 1000 ops makes the count exact: AllocsPerRun
// truncates its per-run mean, so 1000 runs of one op would pass up to 999
// allocations.
func TestCounterNoAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	h := r.Histogram("y")
	allocs := testing.AllocsPerRun(1, func() {
		for range 1000 {
			c.Inc()
			h.Observe(7)
		}
	})
	if allocs != 0 {
		t.Fatalf("1000 counter and histogram ops allocated %.0f times, want 0", allocs)
	}
}

// TestEnabledTraceSteadyStateNoAllocs asserts the enabled emit path reuses
// its scratch buffer once warm, counting exactly like TestCounterNoAllocs.
func TestEnabledTraceSteadyStateNoAllocs(t *testing.T) {
	sink := NewJSONLSink(io.Discard)
	tel := New()
	tel.SetSink(sink)
	rt := tel.StartRun(func() float64 { return 99 })
	rt.FaultInjection("read", 1, 42) // warm the buffer
	allocs := testing.AllocsPerRun(1, func() {
		for range 1000 {
			rt.FaultInjection("read", 1, 42)
		}
	})
	if allocs != 0 {
		t.Fatalf("1000 enabled trace emits allocated %.0f times after warm-up, want 0", allocs)
	}
}
