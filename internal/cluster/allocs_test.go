package cluster

import (
	"runtime"
	"testing"
)

// TestFleetAllocCeilings bounds the heap allocations of one whole fleet
// Run per packet, after a warm-up Run: a clean flow-hashed fleet and a
// least-loaded one with two hostile stuck-at nodes (the fault knobs of the
// fleet degradation study; at 300 packets no node drains yet).
// Each ceiling is the larger of the plain and -race readings plus 4%,
// rounded up to 0.1 (Go 1.24, linux/amd64): a run's count jitters by a few
// allocations, while one more per packet breaches both cells.
func TestFleetAllocCeilings(t *testing.T) {
	for _, c := range []struct {
		name          string
		nodes, faulty int
		dispatch      DispatchPolicy
		ceilingPerPkt float64
	}{
		{"4x-clean-flow", 4, 0, DispatchFlowHash, 3.3},
		{"8x-faulty2-least", 8, 2, DispatchLeastLoaded, 4.1},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{App: "route", Nodes: c.nodes, Packets: 300, Seed: 7,
				Dispatch: c.dispatch, FaultyNodes: c.faulty, FaultyScale: 150, FaultyPreDisable: 0.10,
				Health: HealthConfig{Window: 32, MaxDrains: 1, MaxCycleTime: 0.625}}
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if got := float64(after.Mallocs-before.Mallocs) / float64(cfg.Packets); got > c.ceilingPerPkt {
				t.Errorf("one fleet Run made %.2f heap allocations per packet, ceiling %.1f", got, c.ceilingPerPkt)
			}
		})
	}
}
