package clumsy

import (
	"runtime"
	"testing"
)

// TestOnePacketRunFixedCost guards the fixed per-run cost: a 1-packet route
// run under drop builds two simulated spaces, a checkpoint of the faulty
// one and the cache hierarchies, and with lazily materialised pages it
// allocates about 1 MB. Eagerly zeroed spaces and a full-space shadow cost
// about 29 MB, so a return to them fails the 4 MB bound.
func TestOnePacketRunFixedCost(t *testing.T) {
	cfg := Config{App: "route", Packets: 1, Seed: 7, CycleTime: 0.5, FaultScale: 25, Recovery: RecoverDrop}
	if _, err := Run(cfg); err != nil { // warm process-wide caches
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const bound = 4e6 // bytes
	if got := after.TotalAlloc - before.TotalAlloc; got >= bound {
		t.Errorf("1-packet route Run under drop allocated %.2f MB, want < %.0f MB", float64(got)/1e6, bound/1e6)
	} else {
		t.Logf("1-packet route Run under drop allocated %.2f MB", float64(got)/1e6)
	}
}
