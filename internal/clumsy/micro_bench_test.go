package clumsy

import (
	"testing"

	"clumsy/internal/apps"
	"clumsy/internal/cache"
	"clumsy/internal/packet"
)

// BenchmarkRunRoute measures the end-to-end simulation rate: a full
// golden+clumsy pair over a 500-packet route workload per iteration.
func BenchmarkRunRoute(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{App: "route", Packets: 500, Seed: uint64(i + 1),
			CycleTime: 0.5, FaultScale: 25})
		if err != nil {
			b.Fatal(err)
		}
		if res.Report.GoldenPackets != 500 {
			b.Fatal("short run")
		}
	}
}

// BenchmarkNewCheckpoint measures taking the drop policy's restore point
// of the simulated space right after the route control plane has built
// its tables, as newMachine does before the first packet. Only resident
// pages are copied, and the write-back caches still hold most of what
// Setup stored.
func BenchmarkNewCheckpoint(b *testing.B) {
	app, err := apps.New("route")
	if err != nil {
		b.Fatal(err)
	}
	trace, err := packet.Generate(app.TraceConfig(500, 7))
	if err != nil {
		b.Fatal(err)
	}
	m, err := newMachine(Config{App: "route", Seed: 7, Detection: cache.DetectionParity, Strikes: 2},
		trace, nil, 0, placeFresh, nil)
	if err != nil {
		b.Fatal(err)
	}
	space := m.h.Space
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		space.NewCheckpoint().Release()
	}
	b.ReportMetric(float64(space.ResidentPages()), "resident_pages")
}
