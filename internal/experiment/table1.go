package experiment

import (
	"fmt"

	"clumsy/internal/apps"
	"clumsy/internal/clumsy"
	"clumsy/internal/stats"
)

// Table1Row is the per-application summary of Table I.
type Table1Row struct {
	App              string
	InstrsM          float64 // instructions simulated, millions
	CacheAccessesM   float64 // L1D accesses, millions
	MissRate         float64 // L1D miss rate
	FallibilityC50   float64 // fallibility factor at Cr = 0.5
	FallibilityC50CI float64
	FallibilityC25   float64 // fallibility factor at Cr = 0.25
	FallibilityC25CI float64
}

// Table1 reproduces Table I: workload properties from the golden run and
// fallibility factors at Cr = 0.5 and 0.25 (no detection, faults in both
// planes, averaged over trials). Each application is one campaign cell:
// journaled for resume and deadline-guarded.
func Table1(o Options) ([]Table1Row, error) {
	o = o.withDefaults()
	names := apps.Names()
	rows := make([]Table1Row, len(names))
	err := parallelFor(o, len(names), func(ai int) error {
		name := names[ai]
		return runCell(o, "table1", ai, name, &rows[ai], func() (Table1Row, error) {
			row := Table1Row{App: name}
			for _, cr := range []float64{0.5, 0.25} {
				var fall stats.Sample
				for trial := 0; trial < o.Trials; trial++ {
					res, err := o.run(clumsy.Config{
						App:        name,
						Packets:    o.Packets,
						Seed:       o.trialSeed(trial),
						CycleTime:  cr,
						FaultScale: o.FaultScale,
					})
					if err != nil {
						return row, fmt.Errorf("table1 %s cr=%v: %w", name, cr, err)
					}
					fall.Add(res.Fallibility())
					if cr == 0.5 && trial == 0 {
						row.InstrsM = float64(res.GoldenInstrs) / 1e6
						row.CacheAccessesM = float64(res.GoldenL1DStats.Accesses()) / 1e6
						row.MissRate = res.GoldenL1DStats.MissRate()
					}
				}
				if cr == 0.5 {
					row.FallibilityC50 = fall.Mean()
					row.FallibilityC50CI = fall.CI95()
				} else {
					row.FallibilityC25 = fall.Mean()
					row.FallibilityC25CI = fall.CI95()
				}
			}
			return row, nil
		})
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Table1Render formats the rows like the paper's Table I.
func Table1Render(rows []Table1Row, o Options) *Table {
	o = o.withDefaults()
	t := &Table{
		Title: "Table I: networking applications and their properties",
		Header: []string{"App", "Instr [M]", "Cache acc [M]", "Miss rate [%]",
			"Fallibility Cr=0.5", "Fallibility Cr=0.25"},
		Notes: []string{
			fmt.Sprintf("%d packets/run, %d trials, fault scale %g, no detection, faults in both planes",
				o.Packets, o.Trials, o.FaultScale),
		},
	}
	for _, r := range rows {
		t.AddRow(r.App,
			fmt.Sprintf("%.2f", r.InstrsM),
			fmt.Sprintf("%.2f", r.CacheAccessesM),
			fmt.Sprintf("%.1f", r.MissRate*100),
			fmt.Sprintf("%.3f±%.3f", r.FallibilityC50, r.FallibilityC50CI),
			fmt.Sprintf("%.3f±%.3f", r.FallibilityC25, r.FallibilityC25CI))
	}
	return t
}
