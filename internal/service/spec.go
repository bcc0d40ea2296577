// Package service is the clumsyd control plane: a long-lived scheduler
// that runs journaled experiment campaigns on top of the campaign layer
// in internal/experiment. Campaigns are submitted over HTTP (see
// http.go), wait in a bounded queue, and execute under per-campaign
// supervisors with watchdog deadlines and bounded restart-with-resume.
// Every campaign's progress lives in an on-disk journal written through
// internal/atomicio, so a killed daemon re-adopts incomplete campaigns
// on startup and finishes them byte-identically to an uninterrupted run.
package service

import (
	"fmt"
	"io"
	"sort"

	"clumsy/internal/apps"
	"clumsy/internal/clumsy"
	"clumsy/internal/experiment"
)

// Spec describes one campaign submission: which study to run and the
// experiment scale. The zero values of the scale fields mean the
// experiment package defaults. The spec is persisted verbatim (spec.json)
// before the campaign is admitted, so an adopted campaign re-runs under
// exactly the submitted configuration.
type Spec struct {
	// Study names the campaign in the study registry below.
	Study string `json:"study"`
	// App selects the workload for per-app studies (edf, fig6/fig7-style
	// error behaviour, fleet, reliability curve). Empty means the study's
	// default.
	App string `json:"app,omitempty"`

	Packets     int     `json:"packets,omitempty"`
	Trials      int     `json:"trials,omitempty"`
	Seed        uint64  `json:"seed,omitempty"`
	FaultScale  float64 `json:"scale,omitempty"`
	Recovery    string  `json:"recovery,omitempty"` // abort (default), drop, degrade
	MaxDropRate float64 `json:"max_drop_rate,omitempty"`

	// Format selects the rendering: "text" (default) or "csv" for the
	// table studies.
	Format string `json:"format,omitempty"`
}

// Validate checks the spec against the study registry and the recovery
// policy and app names, so a bad submission is rejected at the API
// instead of failing its supervisor later.
func (sp Spec) Validate() error {
	st, ok := studies[sp.Study]
	if !ok {
		return fmt.Errorf("service: unknown study %q (have %v)", sp.Study, StudyNames())
	}
	if sp.Recovery != "" {
		if _, err := clumsy.ParseRecoveryPolicy(sp.Recovery); err != nil {
			return err
		}
	}
	if sp.App != "" {
		if _, err := apps.New(sp.App); err != nil {
			return err
		}
	}
	if st.needsApp && sp.App == "" {
		return fmt.Errorf("service: study %q needs an app", sp.Study)
	}
	if sp.Format != "" && sp.Format != "text" && sp.Format != "csv" {
		return fmt.Errorf("service: unknown format %q (want text or csv)", sp.Format)
	}
	if sp.Packets < 0 || sp.Trials < 0 || sp.FaultScale < 0 || sp.MaxDropRate < 0 {
		return fmt.Errorf("service: negative scale parameter in spec")
	}
	return nil
}

// options maps the spec onto experiment.Options. Context, journal, and
// supervision knobs are filled in by the supervisor per attempt.
func (sp Spec) options() (experiment.Options, error) {
	o := experiment.Options{
		Packets:     sp.Packets,
		Trials:      sp.Trials,
		FaultScale:  sp.FaultScale,
		Seed:        sp.Seed,
		MaxDropRate: sp.MaxDropRate,
	}
	if sp.Recovery != "" {
		pol, err := clumsy.ParseRecoveryPolicy(sp.Recovery)
		if err != nil {
			return o, err
		}
		o.Recovery = pol
	}
	return o, nil
}

// studyFn renders one complete study for the spec into w. table1, fig8,
// reliability, state, fleet and verify render byte for byte what the
// clumsy command of the same name prints at the same scale, so their
// result files are byte-comparable to a batch run. edf and errors have
// no single CLI counterpart: the CLI renders those grids as figure
// panels, while the service titles them "Service EDF grid" and "Service
// error sweep".
type studyFn func(o experiment.Options, sp Spec, w io.Writer) error

// study couples the runner with its registry metadata.
type study struct {
	run      studyFn
	needsApp bool
	help     string
}

// emitTable renders one table in the spec's format.
func emitTable(sp Spec, w io.Writer, t *experiment.Table) error {
	if sp.Format == "csv" {
		return t.RenderCSV(w)
	}
	t.Render(w)
	return nil
}

// emitTables renders a table sequence separated by blank lines, the way
// the CLI prints multi-table studies.
func emitTables(sp Spec, w io.Writer, tables ...*experiment.Table) error {
	for _, t := range tables {
		if err := emitTable(sp, w, t); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// studies is the campaign registry: every study a campaign may name. All
// of them route their grid cells through the journaled campaign layer,
// which is what makes supervised restart and crash adoption safe.
var studies = map[string]study{
	"table1": {help: "application properties and fallibility factors", run: func(o experiment.Options, sp Spec, w io.Writer) error {
		rows, err := experiment.Table1(o)
		if err != nil {
			return err
		}
		return emitTable(sp, w, experiment.Table1Render(rows, o))
	}},
	"fig8": {help: "fatal error probabilities per application", run: func(o experiment.Options, sp Spec, w io.Writer) error {
		rows, err := experiment.Fig8(o)
		if err != nil {
			return err
		}
		return emitTable(sp, w, experiment.Fig8Render(rows, o))
	}},
	"errors": {needsApp: true, help: "per-plane error behaviour sweep for one app (fig6/fig7)", run: func(o experiment.Options, sp Spec, w io.Writer) error {
		sweeps, err := experiment.ErrorBehaviour(sp.App, o)
		if err != nil {
			return err
		}
		return emitTables(sp, w, experiment.ErrorBehaviourRender(sweeps, "Service error sweep", o)...)
	}},
	"edf": {needsApp: true, help: "EDF^2 recovery x operating-point grid for one app", run: func(o experiment.Options, sp Spec, w io.Writer) error {
		r, err := experiment.EDFGrid(sp.App, o)
		if err != nil {
			return err
		}
		return emitTable(sp, w, experiment.EDFRender(r, "Service EDF grid", o))
	}},
	"reliability": {help: "fault regime x recovery policy sweep plus the degradation curve", run: func(o experiment.Options, sp Spec, w io.Writer) error {
		cells, err := experiment.Reliability(o)
		if err != nil {
			return err
		}
		if err := emitTables(sp, w, experiment.ReliabilityRender(cells, o)...); err != nil {
			return err
		}
		app := sp.App
		if app == "" {
			app = "route"
		}
		points, err := experiment.ReliabilityCurve(app, o)
		if err != nil {
			return err
		}
		return emitTable(sp, w, experiment.ReliabilityCurveRender(app, points, o))
	}},
	"fleet": {needsApp: true, help: "fleet degradation study (faulty-node fraction sweep)", run: func(o experiment.Options, sp Spec, w io.Writer) error {
		cells, err := experiment.Fleet(sp.App, o)
		if err != nil {
			return err
		}
		return emitTable(sp, w, experiment.FleetRender(sp.App, cells, o))
	}},
	"state": {help: "state-integrity study for the stateful apps", run: func(o experiment.Options, sp Spec, w io.Writer) error {
		names := experiment.StateApps()
		for i, app := range names {
			cells, err := experiment.StateIntegrity(app, o)
			if err != nil {
				return err
			}
			if err := emitTable(sp, w, experiment.StateIntegrityRender(app, cells, o)); err != nil {
				return err
			}
			if i < len(names)-1 {
				if _, err := fmt.Fprintln(w); err != nil {
					return err
				}
			}
		}
		return nil
	}},
	"verify": {help: "programmatic check of the paper's headline claims", run: func(o experiment.Options, sp Spec, w io.Writer) error {
		claims, err := experiment.VerifyClaims(o)
		if err != nil {
			return err
		}
		if err := emitTable(sp, w, experiment.VerifyRender(claims, o)); err != nil {
			return err
		}
		for _, c := range claims {
			if !c.Pass {
				return fmt.Errorf("claim %q failed", c.Name)
			}
		}
		return nil
	}},
}

// StudyNames lists the registered studies, sorted.
func StudyNames() []string {
	out := make([]string, 0, len(studies))
	for name := range studies {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// StudyHelp returns the one-line description of a registered study.
func StudyHelp(name string) string { return studies[name].help }
