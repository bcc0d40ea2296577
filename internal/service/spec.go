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
	"maps"
	"slices"

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
	// Study names the campaign's entry of the study table
	// (experiment.Studies).
	Study string `json:"study"`
	// App selects the workload of a per-app study (edf, errors, fleet,
	// the reliability curve, the extensions, ...). Empty means the study's
	// default app; edf and errors have none.
	App string `json:"app,omitempty"`

	Packets     int     `json:"packets,omitempty"`
	Trials      int     `json:"trials,omitempty"`
	Seed        uint64  `json:"seed,omitempty"`
	FaultScale  float64 `json:"scale,omitempty"`
	Recovery    string  `json:"recovery,omitempty"` // abort (default), drop, degrade
	MaxDropRate float64 `json:"max_drop_rate,omitempty"`

	// Format selects the rendering: "text" (default) or "csv".
	Format string `json:"format,omitempty"`
}

// Validate checks the spec against the study table and the recovery
// policy and app names, so a bad submission is rejected at the API
// instead of failing its supervisor later.
func (sp Spec) Validate() error {
	if _, _, err := sp.study(); err != nil {
		return err
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

// studies is the service's view of the experiment package's study table:
// every study a campaign may name. Tests add synthetic entries to it.
var studies = func() map[string]experiment.Study {
	m := map[string]experiment.Study{}
	for _, st := range experiment.Studies() {
		m[st.Name] = st
	}
	return m
}()

// study looks the spec's study up and applies its app rule.
func (sp Spec) study() (st experiment.Study, app string, err error) {
	st, ok := studies[sp.Study]
	if !ok {
		return st, "", fmt.Errorf("service: unknown study %q (have %v)", sp.Study, slices.Sorted(maps.Keys(studies)))
	}
	app, err = st.ResolveApp(sp.App)
	if err != nil {
		return st, "", fmt.Errorf("service: %w", err)
	}
	return st, app, nil
}
