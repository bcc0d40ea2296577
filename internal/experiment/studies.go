package experiment

import (
	"fmt"
	"io"
	"slices"
)

// Study is one entry of the study table: a named part of the paper's
// evaluation, or of its extensions, computed and rendered.
type Study struct {
	Name string
	Help string // one line
	// App is the study's app rule: the application it studies when the
	// caller names none, AppRequired when the caller must name one, or ""
	// when it studies no single application.
	App string
	// Run computes the study of app under o and writes its rendering to
	// w: CSV when format is "csv", aligned text otherwise.
	Run func(o Options, app, format string, w io.Writer) error
}

// AppRequired is the App rule of a study without a default application.
const AppRequired = "(required)"

// ResolveApp applies the study's app rule to the app a caller named, ""
// for none.
func (s Study) ResolveApp(app string) (string, error) {
	if app != "" {
		return app, nil
	}
	if s.App == AppRequired {
		return "", fmt.Errorf("study %q needs an app", s.Name)
	}
	return s.App, nil
}

// Studies returns the study table in the order `clumsy list` prints it.
// It is the one mapping from a study's name to its computation and
// rendering: each study command of cmd/clumsy runs its entry, and clumsyd
// serves every entry as a campaign, so a study is added once, here. Every
// simulation-backed entry routes its grid cells through the journaled
// campaign layer, which is what makes supervised restart and crash
// adoption safe.
func Studies() []Study {
	return []Study{
		{"fig1b", "voltage swing vs cycle time (circuit model)", "", figure(Fig1b)},
		{"fig2b", "SRAM noise-immunity curves", "", figure(Fig2b)},
		{"fig3", "switching-combination noise distribution", "", figure(Fig3)},
		{"fig4", "fault probability vs voltage swing", "", figure(Fig4)},
		{"fig5", "fault probability vs cycle time + fitted formula (Eq. 4)", "", figure(Fig5)},
		{"table1", "application properties and fallibility factors", "", tableStudy(Table1, Table1Render)},
		{"fig6", "route error probabilities (control/data/both planes)", "route", errorSweep("Figure 6")},
		{"fig7", "nat error probabilities (control/data/both planes)", "nat", errorSweep("Figure 7")},
		{"fig8", "fatal error probabilities per application", "", tableStudy(Fig8, Fig8Render)},
		{"fig9", "EDF^2 panels: route, crc", "", edfFigure(9)},
		{"fig10", "EDF^2 panels: md5, tl", "", edfFigure(10)},
		{"fig11", "EDF^2 panels: drr, nat", "", edfFigure(11)},
		{"fig12", "EDF^2 panels: url, average of all applications", "", edfFigure(12)},
		{"all", "everything above in paper order, closed by the verify table", "", all},
		{"verify", "check the paper's headline claims programmatically (exit 1 on failure)", "", verify(true)},
		{"ecc", "extension: SEC-DED error correction vs parity vs no detection", "route", appStudy(ExtDetection, ExtDetectionRender)},
		{"subblock", "extension: sub-block (per-word) recovery vs full-line invalidation", "route", appStudy(ExtSubBlock, ExtSubBlockRender)},
		{"exponents", "extension: sensitivity of the winner to the EDF metric weights", "route", appStudy(ExtExponents, ExtExponentsRender)},
		{"dvs", "extension: conventional voltage scaling vs clumsy over-clocking", "route", appStudy(ExtDVS, ExtDVSRender)},
		{"geometry", "extension: L1 data cache size ablation", "route", appStudy(ExtGeometry, ExtGeometryRender)},
		{"tuning", "extension: dynamic-controller threshold study (the paper's X1/X2 choice)", "route", appStudy(ExtTuning, ExtTuningRender)},
		{"media", "extension: the claim beyond networking, an EDF grid for an IMA ADPCM codec", "", media},
		{"extensions", "all seven extension studies", "route", extensions},
		{"reliability", "fault regime x recovery policy sweep over every application, plus the graceful-degradation curve for -app", "route", reliability},
		{"fleet", "fleet degradation study (faulty-node fraction sweep)", "route", appStudy(Fleet, FleetRender)},
		{"state", "state-integrity study for the stateful apps (fw, flowtrack): regime x scrub interval x workload shape", "", state},
		{"edf", "EDF^2 recovery x operating-point grid for one app", AppRequired, edf},
		{"errors", "per-plane error behaviour sweep for one app (fig6/fig7)", AppRequired, errorSweep("Service error sweep")},
	}
}

// LookupStudy finds a study of the table by name.
func LookupStudy(name string) (Study, bool) {
	for _, s := range Studies() {
		if s.Name == name {
			return s, true
		}
	}
	return Study{}, false
}

// RunStudy runs the named study of the table for app ("" for the study's
// default) and writes its rendering in format to w.
func RunStudy(name string, o Options, app, format string, w io.Writer) error {
	s, ok := LookupStudy(name)
	if !ok {
		return fmt.Errorf("unknown study %q", name)
	}
	app, err := s.ResolveApp(app)
	if err != nil {
		return err
	}
	return s.Run(o, app, format, w)
}

// emit renders one table or figure in format.
func emit(w io.Writer, format string, r interface {
	Render(io.Writer)
	RenderCSV(io.Writer) error
}) error {
	if format == "csv" {
		return r.RenderCSV(w)
	}
	r.Render(w)
	return nil
}

// emitEach renders tables, each followed by a blank line.
func emitEach(w io.Writer, format string, tables []*Table) error {
	for _, t := range tables {
		if err := emit(w, format, t); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// figure renders one circuit-model figure.
func figure(fig func() *Figure) func(Options, string, string, io.Writer) error {
	return func(_ Options, _, format string, w io.Writer) error { return emit(w, format, fig()) }
}

// tableStudy runs a whole-evaluation study and renders its table.
func tableStudy[T any](compute func(Options) (T, error), render func(T, Options) *Table) func(Options, string, string, io.Writer) error {
	return func(o Options, _, format string, w io.Writer) error {
		v, err := compute(o)
		if err != nil {
			return err
		}
		return emit(w, format, render(v, o))
	}
}

// appStudy runs a study of one application and renders its table.
func appStudy[T any](compute func(string, Options) (T, error), render func(string, T, Options) *Table) func(Options, string, string, io.Writer) error {
	return func(o Options, app, format string, w io.Writer) error {
		v, err := compute(app, o)
		if err != nil {
			return err
		}
		return emit(w, format, render(app, v, o))
	}
}

// errorSweep renders the per-plane error sweep of one application, one
// table per plane, under label.
func errorSweep(label string) func(Options, string, string, io.Writer) error {
	return func(o Options, app, format string, w io.Writer) error {
		sweeps, err := ErrorBehaviour(app, o)
		if err != nil {
			return err
		}
		return emitEach(w, format, ErrorBehaviourRender(sweeps, label, o))
	}
}

// edfPanels lays the EDF^2 grids out as the paper's Figures 9–12, two
// panels each; "average" is the mean over the paper's applications.
var edfPanels = [][2]string{{"route", "crc"}, {"md5", "tl"}, {"drr", "nat"}, {"url", "average"}}

// edfPanel names panel i of an EDF^2 figure, e.g. "Figure 9(b)".
func edfPanel(fig, i int) string { return fmt.Sprintf("Figure %d(%c)", fig, 'a'+i) }

// edfResult computes the EDF^2 grid of one figure panel.
func edfResult(app string, o Options) (*EDFResult, error) {
	if app != "average" {
		return EDFGrid(app, o)
	}
	results, err := AllEDF(o)
	if err != nil {
		return nil, err
	}
	return results[len(results)-1], nil
}

// edfFigure renders one EDF^2 figure, a panel per application.
func edfFigure(fig int) func(Options, string, string, io.Writer) error {
	return func(o Options, _, format string, w io.Writer) error {
		for i, app := range edfPanels[fig-9] {
			r, err := edfResult(app, o)
			if err != nil {
				return err
			}
			if err := emit(w, format, EDFRender(r, edfPanel(fig, i), o)); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	}
}

// edf renders the EDF^2 grid of one application.
func edf(o Options, app, format string, w io.Writer) error {
	r, err := EDFGrid(app, o)
	if err != nil {
		return err
	}
	return emit(w, format, EDFRender(r, "Service EDF grid", o))
}

// media runs the EDF grid of the IMA ADPCM extension workload: the paper
// notes its ideas apply "to any type of processor that executes
// applications with fault resiliency (e.g., media processors)".
func media(o Options, _, format string, w io.Writer) error {
	r, err := EDFGrid("adpcm", o)
	if err != nil {
		return err
	}
	return emit(w, format, EDFRender(r, "Extension: media processor (adpcm)", o))
}

// verify renders the claims table. strict fails the study on a failed
// claim, as the verify study does; all only renders the verdict.
func verify(strict bool) func(Options, string, string, io.Writer) error {
	return func(o Options, _, format string, w io.Writer) error {
		claims, err := VerifyClaims(o)
		if err != nil {
			return err
		}
		if err := emit(w, format, VerifyRender(claims, o)); err != nil {
			return err
		}
		for _, c := range claims {
			if strict && !c.Pass {
				return fmt.Errorf("claim %q failed", c.Name)
			}
		}
		return nil
	}
}

// all is the whole paper campaign in paper order, closed by the claims
// verdict. One AllEDF pass computes the EDF^2 grids of Figures 9–12.
func all(o Options, _, format string, w io.Writer) error {
	for _, name := range []string{"fig1b", "fig2b", "fig3", "fig4", "fig5", "table1", "fig6", "fig7", "fig8"} {
		if err := RunStudy(name, o, "", format, w); err != nil {
			return err
		}
		if name != "fig6" && name != "fig7" { // their sweeps end in a blank line
			fmt.Fprintln(w)
		}
	}
	results, err := AllEDF(o)
	if err != nil {
		return err
	}
	for _, r := range results {
		for fi, panels := range edfPanels {
			if i := slices.Index(panels[:], r.App); i >= 0 {
				if err := emit(w, format, EDFRender(r, edfPanel(9+fi, i), o)); err != nil {
					return err
				}
				fmt.Fprintln(w)
			}
		}
	}
	return verify(false)(o, "", format, w)
}

// extensions runs the seven extension studies of one application.
func extensions(o Options, app, format string, w io.Writer) error {
	for _, name := range []string{"ecc", "subblock", "exponents", "dvs", "geometry", "tuning", "media"} {
		if err := RunStudy(name, o, app, format, w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// reliability runs the fault regime x recovery policy sweep, then the
// graceful-degradation curve of one application.
func reliability(o Options, app, format string, w io.Writer) error {
	cells, err := Reliability(o)
	if err != nil {
		return err
	}
	if err := emitEach(w, format, ReliabilityRender(cells, o)); err != nil {
		return err
	}
	return appStudy(ReliabilityCurve, ReliabilityCurveRender)(o, app, format, w)
}

// state runs the state-integrity study: flow-table corruption detection
// and recovery for each stateful app.
func state(o Options, _, format string, w io.Writer) error {
	for i, app := range StateApps() {
		cells, err := StateIntegrity(app, o)
		if err != nil {
			return err
		}
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := emit(w, format, StateIntegrityRender(app, cells, o)); err != nil {
			return err
		}
	}
	return nil
}
