package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// updateStudyDigests rewrites testdata/study_digests.json from the current
// code instead of checking against it:
//
//	go test ./internal/experiment -run TestStudyOutputsPinned -update
var updateStudyDigests = flag.Bool("update", false, "rewrite testdata/study_digests.json")

const studyDigestsFile = "testdata/study_digests.json"

// lockOptions is the reduced scale of the behaviour lock: large enough
// that every study exercises its whole grid, small enough that all of
// them run in seconds.
func lockOptions() Options { return Options{Packets: 40, Trials: 1, Seed: 7} }

// lockedStudies renders every simulation-backed study the way the CLI and
// the campaign service do. Each entry's rendered text is pinned by
// sha256, so a change that moves any number of any study fails the lock.
var lockedStudies = []struct {
	name string
	run  func(o Options, w *bytes.Buffer) error
}{
	{"table1", func(o Options, w *bytes.Buffer) error {
		rows, err := Table1(o)
		if err == nil {
			Table1Render(rows, o).Render(w)
		}
		return err
	}},
	{"errors-route", func(o Options, w *bytes.Buffer) error { return renderErrors("route", "Figure 6", o, w) }},
	{"errors-nat", func(o Options, w *bytes.Buffer) error { return renderErrors("nat", "Figure 7", o, w) }},
	{"fig8", func(o Options, w *bytes.Buffer) error {
		rows, err := Fig8(o)
		if err == nil {
			Fig8Render(rows, o).Render(w)
		}
		return err
	}},
	{"edf", func(o Options, w *bytes.Buffer) error {
		results, err := AllEDF(o)
		for _, r := range results {
			EDFRender(r, "EDF "+r.App, o).Render(w)
		}
		return err
	}},
	{"ext-detection", func(o Options, w *bytes.Buffer) error {
		cells, err := ExtDetection("route", o)
		if err == nil {
			ExtDetectionRender("route", cells, o).Render(w)
		}
		return err
	}},
	{"ext-subblock", func(o Options, w *bytes.Buffer) error {
		cells, err := ExtSubBlock("route", o)
		if err == nil {
			ExtSubBlockRender("route", cells, o).Render(w)
		}
		return err
	}},
	{"ext-exponents", func(o Options, w *bytes.Buffer) error {
		rows, err := ExtExponents("route", o)
		if err == nil {
			ExtExponentsRender("route", rows, o).Render(w)
		}
		return err
	}},
	{"ext-geometry", func(o Options, w *bytes.Buffer) error {
		cells, err := ExtGeometry("route", o)
		if err == nil {
			ExtGeometryRender("route", cells, o).Render(w)
		}
		return err
	}},
	{"ext-tuning", func(o Options, w *bytes.Buffer) error {
		cells, err := ExtTuning("route", o)
		if err == nil {
			ExtTuningRender("route", cells, o).Render(w)
		}
		return err
	}},
	{"ext-dvs", func(o Options, w *bytes.Buffer) error {
		rows, err := ExtDVS("route", o)
		if err == nil {
			ExtDVSRender("route", rows, o).Render(w)
		}
		return err
	}},
	{"reliability", func(o Options, w *bytes.Buffer) error {
		cells, err := Reliability(o)
		if err != nil {
			return err
		}
		for _, t := range ReliabilityRender(cells, o) {
			t.Render(w)
		}
		points, err := ReliabilityCurve("route", o)
		if err == nil {
			ReliabilityCurveRender("route", points, o).Render(w)
		}
		return err
	}},
	{"state", func(o Options, w *bytes.Buffer) error {
		for _, app := range StateApps() {
			cells, err := StateIntegrity(app, o)
			if err != nil {
				return err
			}
			StateIntegrityRender(app, cells, o).Render(w)
		}
		return nil
	}},
	{"fleet", func(o Options, w *bytes.Buffer) error {
		cells, err := Fleet("route", o)
		if err == nil {
			FleetRender("route", cells, o).Render(w)
		}
		return err
	}},
	{"verify", func(o Options, w *bytes.Buffer) error {
		claims, err := VerifyClaims(o)
		if err == nil {
			VerifyRender(claims, o).Render(w)
		}
		return err
	}},
}

func renderErrors(app, label string, o Options, w *bytes.Buffer) error {
	sweeps, err := ErrorBehaviour(app, o)
	for _, t := range ErrorBehaviourRender(sweeps, label, o) {
		t.Render(w)
	}
	return err
}

// TestStudyOutputsPinned is the behaviour lock of the study layer: the
// sha256 of every study's rendered output at seed 7, 40 packets x 1 trial
// must equal the committed digest. A refactor or optimisation of the
// simulator or the study grids that changes any rendered number fails
// here, naming the study; regenerate the digests only for an intended
// change of results, with -update.
func TestStudyOutputsPinned(t *testing.T) {
	got := map[string]string{}
	for _, s := range lockedStudies {
		var buf bytes.Buffer
		if err := s.run(lockOptions(), &buf); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got[s.name] = hex.EncodeToString(sum[:])
	}
	if *updateStudyDigests {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(studyDigestsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(studyDigestsFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), studyDigestsFile)
		return
	}
	b, err := os.ReadFile(studyDigestsFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", studyDigestsFile, err)
	}
	for _, s := range lockedStudies {
		if w, ok := want[s.name]; !ok {
			t.Errorf("%s: no committed digest (regenerate with -update)", s.name)
		} else if got[s.name] != w {
			t.Errorf("%s: rendered output digest %s, committed %s", s.name, got[s.name], w)
		}
	}
	if len(want) != len(lockedStudies) {
		t.Errorf("%s pins %d studies, the lock renders %d", studyDigestsFile, len(want), len(lockedStudies))
	}
}
