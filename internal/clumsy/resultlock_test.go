package clumsy

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"clumsy/internal/cache"
)

// updateDigests rewrites the committed run corpora from the current code
// instead of checking against them:
//
//	go test ./internal/clumsy -run 'TestRunResultsPinned|TestNodeOutcomesPinned' -update
//
// Regenerate only for an intended change of results, and name the change
// in CHANGES.md.
var updateDigests = flag.Bool("update", false, "rewrite testdata/result_digests.json and testdata/node_digests.json")

const (
	resultDigestsFile = "testdata/result_digests.json"
	nodeDigestsFile   = "testdata/node_digests.json"
)

// lockApps is every registered application: the paper's seven plus the
// media codec and the two stateful apps.
var lockApps = []string{"crc", "tl", "route", "drr", "nat", "md5", "url", "adpcm", "fw", "flowtrack"}

var (
	lockPolicies   = []RecoveryPolicy{RecoverAbort, RecoverDrop, RecoverDegrade}
	lockRegimes    = []FaultRegime{RegimePaper, RegimeBurst, RegimePermanent}
	lockDetections = []cache.Detection{cache.DetectionNone, cache.DetectionParity, cache.DetectionECC}
)

// lockCell is one pinned configuration.
type lockCell struct {
	name string
	cfg  Config
}

func schemeName(dynamic bool) string {
	if dynamic {
		return "dynamic"
	}
	return "static"
}

// resultLockGrid is the Result corpus: every app x policy x regime x
// scheme (static Cr 0.5 or dynamic), with the detection scheme assigned
// so that it meets every level of every other axis (a pairwise cover).
// FaultScale 3000 makes runs die, contain drops and strike flow records
// within 120 packets.
func resultLockGrid() []lockCell {
	var cells []lockCell
	for ai, app := range lockApps {
		for pi, pol := range lockPolicies {
			for ri, reg := range lockRegimes {
				for si, dyn := range []bool{false, true} {
					det := lockDetections[(ai+pi+ri+si)%len(lockDetections)]
					cells = append(cells, lockCell{
						name: app + "/" + pol.String() + "/" + reg.String() + "/" + schemeName(dyn) + "/" + det.String(),
						cfg: Config{App: app, Packets: 120, Seed: 7, FaultScale: 3000,
							CycleTime: 0.5, Dynamic: dyn, Detection: det, Strikes: 2,
							Recovery: pol, Regime: reg},
					})
				}
			}
		}
	}
	return cells
}

// nodeLockGrid is the node corpus: route, drr and fw under the two
// containing policies x the three regimes x static and dynamic, plus one
// abort-policy node that dies.
func nodeLockGrid() []lockCell {
	var cells []lockCell
	for _, app := range []string{"route", "drr", "fw"} {
		for _, pol := range []RecoveryPolicy{RecoverDrop, RecoverDegrade} {
			for _, reg := range lockRegimes {
				for _, dyn := range []bool{false, true} {
					cells = append(cells, lockCell{
						name: app + "/" + pol.String() + "/" + reg.String() + "/" + schemeName(dyn),
						cfg: Config{App: app, Packets: 150, Seed: 11, FaultScale: 3000,
							CycleTime: 0.5, Dynamic: dyn, Detection: cache.DetectionParity, Strikes: 2,
							Recovery: pol, Regime: reg},
					})
				}
			}
		}
	}
	return append(cells, lockCell{name: "drr/abort/burst/static",
		cfg: Config{App: "drr", Packets: 150, Seed: 11, FaultScale: 3000,
			CycleTime: 0.5, Detection: cache.DetectionParity, Strikes: 2,
			Recovery: RecoverAbort, Regime: RegimeBurst}})
}

// nodeRecord is everything a node reports over one served trace.
type nodeRecord struct {
	OpenErr     string
	Calibration Calibration
	Outcomes    []NodeOutcome
	ProcessErr  string
	Health      NodeHealth
	FatalErr    string
}

// serveNode opens a node for cfg over its generated trace and serves the
// trace in order until it ends or the node dies.
func serveNode(t *testing.T, cfg Config) nodeRecord {
	t.Helper()
	tr := nodeTrace(t, cfg.App, cfg.Packets, cfg.Seed)
	var rec nodeRecord
	cal, err := Calibrate(cfg, tr)
	if err != nil {
		t.Fatalf("calibrate: %v", err)
	}
	rec.Calibration = cal
	n, err := OpenNode(cfg, tr, cal)
	if err != nil {
		rec.OpenErr = err.Error()
		return rec
	}
	defer n.Close()
	for i := range tr.Packets {
		out, err := n.Process(&tr.Packets[i])
		if err != nil {
			rec.ProcessErr = err.Error()
			break
		}
		rec.Outcomes = append(rec.Outcomes, out)
		if out.Fatal {
			break
		}
	}
	rec.Health = n.Health()
	if err := n.FatalErr(); err != nil {
		rec.FatalErr = err.Error()
	}
	return rec
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkDigests compares got against the committed digest file, or
// rewrites the file under -update.
func checkDigests(t *testing.T, file string, cells []lockCell, got map[string]string) {
	t.Helper()
	if *updateDigests {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), file)
		return
	}
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	for _, c := range cells {
		if w, ok := want[c.name]; !ok {
			t.Errorf("%s: no committed digest (regenerate with -update)", c.name)
		} else if got[c.name] != w {
			t.Errorf("%s: digest %s, committed %s", c.name, got[c.name], w)
		}
	}
	if len(want) != len(cells) {
		t.Errorf("%s pins %d cells, the grid has %d", file, len(want), len(cells))
	}
}

// TestRunResultsPinned is the behaviour lock of a single run: the sha256
// of every cell's canonical Result view (resultBytes, the view
// TestRunDeterminism compares) must equal the committed digest. A change
// to the simulator that moves any reported number of any cell fails here,
// naming the cell.
func TestRunResultsPinned(t *testing.T) {
	cells := resultLockGrid()
	got := make(map[string]string, len(cells))
	var fatal, contained, stateEvents int
	for _, c := range cells {
		res, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name] = digest(resultBytes(t, res))
		if res.FatalErr != nil {
			fatal++
		}
		contained += res.Contained
		stateEvents += int(res.StateEvictions + res.StateRebuilds)
	}
	// Self-check: the corpus must reach the fatal, containment and
	// flow-state recovery paths, or it pins only the quiet ones.
	if fatal == 0 || contained == 0 || stateEvents == 0 {
		t.Fatalf("corpus is too quiet: %d fatal runs, %d contained drops, %d state-ladder events",
			fatal, contained, stateEvents)
	}
	checkDigests(t, resultDigestsFile, cells, got)
}

// TestNodeOutcomesPinned is the behaviour lock of the streaming node: the
// calibration, the per-packet outcome stream and the final health of
// every cell must hash to the committed digest.
func TestNodeOutcomesPinned(t *testing.T) {
	cells := nodeLockGrid()
	got := make(map[string]string, len(cells))
	var dropped, contained, dead int
	for _, c := range cells {
		rec := serveNode(t, c.cfg)
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		got[c.name] = digest(b)
		for _, o := range rec.Outcomes {
			if o.Dropped {
				dropped++
			}
		}
		contained += rec.Health.Contained
		if rec.Health.Dead {
			dead++
		}
		if c.cfg.Recovery == RecoverAbort && !rec.Health.Dead {
			t.Errorf("%s: the abort node served the whole trace; it must die", c.name)
		}
	}
	if dropped == 0 || contained == 0 || dead == 0 {
		t.Fatalf("corpus is too quiet: %d dropped outcomes, %d contained, %d dead nodes",
			dropped, contained, dead)
	}
	checkDigests(t, nodeDigestsFile, cells, got)
}
