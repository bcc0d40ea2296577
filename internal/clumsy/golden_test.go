package clumsy

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"clumsy/internal/cache"
	"clumsy/internal/telemetry"
	"clumsy/internal/workload"
)

// goldenField classifies one Config field for the golden memo. vary
// returns a copy of a defaulted config that differs from it in this field
// alone.
type goldenField struct {
	golden bool   // a golden input: part of goldenKey
	why    string // for a faulty-only field: where newMachine reads it, all under inj != nil
	vary   func(Config) Config
}

var keySpec = &workload.Spec{Shape: workload.ShapeFlash, Adversarial: 0.15, Churn: 0.25}

// goldenFields classifies every Config field. A field may be faulty-only
// only if newMachine reads it solely under inj != nil (or not at all);
// TestGoldenKeyClassification fails on any field missing here.
var goldenFields = map[string]goldenField{
	"App": {golden: true, vary: func(c Config) Config {
		if c.App == "route" {
			c.App = "nat"
		} else {
			c.App = "route"
		}
		return c
	}},
	"Packets": {golden: true, vary: func(c Config) Config { c.Packets += 10; return c }},
	"Seed":    {golden: true, vary: func(c Config) Config { c.Seed++; return c }},
	"Workload": {golden: true, vary: func(c Config) Config {
		if c.Workload == nil {
			c.Workload = keySpec
		} else {
			w := *c.Workload
			w.Churn /= 2
			c.Workload = &w
		}
		return c
	}},
	"Detection": {golden: true, vary: func(c Config) Config {
		if c.Detection == cache.DetectionParity {
			c.Detection = cache.DetectionECC
		} else {
			c.Detection = cache.DetectionParity
		}
		return c
	}},
	"Strikes":       {golden: true, vary: func(c Config) Config { c.Strikes = c.Strikes%3 + 1; return c }},
	"SubBlock":      {golden: true, vary: func(c Config) Config { c.SubBlock = !c.SubBlock; return c }},
	"L1DSize":       {golden: true, vary: func(c Config) Config { c.L1DSize = 8 << 10; return c }},
	"SpaceBytes":    {golden: true, vary: func(c Config) Config { c.SpaceBytes = 24 << 20; return c }},
	"ScrubInterval": {golden: true, vary: func(c Config) Config { c.ScrubInterval = 16; return c }},
	"StateStrikes":  {golden: true, vary: func(c Config) Config { c.StateStrikes = 2; return c }},

	"CycleTime": {why: "sets the L1D cycle time only in the controller branch, and RunStart only traces the faulty run",
		vary: func(c Config) Config { c.CycleTime = 0.25; return c }},
	"Dynamic": {why: "selects the controller in the inj != nil branch",
		vary: func(c Config) Config { c.Dynamic = true; return c }},
	"EpochPackets": {why: "parameterises the controller built under inj != nil",
		vary: func(c Config) Config { c.Dynamic, c.EpochPackets = true, 7; return c }},
	"X1": {why: "parameterises the controller built under inj != nil",
		vary: func(c Config) Config { c.Dynamic, c.X1 = true, 1.2; return c }},
	"X2": {why: "parameterises the controller built under inj != nil",
		vary: func(c Config) Config { c.Dynamic, c.X2 = true, 0.3; return c }},
	"FaultScale": {why: "reaches newMachine only as injection.scale; the golden process is built at scale 1",
		vary: func(c Config) Config { c.FaultScale = 5e3; return c }},
	"Planes": {why: "reaches newMachine only as injection.planes",
		vary: func(c Config) Config { c.Planes = PlaneControl; return c }},
	"Regime": {why: "read by newFaultProcess, which only the inj != nil branch calls",
		vary: func(c Config) Config { c.Regime = RegimePermanent; return c }},
	"LineDisableStrikes": {why: "arms line disable in the inj != nil branch",
		vary: func(c Config) Config { c.LineDisableStrikes = 1; return c }},
	"LineDisableWindow": {why: "arms line disable in the inj != nil branch",
		vary: func(c Config) Config { c.LineDisableStrikes, c.LineDisableWindow = 1, 64; return c }},
	"PreDisableFrac": {why: "force-disables frames in the inj != nil branch",
		vary: func(c Config) Config { c.PreDisableFrac = 0.5; return c }},
	"MinDwellEpochs": {why: "damps the controller built under inj != nil",
		vary: func(c Config) Config { c.Dynamic, c.MinDwellEpochs = true, 3; return c }},
	"WatchdogFactor": {why: "not read by newMachine; runFaulty scales the golden worst packet into the faulty budget",
		vary: func(c Config) Config { c.WatchdogFactor = 2; return c }},
	"Recovery": {why: "arms line disable and takes the checkpoint only under inj != nil",
		vary: func(c Config) Config { c.Recovery = RecoverDegrade; return c }},
	"MaxDropRate": {why: "read only on the containment path, which needs the checkpoint taken under inj != nil",
		vary: func(c Config) Config { c.Recovery, c.MaxDropRate = RecoverDrop, 0.01; return c }},
	"Telemetry": {why: "runGolden builds its machine with no hub",
		vary: func(c Config) Config { c.Telemetry = telemetry.New(); return c }},
}

// keyBases are the configurations the classification is checked on: a
// stateless app under each detection scheme, and a stateful one with a
// workload spec and a scrub interval.
var keyBases = []Config{
	{App: "route", Packets: 120, Seed: 7},
	{App: "drr", Packets: 120, Seed: 3, Detection: cache.DetectionParity, Strikes: 2},
	{App: "md5", Packets: 60, Seed: 5, Detection: cache.DetectionECC},
	{App: "fw", Packets: 150, Seed: 9, Workload: keySpec, ScrubInterval: 32},
}

// TestGoldenKeyClassification is the soundness check of the golden memo.
// Every Config field must be classified; varying a golden input must
// change goldenKeyOf, and varying a faulty-only field must leave both the
// key and the whole golden outcome — cycles, instructions, delay, worst
// packet, breakdown, energy, L1D stats and the observation log — bit for
// bit unchanged.
func TestGoldenKeyClassification(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		f, ok := goldenFields[name]
		if !ok {
			t.Errorf("Config.%s is not classified as a golden input or faulty-only in goldenFields", name)
			continue
		}
		if !f.golden && f.why == "" {
			t.Errorf("Config.%s is faulty-only without saying where newMachine reads it", name)
		}
	}
	for name := range goldenFields {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("goldenFields classifies %s, which Config does not have", name)
		}
	}

	for _, base := range keyBases {
		base = base.withDefaults()
		trace, ref, err := goldenReference(base)
		if err != nil {
			t.Fatalf("%s: %v", base.App, err)
		}
		for name, f := range goldenFields {
			cfg := f.vary(base)
			if reflect.DeepEqual(cfg, base) {
				t.Fatalf("%s: vary(%s) left the config unchanged", base.App, name)
			}
			if moved := goldenKeyOf(cfg) != goldenKeyOf(base); moved != f.golden {
				t.Errorf("%s: varying %s moved the golden key: %v, want %v", base.App, name, moved, f.golden)
			}
			if f.golden {
				continue
			}
			got, err := runGolden(cfg, trace)
			if err != nil {
				t.Fatalf("%s with %s varied: %v", base.App, name, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: varying faulty-only %s changed the golden outcome: %s", base.App, name, goldenDiff(ref, got))
			}
		}
	}
}

// goldenDiff names the parts of two golden outcomes that differ.
func goldenDiff(a, b *onceResult) string {
	var diff []string
	for _, f := range []struct {
		name string
		x, y any
	}{
		{"cycles", a.Cycles, b.Cycles}, {"instrs", a.Instrs, b.Instrs}, {"delay", a.Delay, b.Delay},
		{"maxPacketInstrs", a.maxPacketInstrs, b.maxPacketInstrs}, {"breakdown", a.Breakdown, b.Breakdown},
		{"energy", a.Energy, b.Energy}, {"l1dStats", a.L1DStats, b.L1DStats},
		{"observations", a.rec, b.rec},
	} {
		if !reflect.DeepEqual(f.x, f.y) {
			diff = append(diff, f.name)
		}
	}
	if len(diff) == 0 {
		return "bookkeeping fields"
	}
	return strings.Join(diff, ", ")
}

// goldenProjection is the test's own golden key: the values of the
// golden-input fields of a defaulted config, read by reflection from
// goldenFields rather than from goldenKeyOf.
func goldenProjection(cfg Config) string {
	v := reflect.ValueOf(cfg)
	var names []string
	for name, f := range goldenFields {
		if f.golden {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fv := v.FieldByName(name)
		if fv.Kind() == reflect.Pointer && !fv.IsNil() {
			fv = fv.Elem()
		}
		fmt.Fprintf(&b, "%s=%v;", name, fv.Interface())
	}
	return b.String()
}

// memoGrid is the equivalence grid: every regime x policy at static
// Cr 0.5 and 0.25 and under the dynamic scheme; parity and ECC; sub-block
// recovery; a larger L1D; a stateful app with a workload spec; and, for
// each golden input, a pair of configs that differ only in that field.
func memoGrid() []Config {
	var grid []Config
	for _, regime := range []FaultRegime{RegimePaper, RegimeBurst, RegimePermanent} {
		for _, policy := range []RecoveryPolicy{RecoverAbort, RecoverDrop, RecoverDegrade} {
			for _, op := range []Config{{CycleTime: 0.5}, {CycleTime: 0.25}, {Dynamic: true}} {
				grid = append(grid, Config{App: "route", Packets: 150, Seed: 7, FaultScale: 2e3,
					CycleTime: op.CycleTime, Dynamic: op.Dynamic, Regime: regime, Recovery: policy,
					Detection: cache.DetectionParity, Strikes: 2})
			}
		}
	}
	grid = append(grid,
		Config{App: "route", Packets: 150, Seed: 7, FaultScale: 2e3, CycleTime: 0.25, Detection: cache.DetectionECC},
		Config{App: "route", Packets: 150, Seed: 7, FaultScale: 2e3, CycleTime: 0.25},
		Config{App: "drr", Packets: 150, Seed: 3, FaultScale: 5e3, CycleTime: 0.25,
			Detection: cache.DetectionParity, Strikes: 2, SubBlock: true, Recovery: RecoverDrop},
		Config{App: "nat", Packets: 150, Seed: 9, FaultScale: 2e3, CycleTime: 0.5, L1DSize: 8 << 10},
		Config{App: "fw", Packets: 150, Seed: 9, FaultScale: 3e3, CycleTime: 0.25, Workload: keySpec,
			ScrubInterval: 32, Recovery: RecoverDrop, Detection: cache.DetectionParity},
	)
	pairBase := Config{App: "fw", Packets: 140, Seed: 11, FaultScale: 2e3, CycleTime: 0.25,
		Detection: cache.DetectionParity, Workload: keySpec, ScrubInterval: 32, Recovery: RecoverDrop}.withDefaults()
	var names []string
	for name, f := range goldenFields {
		if f.golden {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		grid = append(grid, pairBase, goldenFields[name].vary(pairBase))
	}
	return grid
}

// TestGoldensMatchRun runs the equivalence grid through one shared memo
// and checks every result against a plain Run, over the same canonical
// view TestRunDeterminism compares. The memo must run exactly one golden
// pass per distinct golden projection of the grid: a field missing from
// goldenKey would merge two projections and fail the count even where
// the merged golden outcomes happen to coincide.
func TestGoldensMatchRun(t *testing.T) {
	var g Goldens
	distinct := map[string]bool{}
	for i, cfg := range memoGrid() {
		distinct[goldenProjection(cfg.withDefaults())] = true
		got, err := g.Run(cfg)
		if err != nil {
			t.Fatalf("config %d (%s): memo: %v", i, cfg.App, err)
		}
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("config %d (%s): Run: %v", i, cfg.App, err)
		}
		if !bytes.Equal(resultBytes(t, got), resultBytes(t, want)) {
			t.Errorf("config %d (%s %s/%s Cr=%g dyn=%v): memoised result differs from Run",
				i, cfg.App, cfg.Regime, cfg.Recovery, cfg.CycleTime, cfg.Dynamic)
		}
		if !reflect.DeepEqual(got.Config, want.Config) {
			t.Errorf("config %d: memoised Result.Config %+v, Run %+v", i, got.Config, want.Config)
		}
	}
	if n := g.passes.Load(); n != int64(len(distinct)) {
		t.Errorf("memo ran %d golden passes over %d distinct golden projections", n, len(distinct))
	}
}

// TestGoldensConcurrentOnePass has 8 goroutines request one golden key at
// once, each for a different faulty configuration: the golden pass runs
// exactly once and every result still equals a plain Run.
func TestGoldensConcurrentOnePass(t *testing.T) {
	var g Goldens
	const n = 8
	cfgs := make([]Config, n)
	got := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range cfgs {
		cfgs[i] = Config{App: "route", Packets: 150, Seed: 7, FaultScale: 2e3,
			CycleTime: []float64{1, 0.75, 0.5, 0.25}[i%4], Recovery: RecoveryPolicy(i % 3),
			Detection: cache.DetectionParity, Strikes: 2}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = g.Run(cfgs[i])
		}(i)
	}
	close(start)
	wg.Wait()
	if p := g.passes.Load(); p != 1 {
		t.Fatalf("%d goroutines on one key ran %d golden passes, want 1", n, p)
	}
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		want, err := Run(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resultBytes(t, got[i]), resultBytes(t, want)) {
			t.Errorf("goroutine %d: memoised result differs from Run", i)
		}
	}
}

// TestGoldensErrorIsShared checks that a failing golden key hands its
// error to every run of the key without recomputing it, and that a panic
// in the golden pass still leaves a filled entry: the first caller sees
// the panic, every later caller an error naming it.
func TestGoldensErrorIsShared(t *testing.T) {
	var g Goldens
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"unknown app", Config{App: "no-such-app", Packets: 10, Seed: 1}, "no-such-app"},
		{"space too small", Config{App: "route", Packets: 10, Seed: 1, SpaceBytes: 1 << 16}, "golden run failed"},
	} {
		before := g.passes.Load()
		for i := 0; i < 3; i++ {
			cfg := tc.cfg
			cfg.CycleTime = []float64{1, 0.5, 0.25}[i] // faulty-only: same key
			res, err := g.Run(cfg)
			if err == nil || res != nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s, call %d: got (%v, %v), want an error containing %q", tc.name, i, res, err, tc.want)
			}
		}
		if p := g.passes.Load() - before; p != 1 {
			t.Errorf("%s: %d golden passes for one failing key, want 1", tc.name, p)
		}
	}

	panicking := Config{App: "route", Packets: 10, Seed: 1, SpaceBytes: 100} // below the unmapped page
	func() {
		defer func() {
			if recover() == nil {
				t.Error("first run of a panicking golden key did not panic")
			}
		}()
		g.Run(panicking)
	}()
	res, err := g.Run(panicking)
	if res != nil || err == nil || !strings.Contains(err.Error(), "golden pass panicked") {
		t.Fatalf("second run of a panicking golden key: (%v, %v), want the recorded panic", res, err)
	}
}
