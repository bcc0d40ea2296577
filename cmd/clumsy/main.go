// Command clumsy regenerates the tables and figures of "A Case for Clumsy
// Packet Processors" (Mallik & Memik, MICRO-37 2004) from the Go
// reproduction, and runs individual simulations.
//
// Usage:
//
//	clumsy <experiment> [flags]
//
// Experiments: table1, fig1b, fig2b, fig3, fig4, fig5, fig6, fig7, fig8,
// fig9, fig10, fig11, fig12, all, run, stats, list.
//
// Every command accepts the observability flags -trace-out (JSONL event
// trace of all simulated runs), -cpuprofile/-memprofile (pprof), and
// -progress (grid progress on stderr).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"clumsy/internal/apps"
	"clumsy/internal/atomicio"
	"clumsy/internal/cache"
	"clumsy/internal/clumsy"
	"clumsy/internal/cluster"
	"clumsy/internal/experiment"
	"clumsy/internal/metrics"
	"clumsy/internal/packet"
	"clumsy/internal/telemetry"
	"clumsy/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "clumsy:", err)
		os.Exit(1)
	}
}

// cliOpts carries every parsed flag through the experiment dispatch so
// that compound commands (extensions, all) re-dispatch without re-parsing
// flags or re-initialising the observability stack.
type cliOpts struct {
	opt         experiment.Options
	app         string
	packets     int
	seed        uint64
	scale       float64
	cr          float64
	crSet       bool // -cr given explicitly (fleet keeps the cluster default otherwise)
	dynamic     bool
	parity      bool
	strikes     int
	regime      clumsy.FaultRegime
	recovery    clumsy.RecoveryPolicy
	maxDropRate float64
	watchdog    float64
	format      string
	describe    bool
	out         string
	tracePath   string
	progress    bool
	nodes       int
	faulty      int
	dispatch    string
	wl          *workload.Spec // workload-v2 spec, nil = canonical trace
	scrub       int
	stateStr    int
	tel         *telemetry.Telemetry
}

// fleetConfig builds the single-run fleet configuration of `fleet -faulty N`.
func (o cliOpts) fleetConfig(pol cluster.DispatchPolicy) cluster.Config {
	cfg := cluster.Config{
		App:             o.app,
		Nodes:           o.nodes,
		Packets:         o.packets,
		Seed:            o.seed,
		Dispatch:        pol,
		FaultyNodes:     o.faulty,
		FaultScale:      o.scale,
		Dynamic:         o.dynamic,
		Recovery:        o.recovery,
		NodeMaxDropRate: o.maxDropRate,
		Workload:        o.wl,
		Telemetry:       o.tel,
	}
	if o.crSet {
		cfg.CycleTime = o.cr
	}
	return cfg
}

// runConfig builds the single-run configuration of the run/stats commands.
func (o cliOpts) runConfig() clumsy.Config {
	return clumsy.Config{
		App:            o.app,
		Packets:        max(o.packets, 1000),
		Seed:           max64(o.seed, 1),
		CycleTime:      o.cr,
		Dynamic:        o.dynamic,
		Detection:      detectionOf(o.parity),
		Strikes:        o.strikes,
		FaultScale:     maxf(o.scale, 1),
		Regime:         o.regime,
		Recovery:       o.recovery,
		MaxDropRate:    o.maxDropRate,
		WatchdogFactor: o.watchdog,
		ScrubInterval:  o.scrub,
		StateStrikes:   o.stateStr,
		Workload:       o.wl,
	}
}

// run parses flags, stands up the observability stack (telemetry hub,
// trace sink, grid monitor, pprof profiles), and dispatches the command.
func run(args []string, w io.Writer) (err error) {
	if len(args) == 0 {
		usage(w)
		return fmt.Errorf("missing experiment name")
	}
	cmd, rest := args[0], args[1:]

	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	packets := fs.Int("packets", 0, "packets per run (0 = default)")
	trials := fs.Int("trials", 0, "trials per configuration (0 = default)")
	scale := fs.Float64("scale", 0, "fault-rate multiplier (0 = default 1)")
	seed := fs.Uint64("seed", 0, "experiment seed (0 = default)")
	appName := fs.String("app", "route", "application for run/fig6-style experiments")
	cr := fs.Float64("cr", 1, "relative cycle time for run")
	dynamic := fs.Bool("dynamic", false, "use the dynamic frequency controller for run")
	parity := fs.Bool("parity", false, "enable parity detection for run")
	strikes := fs.Int("strikes", 1, "recovery strikes under parity for run")
	recovery := fs.String("recovery", "abort", "fatal-error policy: abort (paper semantics), drop (contain and continue), or degrade (drop + the escalating recovery ladder)")
	regime := fs.String("regime", "paper", "fault regime: paper (memoryless), burst (Gilbert-Elliott droop episodes), or permanent (stuck-at cell map)")
	maxDropRate := fs.Float64("max-drop-rate", 0, "under -recovery drop, abort once this drop fraction is exceeded (0 = unlimited)")
	watchdog := fs.Float64("watchdog", 0, "per-packet instruction budget as a multiple of the golden worst packet (0 = default 500)")
	format := fs.String("format", "text", "output format: text or csv (stats: text=Prometheus or json)")
	out := fs.String("out", "", "write command output to this file atomically instead of stdout")
	journalPath := fs.String("journal", "", "record completed campaign cells to this JSONL journal")
	resume := fs.Bool("resume", false, "with -journal, skip cells already recorded in the journal")
	runTimeout := fs.Duration("run-timeout", 0, "per-grid-cell wall-clock deadline, e.g. 90s (0 = none)")
	retries := fs.Int("retries", 0, "retries per cell for transient host failures (simulated outcomes never retry)")
	retryBackoff := fs.Duration("retry-backoff", 0, "base retry delay, doubled per attempt (0 = default 100ms)")
	tracePath := fs.String("trace", "", "replay a binary trace file instead of generating (run command)")
	traceOut := fs.String("trace-out", "", "write a JSONL event trace of every simulated run to this file")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to this file")
	progress := fs.Bool("progress", false, "report experiment-grid progress on stderr")
	describe := fs.Bool("describe", false, "stats: print the telemetry name registry instead of running a simulation")
	nodes := fs.Int("nodes", 0, "fleet: node count (0 = 8)")
	faulty := fs.Int("faulty", -1, "fleet: hostile node count for one fleet simulation (-1 = run the degradation study instead)")
	dispatchPolicy := fs.String("dispatch", "", "fleet: dispatch policy, flow (default) or least")
	shape := fs.String("shape", "", "workload-v2 temporal shape: steady, diurnal, flash, or onoff (empty = canonical trace)")
	shape2 := fs.String("shape2", "", "workload-v2 stacked shape multiplied onto -shape, mean rate renormalized to 1 (empty = no stacking)")
	periods2 := fs.Int("periods2", 0, "cycle count of the -shape2 profile (0 = that shape's default)")
	adversarial := fs.Float64("adversarial", 0, "workload-v2 malformed-packet fraction (truncated/fuzzed wire images)")
	churn := fs.Float64("churn", 0, "workload-v2 flow-churn fraction (each churned packet gets a fresh flow identity)")
	scrub := fs.Int("scrub", 0, "flow-table scrub interval in packets for stateful apps (0 = default, negative = disabled)")
	stateStrikes := fs.Int("state-strikes", 0, "per-record corruption strike budget before the run is declared unrecoverable (0 = default)")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	policy, err := clumsy.ParseRecoveryPolicy(*recovery)
	if err != nil {
		return err
	}
	faultRegime, err := clumsy.ParseFaultRegime(*regime)
	if err != nil {
		return err
	}

	// Campaign context: the first SIGINT/SIGTERM cancels it, letting the
	// experiment grids drain in-flight cells, flush the journal, and report
	// partial progress. A second signal force-quits.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sig)
		close(sig)
	}()
	go func() {
		s, ok := <-sig
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "\nclumsy: %v — stopping campaign (send again to force quit)\n", s)
		cancel()
		if _, ok := <-sig; ok {
			os.Exit(130)
		}
	}()

	o := cliOpts{
		opt: experiment.Options{
			Packets: *packets, Trials: *trials, FaultScale: *scale, Seed: *seed,
			Recovery: policy, MaxDropRate: *maxDropRate,
			Ctx: ctx, RunTimeout: *runTimeout, Retries: *retries, RetryBackoff: *retryBackoff,
		},
		app:         *appName,
		packets:     *packets,
		seed:        *seed,
		scale:       *scale,
		cr:          *cr,
		dynamic:     *dynamic,
		parity:      *parity,
		strikes:     *strikes,
		regime:      faultRegime,
		recovery:    policy,
		maxDropRate: *maxDropRate,
		watchdog:    *watchdog,
		format:      *format,
		describe:    *describe,
		out:         *out,
		tracePath:   *tracePath,
		progress:    *progress,
		nodes:       *nodes,
		faulty:      *faulty,
		dispatch:    *dispatchPolicy,
		scrub:       *scrub,
		stateStr:    *stateStrikes,
	}
	if *shape != "" || *shape2 != "" || *adversarial > 0 || *churn > 0 {
		sh := workload.ShapeSteady
		if *shape != "" {
			var perr error
			if sh, perr = workload.ParseShape(*shape); perr != nil {
				return perr
			}
		}
		sh2 := workload.ShapeSteady
		if *shape2 != "" {
			var perr error
			if sh2, perr = workload.ParseShape(*shape2); perr != nil {
				return perr
			}
		}
		o.wl = &workload.Spec{Shape: sh, Shape2: sh2, Periods2: *periods2,
			Adversarial: *adversarial, Churn: *churn}
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "cr" {
			o.crSet = true
		}
	})

	// Observability stack. The hub is installed as the process default so
	// that every clumsy.Run — including the ones buried inside experiment
	// grids — is counted and traced without plumbing changes.
	o.tel = telemetry.New()
	clumsy.SetDefaultTelemetry(o.tel)
	defer clumsy.SetDefaultTelemetry(nil)
	if *traceOut != "" {
		// Atomic: the trace file appears under its final name only once the
		// sink is flushed and closed, so a killed command never leaves a
		// truncated JSONL behind.
		f, err := atomicio.Create(*traceOut)
		if err != nil {
			return err
		}
		sink := telemetry.NewJSONLSink(f)
		o.tel.SetSink(sink)
		defer sink.Close()
	}
	if *journalPath != "" {
		j, loaded, jerr := experiment.OpenJournal(*journalPath, *resume)
		if jerr != nil {
			return jerr
		}
		o.opt.Journal = j
		if *resume {
			fmt.Fprintf(os.Stderr, "clumsy: resuming campaign from %s (%d cells recorded)\n", *journalPath, loaded)
			o.tel.StartRun(nil).CampaignResume(*journalPath, loaded)
		}
	} else if *resume {
		return fmt.Errorf("-resume requires -journal")
	}
	if *progress {
		mon := &telemetry.RunMonitor{Registry: o.tel.Registry, OnProgress: printProgress}
		experiment.SetMonitor(mon)
		defer experiment.SetMonitor(nil)
	}
	if *cpuprofile != "" {
		f, err := atomicio.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Abort()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "clumsy: closing cpu profile: %v\n", err)
			}
		}()
	}
	if *memprofile != "" {
		defer writeHeapProfile(*memprofile)
	}
	err = dispatch(cmd, o, w)
	if errors.Is(err, context.Canceled) {
		// Interrupted: report how much of the campaign survives, and how to
		// pick it back up.
		if j := o.opt.Journal; j != nil {
			fmt.Fprintf(os.Stderr, "clumsy: interrupted — %d cells journaled to %s; rerun with -resume to continue\n",
				j.Len(), j.Path())
		} else {
			fmt.Fprintln(os.Stderr, "clumsy: interrupted — no journal kept (use -journal to make campaigns resumable)")
		}
	}
	return err
}

// dispatch routes the command's output: with -out the full rendering is
// written atomically to the file (a cancelled or failed command leaves no
// partial file), otherwise it streams to w. The trace command manages its
// own -out semantics (binary trace payload).
func dispatch(cmd string, o cliOpts, w io.Writer) error {
	if o.out != "" && cmd != "trace" {
		return atomicio.WriteFile(o.out, func(f io.Writer) error {
			return execute(cmd, o, f)
		})
	}
	return execute(cmd, o, w)
}

// printProgress renders one grid-progress line on stderr (carriage-return
// updated in place, finished with a newline).
func printProgress(p telemetry.Progress) {
	// Drained cells (grid failure or cancellation) would otherwise vanish
	// from the count: Done never reaches Total and the line looks stuck.
	skipped := ""
	if p.Skipped > 0 {
		skipped = fmt.Sprintf("  skipped=%d", p.Skipped)
	}
	fmt.Fprintf(os.Stderr, "\r%d/%d runs  avg %v/run  elapsed %v  workers %.0f%% busy%s   ",
		p.Done, p.Total,
		p.AvgRun.Round(time.Millisecond), p.Elapsed.Round(time.Millisecond),
		p.Utilization()*100, skipped)
	if p.Done >= p.Total {
		fmt.Fprintln(os.Stderr)
	}
}

// writeHeapProfile dumps the heap profile at exit; failures are reported
// but do not change the command's outcome.
func writeHeapProfile(path string) {
	runtime.GC()
	if err := atomicio.WriteFile(path, pprof.WriteHeapProfile); err != nil {
		fmt.Fprintln(os.Stderr, "clumsy: memprofile:", err)
	}
}

// execute dispatches one (sub)command with already-parsed options.
func execute(cmd string, o cliOpts, w io.Writer) error {
	emitTable := func(t *experiment.Table) error {
		if o.format == "csv" {
			return t.RenderCSV(w)
		}
		t.Render(w)
		return nil
	}
	emitFigure := func(f *experiment.Figure) error {
		if o.format == "csv" {
			return f.RenderCSV(w)
		}
		f.Render(w)
		return nil
	}
	opt := o.opt

	switch cmd {
	case "list":
		usage(w)
		return nil
	case "fig1b":
		return emitFigure(experiment.Fig1b())
	case "fig2b":
		return emitFigure(experiment.Fig2b())
	case "fig3":
		return emitFigure(experiment.Fig3())
	case "fig4":
		return emitFigure(experiment.Fig4())
	case "fig5":
		return emitFigure(experiment.Fig5())
	case "table1":
		rows, err := experiment.Table1(opt)
		if err != nil {
			return err
		}
		return emitTable(experiment.Table1Render(rows, opt))
	case "fig6", "fig7":
		// Figure 6 studies route, Figure 7 studies nat; -app overrides.
		app := o.app
		if app == "route" && cmd == "fig7" {
			app = "nat"
		}
		sweeps, err := experiment.ErrorBehaviour(app, opt)
		if err != nil {
			return err
		}
		label := map[string]string{"fig6": "Figure 6", "fig7": "Figure 7"}[cmd]
		for _, t := range experiment.ErrorBehaviourRender(sweeps, label, opt) {
			if err := emitTable(t); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	case "fig8":
		rows, err := experiment.Fig8(opt)
		if err != nil {
			return err
		}
		return emitTable(experiment.Fig8Render(rows, opt))
	case "fig9", "fig10", "fig11", "fig12":
		pairs := map[string][]string{
			"fig9":  {"route", "crc"},
			"fig10": {"md5", "tl"},
			"fig11": {"drr", "nat"},
			"fig12": {"url", "average"},
		}[cmd]
		for i, app := range pairs {
			panel := fmt.Sprintf("Figure %s(%c)", cmd[3:], 'a'+i)
			var r *experiment.EDFResult
			var err error
			if app == "average" {
				var all []*experiment.EDFResult
				for _, name := range apps.Names() {
					g, err := experiment.EDFGrid(name, opt)
					if err != nil {
						return err
					}
					all = append(all, g)
				}
				r = experiment.EDFAverage(all)
			} else {
				r, err = experiment.EDFGrid(app, opt)
				if err != nil {
					return err
				}
			}
			if err := emitTable(experiment.EDFRender(r, panel, opt)); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	case "ecc":
		cells, err := experiment.ExtDetection(o.app, opt)
		if err != nil {
			return err
		}
		return emitTable(experiment.ExtDetectionRender(o.app, cells, opt))
	case "subblock":
		cells, err := experiment.ExtSubBlock(o.app, opt)
		if err != nil {
			return err
		}
		return emitTable(experiment.ExtSubBlockRender(o.app, cells, opt))
	case "exponents":
		rows, err := experiment.ExtExponents(o.app, opt)
		if err != nil {
			return err
		}
		return emitTable(experiment.ExtExponentsRender(o.app, rows, opt))
	case "dvs":
		rows, err := experiment.ExtDVS(o.app, opt)
		if err != nil {
			return err
		}
		return emitTable(experiment.ExtDVSRender(o.app, rows, opt))
	case "geometry":
		cells, err := experiment.ExtGeometry(o.app, opt)
		if err != nil {
			return err
		}
		return emitTable(experiment.ExtGeometryRender(o.app, cells, opt))
	case "media":
		// The paper notes its ideas apply "to any type of processor that
		// executes applications with fault resiliency (e.g., media
		// processors)"; this grid runs the IMA ADPCM extension workload.
		r, err := experiment.EDFGrid("adpcm", opt)
		if err != nil {
			return err
		}
		return emitTable(experiment.EDFRender(r, "Extension: media processor (adpcm)", opt))
	case "tuning":
		cells, err := experiment.ExtTuning(o.app, opt)
		if err != nil {
			return err
		}
		return emitTable(experiment.ExtTuningRender(o.app, cells, opt))
	case "extensions":
		for _, sub := range []string{"ecc", "subblock", "exponents", "dvs", "geometry", "tuning", "media"} {
			if err := execute(sub, o, w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	case "reliability":
		cells, err := experiment.Reliability(opt)
		if err != nil {
			return err
		}
		for _, t := range experiment.ReliabilityRender(cells, opt) {
			if err := emitTable(t); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		points, err := experiment.ReliabilityCurve(o.app, opt)
		if err != nil {
			return err
		}
		return emitTable(experiment.ReliabilityCurveRender(o.app, points, opt))
	case "fleet":
		pol, err := cluster.ParseDispatchPolicy(o.dispatch)
		if err != nil {
			return err
		}
		if o.faulty >= 0 {
			// One fleet simulation: N nodes, the given hostile count, full
			// health lifecycle, SLO report (text, or -format json).
			r, err := cluster.Run(o.fleetConfig(pol))
			if err != nil {
				return err
			}
			if o.format == "json" {
				return r.WriteJSON(w)
			}
			return r.WriteText(w)
		}
		// The fleet degradation study: journaled, resumable, rendered like
		// every other campaign table.
		cells, err := experiment.Fleet(o.app, opt)
		if err != nil {
			return err
		}
		return emitTable(experiment.FleetRender(o.app, cells, opt))
	case "state":
		// The state-integrity study: flow-table corruption detection and
		// recovery for the stateful apps, journaled and resumable like
		// every other campaign.
		for i, app := range experiment.StateApps() {
			cells, err := experiment.StateIntegrity(app, opt)
			if err != nil {
				return err
			}
			if err := emitTable(experiment.StateIntegrityRender(app, cells, opt)); err != nil {
				return err
			}
			if i < len(experiment.StateApps())-1 {
				fmt.Fprintln(w)
			}
		}
	case "trace":
		return dumpTrace(w, o.app, max(o.packets, 20), max64(o.seed, 1), o.out)
	case "verify":
		claims, err := experiment.VerifyClaims(opt)
		if err != nil {
			return err
		}
		if err := emitTable(experiment.VerifyRender(claims, opt)); err != nil {
			return err
		}
		for _, c := range claims {
			if !c.Pass {
				return fmt.Errorf("claim %q failed", c.Name)
			}
		}
	case "all":
		return allExperiments(opt, w)
	case "run":
		res, err := runOne(o.runConfig(), o.tracePath)
		if err != nil {
			return err
		}
		return report(w, res)
	case "stats":
		if o.describe {
			return describeNames(w)
		}
		// Execute one run exactly like `run` (same defaults and seeding,
		// so its counts match a trace captured by `run -trace-out` with
		// the same flags), then dump the counter registry.
		if _, err := runOne(o.runConfig(), o.tracePath); err != nil {
			return err
		}
		if o.format == "json" {
			return o.tel.Registry.WriteJSON(w)
		}
		return o.tel.Registry.WritePrometheus(w)
	default:
		usage(w)
		return fmt.Errorf("unknown experiment %q", cmd)
	}
	return nil
}

// describeNames prints the telemetry name registry — the same table the
// telemnames analyzer enforces (one of the nine clumsylint invariants;
// see DESIGN.md "Enforced invariants") — so dashboards and scripts can
// discover every instrument and event the simulator can emit.
func describeNames(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	kind := telemetry.Kind(-1)
	for _, spec := range telemetry.Names() {
		if spec.Kind != kind {
			if kind != telemetry.Kind(-1) {
				fmt.Fprintln(tw)
			}
			kind = spec.Kind
			fmt.Fprintf(tw, "%sS\n", strings.ToUpper(kind.String()))
		}
		fmt.Fprintf(tw, "  %s\t%s\n", spec.Name, spec.Help)
	}
	return tw.Flush()
}

func detectionOf(parity bool) cache.Detection {
	if parity {
		return cache.DetectionParity
	}
	return cache.DetectionNone
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// dumpTrace generates an application's workload and either writes it as a
// binary trace file or prints a human-readable summary.
func dumpTrace(w io.Writer, appName string, packets int, seed uint64, out string) error {
	app, err := apps.New(appName)
	if err != nil {
		return err
	}
	tr, err := packet.Generate(app.TraceConfig(packets, seed))
	if err != nil {
		return err
	}
	if out != "" {
		if err := atomicio.WriteFile(out, tr.Serialize); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d packets to %s\n", len(tr.Packets), out)
		return nil
	}
	fmt.Fprintf(w, "# %s workload, %d packets, seed %d\n", appName, packets, seed)
	fmt.Fprintf(w, "%-5s %-17s %-17s %-5s %-4s %-5s %s\n", "idx", "src", "dst", "proto", "ttl", "len", "payload")
	for i := range tr.Packets {
		p := &tr.Packets[i]
		preview := ""
		for _, b := range p.Payload {
			if len(preview) >= 24 {
				break
			}
			if b >= 0x20 && b < 0x7f {
				preview += string(rune(b))
			} else {
				preview += "."
			}
		}
		fmt.Fprintf(w, "%-5d %-17s %-17s %-5d %-4d %-5d %q\n",
			i, ipString(p.Src), ipString(p.Dst), p.Proto, p.TTL, len(p.Payload), preview)
	}
	return nil
}

func ipString(a uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", a>>24, a>>16&0xff, a>>8&0xff, a&0xff)
}

// runOne executes one configuration. If tracePath is non-empty, the stored
// trace is replayed instead of generating one.
func runOne(cfg clumsy.Config, tracePath string) (*clumsy.Result, error) {
	if tracePath == "" {
		return clumsy.Run(cfg)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		return nil, err
	}
	tr, terr := packet.ReadTrace(f)
	f.Close() //lint:errcheck-ok — read-only file, nothing to flush
	if terr != nil {
		return nil, terr
	}
	return clumsy.RunWithTrace(cfg, tr)
}

// report prints the full human-readable report of one run.
func report(w io.Writer, res *clumsy.Result) error {
	cfg := res.Config
	e := metrics.DefaultExponents()
	fmt.Fprintf(w, "app %s  Cr=%g dynamic=%v detection=%v strikes=%d scale=%g\n",
		cfg.App, cfg.CycleTime, cfg.Dynamic, cfg.Detection, cfg.Strikes, cfg.FaultScale)
	fmt.Fprintf(w, "golden: %d instrs, %.0f cycles, %.1f cycles/packet, %.4g J\n",
		res.GoldenInstrs, res.GoldenCycles, res.GoldenDelay, res.GoldenEnergy.Total())
	fmt.Fprintf(w, "clumsy: %d instrs, %.0f cycles, %.1f cycles/packet, %.4g J\n",
		res.Instrs, res.Cycles, res.Delay, res.Energy.Total())
	if res.Cycles > 0 {
		bd := res.Breakdown
		pct := func(v float64) float64 { return v / res.Cycles * 100 }
		fmt.Fprintf(w, "cycles: compute %.0f (%.1f%%), l1d %.0f (%.1f%%), l1i %.0f (%.1f%%), l2 %.0f (%.1f%%), mem %.0f (%.1f%%), recovery %.0f (%.1f%%), freq-penalty %.0f (%.1f%%)\n",
			bd.Compute, pct(bd.Compute), bd.L1D, pct(bd.L1D), bd.L1I, pct(bd.L1I),
			bd.L2, pct(bd.L2), bd.Mem, pct(bd.Mem), bd.Recovery, pct(bd.Recovery),
			bd.FreqPenalty, pct(bd.FreqPenalty))
	}
	fmt.Fprintf(w, "packets: %d/%d processed, fallibility %.4f, fatal %v\n",
		res.Report.Processed, res.Report.GoldenPackets, res.Fallibility(), res.Report.Fatal)
	if cfg.Recovery == clumsy.RecoverDrop || cfg.Recovery == clumsy.RecoverDegrade {
		fmt.Fprintf(w, "containment: %d dropped, %d contained, %d pages restored, drop rate %.5f\n",
			res.Report.Dropped, res.Contained, res.RestoredPages, res.Report.DropRate())
		if res.FatalErr != nil {
			fmt.Fprintf(w, "  run still ended fatally: %v\n", res.FatalErr)
		}
	}
	switch cfg.Regime {
	case clumsy.RegimePaper:
		// The memoryless regime has no regime-specific counters to print.
	case clumsy.RegimeBurst:
		fmt.Fprintf(w, "burst: %d bad-state episodes\n", res.BurstEpisodes)
	case clumsy.RegimePermanent:
		fmt.Fprintf(w, "stuck-at: %d permanent hits, %d intermittent hits\n",
			res.PermanentHits, res.IntermittentHits)
	}
	if res.LinesDisabled > 0 || res.Recovery.LineDisables > 0 || res.SpatialBackoffs > 0 {
		fmt.Fprintf(w, "ladder: %d lines disabled (%.1f%% capacity dead), %d re-enabled, %d bypass accesses, %d spatial back-offs\n",
			res.LinesDisabled, res.DisabledFrac*100, res.Recovery.LineReEnables,
			res.Recovery.Bypasses, res.SpatialBackoffs)
	}
	if res.StateRecords > 0 {
		fmt.Fprintf(w, "state: %d flow records; %d mismatches detected, %d evicted, %d rebuilt, %d scrub passes; end-of-run divergence %d (%d undetected)\n",
			res.StateRecords, res.StateDetected, res.StateEvictions, res.StateRebuilds,
			res.StateScrubs, res.StateDiverged, res.StateUndetected)
	}
	fmt.Fprintf(w, "faults: %d read, %d write; parity errors %d, retries %d, recoveries %d\n",
		res.Recovery.FaultsOnRead, res.Recovery.FaultsOnWrite,
		res.Recovery.ParityErrors, res.Recovery.Retries, res.Recovery.Recoveries)
	fmt.Fprintf(w, "L1D: %d accesses, %.2f%% miss rate\n",
		res.L1DStats.Accesses(), res.L1DStats.MissRate()*100)
	if res.LevelPackets != nil {
		fmt.Fprintf(w, "dynamic: %d switches, packets per level %v\n", res.Switches, res.LevelPackets)
		for _, ev := range res.Timeline {
			fmt.Fprintf(w, "  packet %6d -> Cr = %g\n", ev.Packet, ev.CycleTime)
		}
	}
	fmt.Fprintf(w, "energy-delay^2-fallibility^2: %.4g (golden %.4g, ratio %.3f)\n",
		res.EDF(e), res.GoldenEDF(e), res.EDF(e)/res.GoldenEDF(e))
	for _, name := range res.Report.StructureNames() {
		if p := res.Report.ErrorProbability(name); p > 0 {
			fmt.Fprintf(w, "  error[%s] = %.5f\n", name, p)
		}
	}
	return nil
}

func allExperiments(opt experiment.Options, w io.Writer) error {
	for _, f := range []*experiment.Figure{
		experiment.Fig1b(), experiment.Fig2b(), experiment.Fig3(),
		experiment.Fig4(), experiment.Fig5(),
	} {
		f.Render(w)
		fmt.Fprintln(w)
	}
	rows, err := experiment.Table1(opt)
	if err != nil {
		return err
	}
	experiment.Table1Render(rows, opt).Render(w)
	fmt.Fprintln(w)
	for _, app := range []string{"route", "nat"} {
		label := "Figure 6"
		if app == "nat" {
			label = "Figure 7"
		}
		sweeps, err := experiment.ErrorBehaviour(app, opt)
		if err != nil {
			return err
		}
		for _, t := range experiment.ErrorBehaviourRender(sweeps, label, opt) {
			t.Render(w)
			fmt.Fprintln(w)
		}
	}
	fatal, err := experiment.Fig8(opt)
	if err != nil {
		return err
	}
	experiment.Fig8Render(fatal, opt).Render(w)
	fmt.Fprintln(w)
	results, err := experiment.AllEDF(opt)
	if err != nil {
		return err
	}
	panels := []string{"Figure 9(a)", "Figure 9(b)", "Figure 10(a)", "Figure 10(b)",
		"Figure 11(a)", "Figure 11(b)", "Figure 12(a)", "Figure 12(b)"}
	order := map[string]int{"route": 0, "crc": 1, "md5": 2, "tl": 3, "drr": 4, "nat": 5, "url": 6, "average": 7}
	for _, r := range results {
		idx, ok := order[r.App]
		if !ok {
			continue
		}
		experiment.EDFRender(r, panels[idx], opt).Render(w)
		fmt.Fprintln(w)
	}
	// Close the campaign with the programmatic claims verdict.
	claims, err := experiment.VerifyClaims(opt)
	if err != nil {
		return err
	}
	experiment.VerifyRender(claims, opt).Render(w)
	return nil
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: clumsy <experiment> [flags]

experiments:
  fig1b   voltage swing vs cycle time (circuit model)
  fig2b   SRAM noise-immunity curves
  fig3    switching-combination noise distribution
  fig4    fault probability vs voltage swing
  fig5    fault probability vs cycle time + fitted formula (Eq. 4)
  table1  application properties and fallibility factors
  fig6    route error probabilities (control/data/both planes)
  fig7    nat error probabilities (control/data/both planes)
  fig8    fatal error probabilities per application
  fig9    EDF^2 panels: route, crc
  fig10   EDF^2 panels: md5, tl
  fig11   EDF^2 panels: drr, nat
  fig12   EDF^2 panels: url, average of all applications
  all     everything above in paper order
  verify  check the paper's headline claims programmatically (exit 1 on failure)
  run     one simulation (-app -cr -dynamic -parity -strikes -scale
          -regime paper|burst|permanent -recovery abort|drop|degrade
          -max-drop-rate X -watchdog X [-trace f])
  stats   one simulation like run, then dump the telemetry counter registry
          (-format text = Prometheus exposition, -format json = JSON;
          -describe prints the registered instrument/event name table)
  trace   dump an application's workload (-app -packets -seed [-out file])
  fleet   fleet-scale serving on the virtual-time cluster simulator:
          N clumsy nodes behind a dispatcher with node health tracking,
          drain-and-re-clock, failover, and SLO-guarded load shedding.
          Plain "fleet" runs the journaled degradation study (faulty-node
          fraction sweep, -app -packets -trials); "fleet -faulty N" runs one
          fleet simulation (-nodes N -dispatch flow|least -packets -seed
          -scale -cr -dynamic, -format json for the machine-readable report)
  list    this text

extensions (beyond the paper's evaluation; -app selects the workload):
  ecc        SEC-DED error correction vs parity vs no detection
  subblock   sub-block (per-word) recovery vs full-line invalidation
  exponents  sensitivity of the winner to the EDF metric weights
  dvs        conventional voltage scaling vs clumsy over-clocking
  geometry   L1 data cache size ablation
  tuning     dynamic-controller threshold study (the paper's X1/X2 choice)
  media      the claim beyond networking: EDF grid for an IMA ADPCM codec
  extensions all seven extension studies
  reliability  fault regime x recovery policy sweep over every application
               (paper/burst/permanent x abort/drop/degrade) plus the
               graceful-degradation curve: drop rate and IPC vs the
               force-disabled L1D capacity fraction (-app selects the curve's
               workload)
  state        state-integrity study for the stateful apps (fw, flowtrack):
               fault regime x scrub interval x workload shape, reporting
               checksum detections, recovery-ladder actions, and end-of-run
               flow-record divergence vs the golden shadow (-packets -trials
               -scale; journaled/resumable with -journal/-resume)

common flags: -packets N  -trials N  -scale X  -seed N  -format text|csv
              -out f (write output atomically to f instead of stdout)

resilient campaigns (any experiment command):
  -journal f.jsonl     record every completed grid cell to a durable journal
                       (atomic rewrite per cell; survives kill at any point)
  -resume              with -journal, skip cells already recorded; the resumed
                       campaign's output is byte-identical to an uninterrupted run
  -run-timeout D       per-grid-cell wall-clock deadline (e.g. 90s); a wedged
                       cell fails with a diagnostic instead of hanging the grid
  -retries N           retry transient host failures per cell with exponential
                       backoff; simulated outcomes (drop-rate exceeded, watchdog,
                       traps) are deterministic and never retried
  -retry-backoff D     base retry delay, doubled per attempt (default 100ms)
  SIGINT/SIGTERM       first signal drains in-flight cells, flushes the journal,
                       and reports partial progress; second force-quits

fault containment (any simulation command):
  -recovery abort|drop|degrade
                         abort reproduces the paper's measurement semantics
                         (a fatal error ends the run); drop contains fatal
                         errors at packet granularity: the packet is dropped,
                         simulated memory is rolled back to the last packet
                         boundary, and the run continues; degrade adds the
                         escalating recovery ladder on top of drop: k-strike
                         retry, then per-line disable after repeated strikes,
                         then strike-informed frequency back-off
  -regime paper|burst|permanent
                         fault regime: the paper's memoryless process, the
                         Gilbert-Elliott burst model (voltage-droop episodes),
                         or a per-line stuck-at cell map over the paper process
  -max-drop-rate X       under drop, declare the run failed once the dropped
                         fraction of attempted packets exceeds X (0 = never)
  -watchdog X            per-packet instruction budget as a multiple of the
                         golden run's worst packet (0 = default 500); tight
                         budgets (< 1) make heavy packets trip the watchdog

stateful apps (fw, flowtrack; run/stats/fleet commands):
  -scrub N               flow-table scrub interval in packets (0 = default 64,
                         negative = disabled); the scrub pass verifies every
                         record's checksum and runs the recovery ladder on
                         latent corruption
  -state-strikes N       per-record corruption budget: strike 1 evicts the
                         record, later strikes rebuild it from the golden
                         shadow, exhausting the budget ends the run with an
                         unrecoverable-state error (0 = default 4)

workload v2 (run/stats/fleet commands):
  -shape S               temporal shape: steady, diurnal, flash, or onoff;
                         fleet runs modulate arrival gaps by the shape, batch
                         runs keep the trace order but scale the adversarial
                         and churn pressure with the local intensity
  -shape2 S              stack a second shape multiplicatively on -shape
                         (e.g. on/off bursts riding a diurnal swing); the
                         product is renormalized so the mean rate stays 1
  -periods2 N            cycle count for the -shape2 profile (0 = default)
  -adversarial X         fraction of packets replaced by malformed wire images
                         (truncated headers, fuzzed header fields)
  -churn X               fraction of packets rewritten into fresh one-packet
                         flows (flow-churn flood against stateful tables)

observability (any command):
  -trace-out f.jsonl   structured event trace of every simulated run
                       (fault injections, recoveries, DVS transitions,
                       packet drops, run lifecycle; cycle timestamps)
  -progress            live experiment-grid progress on stderr
  -cpuprofile f        pprof CPU profile of the whole command
  -memprofile f        pprof heap profile written at exit
`)
}
