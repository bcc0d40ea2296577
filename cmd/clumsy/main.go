// Command clumsy regenerates the tables and figures of "A Case for Clumsy
// Packet Processors" (Mallik & Memik, MICRO-37 2004) from the Go
// reproduction, and runs individual simulations.
//
// Usage:
//
//	clumsy <command> [flags]
//
// `clumsy list` names every command and `clumsy <command> -h` lists the
// flags that command reads; a flag the command does not read is an error.
// Every command accepts -out (write the output atomically to a file) and
// the observability flags -trace-out (JSONL event trace of all simulated
// runs), -cpuprofile/-memprofile (pprof) and -progress (grid progress on
// stderr).
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
	"slices"
	"strconv"
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

// cliOpts holds every flag a command can read; each flag is bound to the
// field it sets.
type cliOpts struct {
	opt   experiment.Options // study scale and campaign (studyFlags), grid monitor (-progress)
	cfg   clumsy.Config      // one simulation (runFlags); trace reads Packets and Seed
	fleet cluster.Config     // one fleet simulation (fleetFlags)
	wl    workload.Spec      // workload v2; the zero Spec is the canonical trace

	app        string
	format     string
	describe   bool
	replay     string // -trace: binary trace file to replay
	journal    string
	resume     bool
	out        string
	traceOut   string
	cpuprofile string
	memprofile string
	progress   bool

	tel *telemetry.Telemetry
}

// workload returns the workload-v2 spec, or nil for the canonical trace.
func (o *cliOpts) workload() *workload.Spec {
	if o.wl == (workload.Spec{}) {
		return nil
	}
	return &o.wl
}

// runConfig builds the configuration of the run/stats commands.
func (o *cliOpts) runConfig() clumsy.Config {
	cfg := o.cfg
	cfg.App = o.app
	cfg.Workload = o.workload()
	return cfg
}

// fleetConfig builds the configuration of `fleet -faulty N`; scale, seed
// and containment come from the study flags the degradation study reads.
func (o *cliOpts) fleetConfig() cluster.Config {
	cfg := o.fleet
	cfg.App = o.app
	cfg.Packets, cfg.Seed, cfg.FaultScale = o.opt.Packets, o.opt.Seed, o.opt.FaultScale
	cfg.Recovery, cfg.NodeMaxDropRate = o.opt.Recovery, o.opt.MaxDropRate
	cfg.Workload, cfg.Telemetry = o.workload(), o.tel
	return cfg
}

// command is one clumsy subcommand: the flag groups it reads besides
// obsFlags (which every command reads) and the function that runs it.
type command struct {
	name   string
	help   string // one line for the command list
	groups []group
	run    func(o *cliOpts, w io.Writer) error
}

// group registers a set of related flags, each bound to the cliOpts field
// it sets.
type group func(fs *flag.FlagSet, o *cliOpts)

// commands is the command table, in the order `clumsy list` prints it.
// Each study command runs its entry of the experiment package's study
// table (see studyCmds).
func commands() []command {
	grid := []group{formatFlags, studyFlags}
	sim := []group{appFlag("route"), runFlags, workloadFlags}
	cmds := studyCmds([]group{formatFlags}, "fig1b", "fig2b", "fig3", "fig4", "fig5")
	cmds = append(cmds, studyCmds(grid, "table1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12")...)
	cmds = append(cmds, studyCmds([]group{studyFlags}, "all")...)
	cmds = append(cmds, studyCmds(grid, "verify")...)
	cmds = append(cmds, []command{
		{"run", "one simulation and its full report", sim, runCmd},
		{"stats", "one simulation like run, then dump the telemetry counter registry",
			[]group{appFlag("route"), runFlags, workloadFlags, formatFlags, describeFlag}, stats},
		{"trace", "dump an application's generated workload", []group{appFlag("route"), traceFlags}, traceCmd},
		{"fleet", "fleet-scale serving on the virtual-time cluster simulator: the degradation study, or one fleet simulation with -faulty N",
			[]group{formatFlags, studyFlags, appFlag("route"), fleetFlags, workloadFlags}, fleetCmd},
		{"list", "this text", nil, func(_ *cliOpts, w io.Writer) error { usage(w); return nil }},
	}...)
	return append(cmds, studyCmds(grid, "ecc", "subblock", "exponents", "dvs", "geometry", "tuning", "media",
		"extensions", "reliability", "state", "edf", "errors")...)
}

// studyCmds makes a command of each named entry of the study table, with
// the flag groups given plus -app when the study takes one (its default is
// the study's default app).
func studyCmds(groups []group, names ...string) []command {
	cmds := make([]command, len(names))
	for i, name := range names {
		st, ok := experiment.LookupStudy(name)
		if !ok {
			panic("clumsy: no study " + name)
		}
		gs := groups
		if st.App != "" {
			def := st.App
			if def == experiment.AppRequired {
				def = ""
			}
			gs = append(slices.Clip(groups), appFlag(def))
		}
		cmds[i] = command{name, st.Help, gs, func(o *cliOpts, w io.Writer) error {
			return experiment.RunStudy(name, o.opt, o.app, o.format, w)
		}}
	}
	return cmds
}

// lookup finds a command by name.
func lookup(name string) (command, bool) {
	for _, c := range commands() {
		if c.name == name {
			return c, true
		}
	}
	return command{}, false
}

// flagSet builds the command's flags, bound into o.
func (c command) flagSet(o *cliOpts) *flag.FlagSet {
	fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: clumsy %s [flags]\n\n%s\n\nflags:\n", c.name, c.help)
		fs.PrintDefaults()
	}
	obsFlags(fs, o)
	for _, g := range c.groups {
		g(fs, o)
	}
	return fs
}

// obsFlags: output and observability, read by every command.
func obsFlags(fs *flag.FlagSet, o *cliOpts) {
	fs.StringVar(&o.out, "out", "", "write the command's output atomically to this `file` instead of stdout; a failed or interrupted command leaves no partial file (trace: the binary trace file)")
	fs.StringVar(&o.traceOut, "trace-out", "", "write a JSONL event trace of every simulated run to this `file` (fault injections, recoveries, DVS transitions, packet drops, run lifecycle; cycle timestamps)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a pprof CPU profile of the whole command to this `file`")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a pprof heap profile to this `file` at exit")
	fs.BoolVar(&o.progress, "progress", false, "report live experiment-grid progress on stderr")
}

func formatFlags(fs *flag.FlagSet, o *cliOpts) {
	fs.StringVar(&o.format, "format", "text", "output format: text or csv (stats: text = Prometheus exposition, or json; fleet -faulty: text or json)")
}

func describeFlag(fs *flag.FlagSet, o *cliOpts) {
	fs.BoolVar(&o.describe, "describe", false, "print the registered telemetry instrument and event names instead of running a simulation")
}

// appFlag: the application a command studies or runs, defaulting to def.
func appFlag(def string) group {
	return func(fs *flag.FlagSet, o *cliOpts) {
		fs.StringVar(&o.app, "app", def, "`application`: "+strings.Join(append(apps.Names(), apps.Extras()...), ", "))
	}
}

// Help shared by the study and single-run bindings of the same flag.
const (
	recoveryHelp = "fatal-error `policy`: abort reproduces the paper's measurement semantics (a fatal error ends the run); " +
		"drop contains fatal errors at packet granularity (the packet is dropped, simulated memory rolls back to the last packet boundary, and the run continues); " +
		"degrade adds the escalating recovery ladder on top of drop (k-strike retry, then per-line disable after repeated strikes, then strike-informed frequency back-off)"
	maxDropRateHelp = "under -recovery drop, fail the run once the dropped fraction of attempted packets exceeds this (0 = never)"
)

// studyFlags: experiment scale and the resilient-campaign controls.
func studyFlags(fs *flag.FlagSet, o *cliOpts) {
	fs.IntVar(&o.opt.Packets, "packets", 0, "packets per run (0 = default 2000)")
	fs.IntVar(&o.opt.Trials, "trials", 0, "independent seeds averaged per configuration (0 = default 3)")
	fs.Float64Var(&o.opt.FaultScale, "scale", 0, "fault-rate multiplier, 1 = the paper's physical rate (0 = default 1)")
	fs.Uint64Var(&o.opt.Seed, "seed", 0, "experiment seed (0 = default 1)")
	fs.Var(enumFlag[clumsy.RecoveryPolicy]{&o.opt.Recovery, clumsy.ParseRecoveryPolicy}, "recovery", recoveryHelp)
	fs.Float64Var(&o.opt.MaxDropRate, "max-drop-rate", 0, maxDropRateHelp)
	fs.StringVar(&o.journal, "journal", "", "record every completed grid cell to this JSONL journal `file` (atomic rewrite per cell, so a kill at any point leaves a complete prefix); "+
		"the first SIGINT/SIGTERM drains in-flight cells and flushes it, a second force-quits")
	fs.BoolVar(&o.resume, "resume", false, "with -journal, skip the cells already recorded; the output is byte-identical to an uninterrupted run")
	fs.DurationVar(&o.opt.RunTimeout, "run-timeout", 0, "per-grid-cell wall-clock deadline, e.g. 90s: a wedged cell fails with a diagnostic naming it instead of hanging the grid (0 = none)")
}

// runFlags: one simulation (run, stats).
func runFlags(fs *flag.FlagSet, o *cliOpts) {
	c := &o.cfg
	fs.IntVar(&c.Packets, "packets", 1000, "packets in the run")
	fs.Uint64Var(&c.Seed, "seed", 1, "trace and fault seed")
	fs.Float64Var(&c.FaultScale, "scale", 1, "fault-rate multiplier (1 = the paper's physical rate)")
	fs.Float64Var(&c.CycleTime, "cr", 1, "relative cycle time (1 = nominal clock)")
	fs.BoolVar(&c.Dynamic, "dynamic", false, "use the dynamic frequency controller")
	fs.BoolFunc("parity", "enable parity detection in the L1 data cache", func(s string) error {
		on, err := strconv.ParseBool(s)
		c.Detection = cache.DetectionNone
		if on {
			c.Detection = cache.DetectionParity
		}
		return err
	})
	fs.IntVar(&c.Strikes, "strikes", 1, "recovery strikes under -parity")
	fs.Var(enumFlag[clumsy.FaultRegime]{&c.Regime, clumsy.ParseFaultRegime}, "regime",
		"fault `regime`: paper (the memoryless process), burst (Gilbert-Elliott voltage-droop episodes), or permanent (a per-line stuck-at cell map over the paper process)")
	fs.Var(enumFlag[clumsy.RecoveryPolicy]{&c.Recovery, clumsy.ParseRecoveryPolicy}, "recovery", recoveryHelp)
	fs.Float64Var(&c.MaxDropRate, "max-drop-rate", 0, maxDropRateHelp)
	fs.Float64Var(&c.WatchdogFactor, "watchdog", 0, "per-packet instruction budget as a multiple of the golden run's worst packet (0 = default 500); budgets below 1 make heavy packets trip the watchdog")
	fs.IntVar(&c.ScrubInterval, "scrub", 0, "stateful apps: flow-table scrub interval in packets (0 = default 64, negative = disabled); a scrub pass verifies every record's checksum and runs the recovery ladder on latent corruption")
	fs.IntVar(&c.StateStrikes, "state-strikes", 0, "stateful apps: per-record corruption budget; strike 1 evicts the record, later strikes rebuild it from the golden shadow, and an exhausted budget ends the run with an unrecoverable-state error (0 = default 4)")
	fs.StringVar(&o.replay, "trace", "", "replay this binary trace `file` (written by trace -out) instead of generating one")
}

// traceFlags: the generated workload of the trace command.
func traceFlags(fs *flag.FlagSet, o *cliOpts) {
	fs.IntVar(&o.cfg.Packets, "packets", 20, "packets to generate")
	fs.Uint64Var(&o.cfg.Seed, "seed", 1, "trace seed")
}

// workloadFlags: the workload-v2 stream (run, stats, fleet -faulty).
func workloadFlags(fs *flag.FlagSet, o *cliOpts) {
	fs.Var(enumFlag[workload.Shape]{&o.wl.Shape, workload.ParseShape}, "shape",
		"temporal `shape`: steady, diurnal, flash, or onoff; fleet runs modulate arrival gaps by the shape, batch runs keep the trace order but scale the adversarial and churn pressure with the local intensity")
	fs.Var(enumFlag[workload.Shape]{&o.wl.Shape2, workload.ParseShape}, "shape2",
		"second `shape` multiplied onto -shape (e.g. on/off bursts riding a diurnal swing), renormalized so the mean rate stays 1")
	fs.IntVar(&o.wl.Periods2, "periods2", 0, "cycle count of the -shape2 profile (0 = that shape's default)")
	fs.Float64Var(&o.wl.Adversarial, "adversarial", 0, "fraction of packets replaced by malformed wire images (truncated headers, fuzzed header fields)")
	fs.Float64Var(&o.wl.Churn, "churn", 0, "fraction of packets rewritten into fresh one-packet flows (a flow-churn flood against stateful tables)")
}

// fleetFlags: one fleet simulation of N nodes behind a dispatcher, with
// node health tracking, drain-and-re-clock, failover and SLO-guarded
// load shedding.
func fleetFlags(fs *flag.FlagSet, o *cliOpts) {
	f := &o.fleet
	fs.IntVar(&f.FaultyNodes, "faulty", -1, "run one fleet simulation with this many hostile nodes and report its SLO attainment (-1 = run the journaled degradation study, a faulty-node fraction sweep)")
	fs.IntVar(&f.Nodes, "nodes", 0, "node count of one fleet simulation (0 = 8)")
	fs.Var(enumFlag[cluster.DispatchPolicy]{&f.Dispatch, cluster.ParseDispatchPolicy}, "dispatch", "dispatch `policy` of one fleet simulation: flow or least")
	fs.Float64Var(&f.CycleTime, "cr", 0, "static operating point of every node of one fleet simulation (0 = 0.5)")
	fs.BoolVar(&f.Dynamic, "dynamic", false, "clock every node of one fleet simulation with the dynamic frequency controller")
}

// enumFlag binds a flag to an enumerated field through its parser, so -h
// shows the default by name.
type enumFlag[T fmt.Stringer] struct {
	p     *T
	parse func(string) (T, error)
}

func (f enumFlag[T]) String() string {
	if f.p == nil { // the zero Value flag.PrintDefaults compares against
		return ""
	}
	return (*f.p).String()
}

func (f enumFlag[T]) Set(s string) error {
	v, err := f.parse(s)
	if err != nil {
		return err
	}
	*f.p = v
	return nil
}

// run parses the command's flags, stands up the observability stack
// (telemetry hub, trace sink, grid monitor, pprof profiles), and runs the
// command.
func run(args []string, w io.Writer) (err error) {
	if len(args) == 0 {
		usage(w)
		return fmt.Errorf("missing command name")
	}
	c, ok := lookup(args[0])
	if !ok {
		usage(w)
		return fmt.Errorf("unknown command %q", args[0])
	}
	o := new(cliOpts)
	fs := c.flagSet(o)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("%s: unexpected argument %q", c.name, fs.Arg(0))
	}
	if o.resume && o.journal == "" {
		return fmt.Errorf("-resume requires -journal")
	}

	// Campaign context: the first SIGINT/SIGTERM cancels it, letting the
	// experiment grids drain in-flight cells, flush the journal, and report
	// partial progress. A second signal force-quits.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o.opt.Ctx = ctx
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

	// Observability stack. The hub is installed as the process default so
	// that every clumsy.Run — including the ones buried inside experiment
	// grids — is counted and traced without plumbing changes.
	o.tel = telemetry.New()
	clumsy.SetDefaultTelemetry(o.tel)
	defer clumsy.SetDefaultTelemetry(nil)
	if o.traceOut != "" {
		// Atomic: the trace file appears under its final name only once the
		// sink is flushed and closed, so a killed command never leaves a
		// truncated JSONL behind.
		f, err := atomicio.Create(o.traceOut)
		if err != nil {
			return err
		}
		sink := telemetry.NewJSONLSink(f)
		o.tel.SetSink(sink)
		defer sink.Close()
	}
	if o.journal != "" {
		j, loaded, jerr := experiment.OpenJournal(o.journal, o.resume)
		if jerr != nil {
			return jerr
		}
		o.opt.Journal = j
		if o.resume {
			fmt.Fprintf(os.Stderr, "clumsy: resuming campaign from %s (%d cells recorded)\n", o.journal, loaded)
			o.tel.StartRun(nil).CampaignResume(o.journal, loaded)
		}
	}
	if o.progress {
		o.opt.Monitor = &telemetry.RunMonitor{Registry: o.tel.Registry, OnProgress: printProgress}
	}
	if o.cpuprofile != "" {
		f, err := atomicio.Create(o.cpuprofile)
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
	if o.memprofile != "" {
		defer writeHeapProfile(o.memprofile)
	}
	err = dispatch(c, o, w)
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
func dispatch(c command, o *cliOpts, w io.Writer) error {
	if o.out != "" && c.name != "trace" {
		return atomicio.WriteFile(o.out, func(f io.Writer) error {
			return c.run(o, f)
		})
	}
	return c.run(o, w)
}

// printProgress renders one grid-progress line on stderr (carriage-return
// updated in place, finished with a newline).
func printProgress(p telemetry.Progress) {
	// Cells that never ran (grid failure or cancellation) would otherwise
	// vanish from the count: Done never reaches Total and the line looks
	// stuck.
	skipped := ""
	if p.Skipped > 0 {
		skipped = fmt.Sprintf("  skipped=%d", p.Skipped)
	}
	fmt.Fprintf(os.Stderr, "\r%d/%d runs  avg %v/run  elapsed %v  workers %.0f%% busy%s   ",
		p.Done, p.Total,
		p.AvgRun.Round(time.Millisecond), p.Elapsed.Round(time.Millisecond),
		p.Utilization()*100, skipped)
	if p.Done+p.Skipped >= p.Total {
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

// fleetCmd runs one fleet simulation with -faulty N (text, or -format
// json), otherwise the journaled fleet degradation study.
func fleetCmd(o *cliOpts, w io.Writer) error {
	if o.fleet.FaultyNodes < 0 {
		return experiment.RunStudy("fleet", o.opt, o.app, o.format, w)
	}
	r, err := cluster.Run(o.fleetConfig())
	if err != nil {
		return err
	}
	if o.format == "json" {
		return r.WriteJSON(w)
	}
	return r.WriteText(w)
}

func runCmd(o *cliOpts, w io.Writer) error {
	res, err := runOne(o.runConfig(), o.replay)
	if err != nil {
		return err
	}
	return report(w, res)
}

// stats executes one run exactly like run (same defaults and seeding, so
// its counts match a trace captured by `run -trace-out` with the same
// flags), then dumps the counter registry.
func stats(o *cliOpts, w io.Writer) error {
	if o.describe {
		return describeNames(w)
	}
	if _, err := runOne(o.runConfig(), o.replay); err != nil {
		return err
	}
	if o.format == "json" {
		return o.tel.Registry.WriteJSON(w)
	}
	return o.tel.Registry.WritePrometheus(w)
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

func traceCmd(o *cliOpts, w io.Writer) error {
	return dumpTrace(w, o.app, o.cfg.Packets, o.cfg.Seed, o.out)
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

// usage lists the commands from the table.
func usage(w io.Writer) {
	fmt.Fprint(w, "usage: clumsy <command> [flags]\n\ncommands:\n")
	for _, c := range commands() {
		fmt.Fprintf(w, "  %-12s %s\n", c.name, c.help)
	}
	fmt.Fprint(w, "\n`clumsy <command> -h` lists the flags a command reads.\n")
}
