// Command perfbench is the repository's benchmark. It runs one named
// workload (or all of them) against the simulator from a single process,
// checks every output against committed digests, and prints each metric by
// name with its unit, ending with one JSON line. See README.md.
//
// Usage (from the root of the repository, through the wrapper that builds
// it inside the checkout):
//
//	bash perfbench/run.sh --workload run-abort --seed 7 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all
//	bash perfbench/run.sh --ab-a ../parent --ab-b . --workload campaign --pairs 10
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"clumsy/internal/clumsy"
	"clumsy/internal/telemetry"
)

// metricDef is one reported metric: its unit and which direction is better.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off; bound is the share of the parent's median by which each
// may worsen before a change counts as a regression. Host time is CPU
// time (user plus system, every thread of the process, garbage collection
// included): on a shared virtual machine wall-clock figures swing by up to
// half with the neighbours' load, CPU time by much less. The wall figures
// are printed beside them and reported by the traced run.
var endToEnd = []metricDef{
	{"sim_pkts_per_cpu_s", "pkt/cpu_s", "higher", 0.25},
	{"batch_cpu_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.1},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics, one or more per module.
var perLayer = func() []metricDef {
	lower := func(unit string, names ...string) []metricDef {
		var out []metricDef
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: "lower"})
		}
		return out
	}
	var out []metricDef
	add := func(ds ...[]metricDef) {
		for _, d := range ds {
			out = append(out, d...)
		}
	}
	var studies []string
	for _, s := range studyRunners {
		studies = append(studies, "experiment.study_s."+s.name)
	}
	var buckets []string
	for _, b := range []string{"compute", "l1d_stall", "l1i_stall", "l2_stall", "mem_stall", "recovery", "freq_penalty"} {
		buckets = append(buckets, "cache.cycles_"+b+"_per_pkt")
	}
	var journals []string
	for _, s := range journalSizes {
		journals = append(journals, "atomicio.write_file_ms."+s.name)
	}
	add(
		lower("ms", "clumsy.fixed_ms"),
		lower("us/pkt", "clumsy.marginal_us_per_pkt"),
		lower("s", "clumsy.golden_s", "clumsy.faulty_s"),
		lower("allocs/pkt", "clumsy.allocs_per_pkt"),
		lower("frac", "clumsy.fixed_share"),
		lower("count", "clumsy.runs_per_batch"),
		lower("instr/pkt", "clumsy.instrs_per_pkt"),
		lower("cycles/pkt", "clumsy.cycles_per_pkt"),
		lower("count", "clumsy.contained", "clumsy.fatal_runs"),
		lower("ms", "cache.new_hierarchy_ms"),
		lower("ns", "cache.l1d_load_hit_ns", "cache.l1d_load_miss_ns", "cache.l1d_store_ns",
			"cache.snapshot_ns", "cache.restore_ns", "cache.coherent_dma_ns"),
		lower("cycles/pkt", buckets...),
		lower("count/pkt", "cache.l1d_accesses_per_pkt"),
		lower("frac", "cache.l1d_miss_rate"),
		lower("count", "cache.lines_disabled"),
		lower("ms", "simmem.new_space_ms"),
		lower("ns", "simmem.checkpoint_commit_ns"),
		lower("ns/page", "simmem.checkpoint_restore_ns_per_page"),
		lower("count", "simmem.restored_pages", "simmem.state_detected"),
		lower("ms", "fault.new_model_ms"),
		lower("ns", "fault.next_ns.paper", "fault.next_ns.burst", "fault.next_ns.stuckat"),
		lower("ns", "metrics.observe_ns"),
		lower("allocs", "metrics.observe_allocs"),
		lower("ns/pkt", "metrics.compare_ns_per_pkt"),
		lower("ns/pkt", "packet.generate_ns_per_pkt", "workload.apply_ns_per_pkt"),
		lower("s", studies...),
		lower("s", "experiment.studies_s"),
		lower("count", "experiment.cells"),
		lower("ms", journals...),
		lower("ms", "service.new_ms", "service.submit_ms"),
		lower("s", "service.overhead_s", "campaign_s"),
		[]metricDef{{Name: "wall.sim_pkts_per_s", Unit: "pkt/s", Better: "higher"}},
		lower("s", "wall.batch_s"),
		lower("us/pkt", "cluster.run_us_per_pkt"),
		lower("ns", "telemetry.counter_add_ns"),
		lower("s", "trace.wall_s", "trace.self_sum_s"),
		lower("ms", "trace.overhead_ms"),
		lower("frac", "failed_frac"),
	)
	return out
}()

// setupRounds is how many times the untraced run measures each setup
// configuration; setup_s is the median of all those samples.
const setupRounds = 10

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last line of standard output.
type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: run-abort, run-contain, campaign or all")
	seed := fs.Uint64("seed", 7, "input seed; the committed digests are for seed 7")
	seconds := fs.Float64("seconds", 10, "how long the measured phase runs")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	update := fs.Bool("update-digests", false, "record this run's output digests as the committed ones (perfbench/digests.json)")
	abA := fs.String("ab-a", "", "A/B mode: checkout of the parent commit")
	abB := fs.String("ab-b", "", "A/B mode: checkout of the change")
	pairs := fs.Int("pairs", 10, "A/B mode: alternating pairs to run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *abA != "" || *abB != "" {
		return abMain(*abA, *abB, *name, *seed, *seconds, *pairs)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var ws []*benchWorkload
	if *name == "all" {
		ws = workloads()
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		ws = []*benchWorkload{w}
	}

	chk, err := newChecker(*seed, committedDigests)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *update {
		chk.expected = nil
	}
	tmp, err := scratchDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	// Counters on, no trace sink: the program as cmd/clumsy and
	// cmd/clumsyd run it.
	hub := telemetry.New()
	clumsy.SetDefaultTelemetry(hub)
	defer clumsy.SetDefaultTelemetry(nil)
	b := &bench{seed: *seed, hub: hub, chk: chk, tmp: tmp, procs: runtime.GOMAXPROCS(0)}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	printEnv(out, *seed)
	measured := time.Duration(*seconds * float64(time.Second))
	all := map[string]metricOut{}
	for _, w := range ws {
		var ms map[string]float64
		var defs []metricDef
		if *trace == 1 {
			ms, defs = b.traced(w, measured), perLayer
		} else {
			ms, defs = b.untraced(w, measured), endToEnd
		}
		ms["failed_frac"] = chk.failedFrac()
		printMetrics(out, w.name, ms, defs, *trace == 0)
		for _, d := range defs {
			key := d.Name
			if len(ws) > 1 {
				key = w.name + "." + d.Name
			}
			all[key] = metricOut{finite(ms[d.Name]), d.Unit}
		}
	}
	for _, p := range chk.problems {
		fmt.Fprintln(out, "FAILED:", p)
	}
	if *update {
		if *seed != 7 || chk.failed > 0 {
			fmt.Fprintln(os.Stderr, "perfbench: digests are recorded only from a clean run at seed 7")
			return 1
		}
		if err := chk.writeDigests(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	rep := report{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: all}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if chk.failed > 0 {
		return 1
	}
	return 0
}

// untraced measures the end-to-end metrics: setup_s from 1-packet runs,
// then closed-loop batches until the measured time is spent (at least two,
// so outputs are always checked against a repeat), each figure the median
// over batches.
func (b *bench) untraced(w *benchWorkload, measured time.Duration) map[string]float64 {
	setup := b.setupSeconds(w, setupRounds, nil)
	bs := b.batches(w, measured, 2, nil)
	m := wallMetrics(bs)
	m["setup_s"] = median(setup)
	m["sim_pkts_per_cpu_s"] = medianOf(bs, func(x batch) float64 { return float64(x.simPkts) / x.cpu.Seconds() })
	m["batch_cpu_s"] = medianOf(bs, func(x batch) float64 { return x.cpu.Seconds() })
	m["alloc_mb"] = medianOf(bs, func(x batch) float64 { return float64(x.allocB) / 1e6 })
	return m
}

// wallMetrics are the wall-clock figures of a set of batches: printed by
// every run, reported as per-layer metrics by the traced run.
func wallMetrics(bs []batch) map[string]float64 {
	return map[string]float64{
		"wall.sim_pkts_per_s": medianOf(bs, func(x batch) float64 { return float64(x.simPkts) / x.wall.Seconds() }),
		"wall.batch_s":        medianOf(bs, func(x batch) float64 { return x.wall.Seconds() }),
		"campaign_s":          medianOf(bs, func(x batch) float64 { return x.campaignS.Seconds() }),
	}
}

// batches runs closed-loop batches until measured has passed and at least
// minimum batches ran.
func (b *bench) batches(w *benchWorkload, measured time.Duration, minimum int, tr *tracer) []batch {
	var bs []batch
	t0 := time.Now()
	for len(bs) < minimum || time.Since(t0) < measured {
		bs = append(bs, b.batch(w, tr))
	}
	return bs
}

func medianOf(bs []batch, f func(batch) float64) float64 {
	xs := make([]float64, len(bs))
	for i, x := range bs {
		xs[i] = f(x)
	}
	return median(xs)
}

// traced is the per-layer run. Half the measured time goes to untraced
// batches, half to the same batches with a span around every call into the
// program; then the decomposition calls run, each in its own span. The
// spans are written to the build directory and their self times become the
// per-layer metrics.
func (b *bench) traced(w *benchWorkload, measured time.Duration) map[string]float64 {
	plain := b.batches(w, measured/2, 2, nil)

	tr := newTracer()
	tr.begin("perfbench")
	spanned := b.batches(w, measured/2, 1, tr)
	camp := spanned
	if w.studies == nil {
		cw, _ := findWorkload("campaign")
		camp = []batch{b.batch(cw, tr)}
	}
	m := b.decompose(w, tr)
	wall := tr.end(0)

	wallOf := func(x batch) float64 { return x.wall.Seconds() }
	for k, v := range wallMetrics(plain) {
		m[k] = v
	}
	for k, v := range exactMetrics(plain[0]) {
		m[k] = v
	}
	var pkts, mallocs uint64
	for _, x := range plain {
		pkts += x.simPkts
		mallocs += x.mallocs
	}
	m["clumsy.allocs_per_pkt"] = float64(mallocs) / float64(max(pkts, 1))
	m["clumsy.fixed_share"] = m["clumsy.fixed_ms"] / 1e3 * m["clumsy.runs_per_batch"] / medianOf(plain, wallOf)
	m["campaign_s"] = medianOf(camp, func(x batch) float64 { return x.campaignS.Seconds() })
	m["service.overhead_s"] = m["campaign_s"] - m["experiment.studies_s"]

	layers := byName(tr.spans)
	perCall := func(name string) float64 {
		lt := layers[name]
		return lt.self.Seconds() / float64(max(lt.n, 1))
	}
	m["service.new_ms"] = perCall("service.New") * 1e3
	m["service.submit_ms"] = perCall("service.Submit") * 1e3
	var selfSum time.Duration
	for _, d := range selfTimes(tr.spans) {
		selfSum += d
	}
	m["trace.wall_s"] = wall.Seconds()
	m["trace.self_sum_s"] = selfSum.Seconds()
	m["trace.overhead_ms"] = (medianOf(spanned, wallOf) - medianOf(plain, wallOf)) * 1e3

	path := filepath.Join(buildDir(), fmt.Sprintf("perfbench-trace-%s-seed%d.jsonl", w.name, b.seed))
	if f, err := os.Create(path); b.chk.op("write trace", err) {
		werr := tr.writeJSONL(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		b.chk.op("write trace", werr)
	}
	return m
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// printMetrics prints one line per metric. The untraced run adds the
// wall-clock figures and the failure share, which its JSON line does not
// carry.
func printMetrics(out *bufio.Writer, workload string, ms map[string]float64, defs []metricDef, untraced bool) {
	line := func(name string, v float64, unit string) {
		fmt.Fprintf(out, "%-12s %-38s %14.6g %s\n", workload, name, v, unit)
	}
	for _, d := range defs {
		line(d.Name, ms[d.Name], d.Unit)
	}
	if !untraced {
		return
	}
	line("sim_pkts_per_s", ms["wall.sim_pkts_per_s"], "pkt/s")
	line("batch_s", ms["wall.batch_s"], "s")
	if v := ms["campaign_s"]; v > 0 {
		line("campaign_s", v, "s")
	} else {
		fmt.Fprintf(out, "%-12s %-38s %14s %s\n", workload, "campaign_s", "n/a", "s")
	}
	line("failed_frac", ms["failed_frac"], "frac")
}

// printEnv prints the environment the figures were measured in.
func printEnv(out *bufio.Writer, seed uint64) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	env, _ := json.Marshal(map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "cpu": cpu,
		"go": runtime.Version(), "commit": commit, "seed": seed,
	})
	fmt.Fprintf(out, "env %s\n", env)
}
