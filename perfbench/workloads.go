package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"clumsy/internal/cache"
	"clumsy/internal/clumsy"
	"clumsy/internal/service"
	"clumsy/internal/telemetry"
	"clumsy/internal/workload"
)

// runDef is one simulated configuration of a run workload. Seed and
// Packets are filled in per run.
type runDef struct {
	name string
	cfg  clumsy.Config
}

// benchWorkload is one named set of inputs. Run workloads make
// clumsy.Run calls back to back on one goroutine; the campaign workload
// submits a batch of campaigns to an in-process service.
type benchWorkload struct {
	name string
	why  string

	runs     []runDef // the runs of one batch (run workloads)
	packets  int      // trace length of every run
	subSeeds int      // each run repeats over this many seeds derived from --seed

	studies []service.Spec // the campaigns of one batch (campaign workload)

	// setup lists the configurations whose 1-packet Run defines setup_s
	// and clumsy.fixed_ms.
	setup []clumsy.Config
}

// paperPoint is the operating point of the run workloads: Cr 0.5 with
// parity and two strikes, the fault rate amplified 25x so a run of a few
// thousand packets sees faults, the paper's memoryless regime and the
// paper's abort-on-fatal semantics.
var paperPoint = clumsy.Config{CycleTime: 0.5, Detection: cache.DetectionParity, Strikes: 2, FaultScale: 25}

// adversarialMix is the workload-v2 spec of the stateful run-contain
// configurations: 2% malformed packets and 5% flow churn.
var adversarialMix = workload.Spec{Adversarial: 0.02, Churn: 0.05}

// campaignPackets and campaignTrials are the reduced scale of every
// campaign of the campaign workload.
const (
	campaignPackets = 300
	campaignTrials  = 1
)

func at(base clumsy.Config, app string, edit func(*clumsy.Config)) clumsy.Config {
	c := base
	c.App = app
	if edit != nil {
		edit(&c)
	}
	return c
}

func workloads() []*benchWorkload {
	var abortRuns []runDef
	for _, app := range []string{"crc", "tl", "route", "drr", "nat", "md5", "url"} {
		abortRuns = append(abortRuns, runDef{app, at(paperPoint, app, nil)})
	}
	containRuns := []runDef{
		// Commit-only: a checkpoint commit and a cache snapshot at every
		// packet, never restored at this fault rate.
		{"route/drop", at(paperPoint, "route", func(c *clumsy.Config) { c.Recovery = clumsy.RecoverDrop })},
		// Restore-heavy: bursts make contained drops, each rolling the
		// memory and the caches back. The watchdog budget is cut to 10x
		// the worst golden packet so that a drop costs its restore, not
		// 500x a packet of simulated spinning, which would make the run's
		// host time depend on how many bursts a seed happens to draw.
		{"drr/degrade-burst", at(paperPoint, "drr", func(c *clumsy.Config) {
			c.Recovery, c.Regime, c.FaultScale, c.WatchdogFactor = clumsy.RecoverDegrade, clumsy.RegimeBurst, 200, 10
		})},
		// Stateful apps under adversarial traffic: the state guard
		// verifies, evicts and rebuilds flow records.
		{"fw/degrade-burst", at(paperPoint, "fw", func(c *clumsy.Config) {
			c.Recovery, c.Regime, c.Workload = clumsy.RecoverDegrade, clumsy.RegimeBurst, &adversarialMix
		})},
		{"flowtrack/degrade-permanent", at(paperPoint, "flowtrack", func(c *clumsy.Config) {
			c.Recovery, c.Regime, c.Workload = clumsy.RecoverDegrade, clumsy.RegimePermanent, &adversarialMix
		})},
	}
	setupOf := func(runs []runDef) []clumsy.Config {
		var out []clumsy.Config
		for _, r := range runs {
			out = append(out, r.cfg)
		}
		return out
	}
	return []*benchWorkload{
		{
			name:     "run-abort",
			why:      "one long run per paper app under the paper's abort semantics: the per-packet access path does the work",
			runs:     abortRuns,
			packets:  4000,
			subSeeds: 4,
			setup:    setupOf(abortRuns),
		},
		{
			name:     "run-contain",
			why:      "long runs with recovery armed: per-packet commit (route/drop), restores (drr) and the state guard (fw, flowtrack)",
			runs:     containRuns,
			packets:  3000,
			subSeeds: 6,
			setup:    setupOf(containRuns),
		},
		{
			name: "campaign",
			why:  "a batch of reduced-scale campaigns through the in-process service: many short runs, so fixed per-run cost dominates",
			studies: []service.Spec{
				{Study: "table1"}, {Study: "reliability"}, {Study: "state"},
				{Study: "fleet", App: "route"}, {Study: "edf", App: "route"}, {Study: "fig8"},
			},
			// One representative configuration per study, at the
			// studies' own fault rate (FaultScale 1).
			setup: []clumsy.Config{
				{App: "crc", CycleTime: 0.5}, // table1
				{App: "route", CycleTime: 0.5, Recovery: clumsy.RecoverDrop, Regime: clumsy.RegimeBurst},                                              // reliability
				{App: "fw", CycleTime: 0.5, Detection: cache.DetectionParity, Strikes: 2, Recovery: clumsy.RecoverDegrade, Workload: &adversarialMix}, // state
				{App: "route", CycleTime: 0.5, Detection: cache.DetectionParity, Strikes: 2, Recovery: clumsy.RecoverDrop},                            // fleet node
				{App: "route", Dynamic: true, Detection: cache.DetectionParity, Strikes: 2},                                                           // edf
				{App: "md5", CycleTime: 0.25}, // fig8
			},
		},
	}
}

func findWorkload(name string) (*benchWorkload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, names)
}

// subSeed derives the k-th run seed from the benchmark seed (splitmix64),
// so every run of a batch draws its own trace and fault stream.
func subSeed(seed uint64, k int) uint64 {
	z := seed + uint64(k+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// batch is the outcome of one closed-loop batch.
type batch struct {
	wall      time.Duration // first call to last return; for campaigns, first Submit to last Done
	simPkts   uint64        // packets simulated (see README: golden+faulty for runs, faulty for campaigns)
	allocB    uint64        // host bytes allocated
	mallocs   uint64        // host allocations
	runs      uint64        // faulty simulation passes (the hub's run.count)
	counts    map[string]uint64
	campaignS time.Duration // campaign batches only
	cpu       time.Duration // host CPU time of the whole process over the batch
}

// processCPU returns the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// exactCounters are the hub counters a batch must reproduce exactly.
var exactCounters = []string{
	telemetry.CtrRunCount, telemetry.CtrRunFatal,
	telemetry.CtrRunPacketsProcessed, telemetry.CtrRunPacketsDropped,
	telemetry.CtrRunInstructions, telemetry.CtrRunCycles,
	telemetry.CtrCyclesCompute, telemetry.CtrCyclesL1DStall, telemetry.CtrCyclesL1IStall,
	telemetry.CtrCyclesL2Stall, telemetry.CtrCyclesMemStall, telemetry.CtrCyclesRecovery,
	telemetry.CtrCyclesFreqPenalty,
	telemetry.CacheCounterName("l1d", "reads"), telemetry.CacheCounterName("l1d", "writes"),
	telemetry.CacheCounterName("l1d", "read_misses"), telemetry.CacheCounterName("l1d", "write_misses"),
	telemetry.CtrCacheL1DLinesDisabled,
	telemetry.CtrRecoveryContained, telemetry.CtrRecoveryRestoredPages,
	telemetry.CtrStateDetected, telemetry.CtrCampaignCellsDone,
}

func counterSnapshot(reg *telemetry.Registry) map[string]uint64 {
	out := make(map[string]uint64, len(exactCounters))
	for _, name := range exactCounters {
		out[name] = reg.Counter(name).Load()
	}
	return out
}

// bench carries the state of one benchmark process.
type bench struct {
	seed  uint64
	hub   *telemetry.Telemetry
	chk   *checker
	tmp   string // scratch directory inside the checkout
	procs int
}

// measure runs one batch and records the host cost of body and the hub
// counters it moved; body sets the batch's wall time itself.
func (b *bench) measure(w *benchWorkload, tr *tracer, body func(*batch)) batch {
	tr.newGroup()
	tr.begin("batch")
	defer tr.end(0)
	var out batch
	before := counterSnapshot(b.hub.Registry)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := processCPU()
	body(&out)
	out.cpu = processCPU() - c0
	runtime.ReadMemStats(&ms1)
	out.allocB, out.mallocs = ms1.TotalAlloc-ms0.TotalAlloc, ms1.Mallocs-ms0.Mallocs
	out.counts = counterDelta(before, counterSnapshot(b.hub.Registry))
	out.runs = out.counts[telemetry.CtrRunCount]
	b.chk.exactCounts(w.name, out.counts)
	return out
}

func counterDelta(before, after map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// runBatch makes every run of the workload once, back to back.
func (b *bench) runBatch(w *benchWorkload, tr *tracer, out *batch) {
	t0 := time.Now()
	for _, def := range w.runs {
		for k := 0; k < w.subSeeds; k++ {
			cfg := def.cfg
			cfg.Seed, cfg.Packets = subSeed(b.seed, k), w.packets
			tr.begin("clumsy.Run")
			r, err := clumsy.Run(cfg)
			tr.end(1)
			if b.chk.run(fmt.Sprintf("%s/%s/%d", w.name, def.name, k), r, err) {
				out.simPkts += uint64(r.Config.Packets + r.Report.Processed + r.Report.Dropped)
			}
		}
	}
	out.wall = time.Since(t0)
}

// campaignBatch starts a service on a fresh data directory, submits every
// campaign of the workload at once and waits for all of them.
func (b *bench) campaignBatch(w *benchWorkload, tr *tracer, out *batch) {
	dir, err := os.MkdirTemp(b.tmp, "campaign-")
	if !b.chk.op("campaign data dir", err) {
		return
	}
	defer os.RemoveAll(dir)
	tr.begin("service.New")
	svc, err := service.New(service.Config{DataDir: dir, MaxConcurrent: b.procs, Telemetry: b.hub})
	tr.end(1)
	if !b.chk.op("service.New", err) {
		return
	}
	defer func() {
		tr.begin("service.Close")
		svc.Close()
		tr.end(1)
	}()
	t0 := time.Now()
	var ids []string
	for _, sp := range w.studies {
		sp.Packets, sp.Trials, sp.Seed = campaignPackets, campaignTrials, b.seed
		tr.begin("service.Submit")
		st, err := svc.Submit(sp)
		tr.end(1)
		if b.chk.op("submit "+sp.Study, err) {
			ids = append(ids, st.ID)
		}
	}
	tr.begin("service.wait")
	camps := make([]*service.Campaign, len(ids))
	for i, id := range ids {
		camps[i], _ = svc.Get(id)
		<-camps[i].Done()
	}
	tr.end(len(ids))
	out.campaignS = time.Since(t0)
	out.wall = out.campaignS

	states := map[string]string{}
	for _, st := range svc.List() {
		states[st.ID] = st.State
	}
	for i, c := range camps {
		key := fmt.Sprintf("%s/%s", w.name, w.studies[i].Study)
		var err error
		if states[c.ID] != "completed" {
			err = fmt.Errorf("campaign ended %s", states[c.ID])
		} else {
			var res []byte
			if res, err = c.Result(); err == nil {
				err = b.chk.digest(key, bytesDigest(res))
			}
		}
		b.chk.op(key, err)
	}
}

func (b *bench) batch(w *benchWorkload, tr *tracer) batch {
	if w.studies == nil {
		return b.measure(w, tr, func(out *batch) { b.runBatch(w, tr, out) })
	}
	out := b.measure(w, tr, func(out *batch) { b.campaignBatch(w, tr, out) })
	// The golden passes of a campaign's cells are not visible from outside
	// the service: count the faulty passes the hub saw.
	out.simPkts = out.counts[telemetry.CtrRunPacketsProcessed] + out.counts[telemetry.CtrRunPacketsDropped]
	return out
}

// setupSeconds measures the fixed cost one simulation pays before its
// first packet: the host CPU time of 1-packet Runs of every setup
// configuration, several rounds, one sample per call.
func (b *bench) setupSeconds(w *benchWorkload, rounds int, tr *tracer) []float64 {
	var out []float64
	for r := 0; r < rounds; r++ {
		for i, cfg := range w.setup {
			cfg.Seed, cfg.Packets = subSeed(b.seed, 0), 1
			// Start every sample from the same heap state, so one
			// sample's garbage is not collected on the next one's time.
			runtime.GC()
			tr.begin("clumsy.Run/1pkt")
			c0 := processCPU()
			_, err := clumsy.Run(cfg)
			d := processCPU() - c0
			tr.end(1)
			if b.chk.op(fmt.Sprintf("%s setup %d", w.name, i), err) {
				out = append(out, d.Seconds())
			}
		}
	}
	return out
}

// buildDir is where the benchmark keeps everything it writes: the
// directory the wrapper builds into, inside the checkout.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// scratchDir makes the benchmark's temporary directory in the build
// directory.
func scratchDir() (string, error) {
	if err := os.MkdirAll(buildDir(), 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(buildDir(), "perfbench-tmp-")
}
