package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"clumsy/internal/apps"
	"clumsy/internal/atomicio"
	"clumsy/internal/cache"
	"clumsy/internal/clumsy"
	"clumsy/internal/cluster"
	"clumsy/internal/experiment"
	"clumsy/internal/fault"
	"clumsy/internal/metrics"
	"clumsy/internal/packet"
	"clumsy/internal/simmem"
	"clumsy/internal/telemetry"
)

// Iteration counts of the layer probes: enough work per span that timer
// resolution and span overhead vanish, little enough to stay well under a
// second per layer.
const (
	microOps    = 200_000
	microSlowOp = 10 // set-up style calls that take milliseconds each
	observesPer = 8  // observations per packet in the metrics probe
)

// decompConfigs are the configurations the traced run decomposes: one run
// of each batch configuration at the first derived seed, or for the
// campaign workload the representative configuration of each study at the
// campaign's trace length.
func decompConfigs(w *benchWorkload, seed uint64) []clumsy.Config {
	var out []clumsy.Config
	if w.studies != nil {
		for _, c := range w.setup {
			c.Seed, c.Packets = subSeed(seed, 0), campaignPackets
			out = append(out, c)
		}
		return out
	}
	for _, r := range w.runs {
		c := r.cfg
		c.Seed, c.Packets = subSeed(seed, 0), w.packets
		out = append(out, c)
	}
	return out
}

// traceFor builds the packet trace clumsy.Run would build for cfg.
func traceFor(cfg clumsy.Config) (*packet.Trace, error) {
	app, err := apps.New(cfg.App)
	if err != nil {
		return nil, err
	}
	tr, err := packet.Generate(app.TraceConfig(cfg.Packets, cfg.Seed))
	if err != nil {
		return nil, err
	}
	if cfg.Workload != nil {
		tr = cfg.Workload.Apply(tr, cfg.Seed)
	}
	return tr, nil
}

// spaceBytes mirrors the simulator's automatic sizing of the simulated
// memory for a trace: 8 MiB of tables plus every packet buffer, rounded up
// to the next MiB.
func spaceBytes(tr *packet.Trace) int {
	total := 8 << 20
	for i := range tr.Packets {
		total += max((tr.Packets[i].WireLen()+31)&^31, 32)
	}
	return (total + 1<<20) &^ (1<<20 - 1)
}

// decompose makes the traced run's own calls, each in its own span: the
// clumsy layer split into fixed, marginal, golden and faulty cost, then a
// layer probe per lower layer sized like the workload. It returns the
// per-layer metrics those calls define.
func (b *bench) decompose(w *benchWorkload, tr *tracer) map[string]float64 {
	m := map[string]float64{}
	cfgs := decompConfigs(w, b.seed)

	// clumsy: 1-packet runs give the fixed cost, full-length runs minus
	// it the marginal cost, Calibrate on the same trace the golden pass.
	const rounds = 3
	var fixedAll []float64
	var tL, tG, fixedSum time.Duration
	var pL, p1 int
	var traces []*packet.Trace
	for _, cfg := range cfgs {
		one := cfg
		one.Packets = 1
		var fixed []float64
		for r := 0; r < rounds; r++ {
			tr.begin("clumsy.Run/1pkt")
			res, err := clumsy.Run(one)
			d := tr.end(1)
			if b.chk.op("decompose 1-packet "+cfg.App, err) {
				fixed = append(fixed, d.Seconds())
				p1 = res.Config.Packets + res.Report.Processed + res.Report.Dropped
			}
		}
		fixedAll = append(fixedAll, fixed...)
		fixedSum += time.Duration(median(fixed) * float64(time.Second))

		tr.begin("clumsy.Run")
		res, err := clumsy.Run(cfg)
		tL += tr.end(1)
		if b.chk.op("decompose run "+cfg.App, err) {
			pL += res.Config.Packets + res.Report.Processed + res.Report.Dropped - p1
		}

		tr.begin("prepare trace")
		trace, err := traceFor(cfg)
		tr.end(1)
		if !b.chk.op("decompose trace "+cfg.App, err) {
			continue
		}
		traces = append(traces, trace)
		tr.begin("clumsy.Calibrate")
		_, err = clumsy.Calibrate(cfg, trace)
		tG += tr.end(1)
		b.chk.op("decompose calibrate "+cfg.App, err)
	}
	m["clumsy.fixed_ms"] = median(fixedAll) * 1e3
	m["clumsy.marginal_us_per_pkt"] = (tL - fixedSum).Seconds() / float64(max(pL, 1)) * 1e6
	m["clumsy.golden_s"] = tG.Seconds()
	m["clumsy.faulty_s"] = (tL - tG).Seconds()

	if len(traces) == 0 {
		return m
	}
	mirror := traces[0]
	scale := cfgs[0].FaultScale
	if scale == 0 {
		scale = 1
	}
	b.cacheProbe(tr, mirror, scale, m)
	b.simmemProbe(tr, mirror, m)
	b.faultProbe(tr, scale, m)
	metricsProbe(tr, len(mirror.Packets), m)
	b.packetProbes(tr, cfgs, traces, m)
	b.studyProbes(tr, m)
	b.atomicioProbe(tr, m)
	b.clusterProbe(tr, m)
	counterProbe(tr, m)
	return m
}

// cacheProbe times the cache hierarchy's public calls on a space the size
// of the workload's: L1D hits inside 1 KiB, L1D misses striding by a line
// over 64 KiB (beyond the 4 KiB L1D, inside the 128 KiB L2), stores,
// snapshot and restore of every level, and coherent DMA of a mean-sized
// packet.
func (b *bench) cacheProbe(tr *tracer, mirror *packet.Trace, scale float64, m map[string]float64) {
	space := simmem.NewSpace(spaceBytes(mirror))
	inj := fault.NewInjector(fault.NewModel(scale), fault.NewRNG(b.seed), 32)
	inj.SetEnabled(false) // timing the access path, not fault handling
	tr.begin("cache.NewHierarchy")
	var h *cache.Hierarchy
	var err error
	for i := 0; i < microSlowOp && err == nil; i++ {
		h, err = cache.NewHierarchy(space, inj, cache.DetectionParity, 2)
	}
	m["cache.new_hierarchy_ms"] = tr.end(microSlowOp).Seconds() / microSlowOp * 1e3
	if !b.chk.op("cache.NewHierarchy", err) {
		return
	}
	base := space.MustAlloc(128<<10, 4096)
	var sink uint32
	loop := func(name, metric string, f func(i int) error) {
		tr.begin(name)
		var err error
		for i := 0; i < microOps && err == nil; i++ {
			err = f(i)
		}
		m[metric] = float64(tr.end(microOps).Nanoseconds()) / microOps
		b.chk.op(name, err)
	}
	loop("cache.L1D.Load32/hit", "cache.l1d_load_hit_ns", func(i int) error {
		v, err := h.L1D.Load32(base + simmem.Addr(i*4&1023))
		sink += v
		return err
	})
	loop("cache.L1D.Load32/miss", "cache.l1d_load_miss_ns", func(i int) error {
		v, err := h.L1D.Load32(base + simmem.Addr(i*32&(64<<10-1)))
		sink += v
		return err
	})
	loop("cache.L1D.Store32", "cache.l1d_store_ns", func(i int) error {
		return h.L1D.Store32(base+simmem.Addr(i*4&1023), uint32(i))
	})
	snap := h.Snapshot(nil)
	loop("cache.Snapshot", "cache.snapshot_ns", func(int) error { snap = h.Snapshot(snap); return nil })
	loop("cache.RestoreSnapshot", "cache.restore_ns", func(int) error { h.RestoreSnapshot(snap); return nil })
	var wire int
	for i := range mirror.Packets {
		wire += mirror.Packets[i].WireLen()
	}
	buf := make([]byte, max(wire/len(mirror.Packets), 1))
	dma := base + 96<<10
	loop("cache.CoherentDMA", "cache.coherent_dma_ns", func(int) error { return h.CoherentDMA(dma, buf) })
	_ = sink
}

// simmemProbe times space creation at the workload's size and checkpoint
// commit and restore with two dirty pages per packet, the footprint of a
// packet buffer plus a table update.
func (b *bench) simmemProbe(tr *tracer, mirror *packet.Trace, m map[string]float64) {
	size := spaceBytes(mirror)
	tr.begin("simmem.NewSpace")
	var space *simmem.Space
	for i := 0; i < microSlowOp; i++ {
		space = simmem.NewSpace(size)
	}
	m["simmem.new_space_ms"] = tr.end(microSlowOp).Seconds() / microSlowOp * 1e3

	const dirtyPages = 2
	base := space.MustAlloc(dirtyPages*simmem.PageSize, simmem.PageSize)
	dirty := func(i int) error {
		for p := 0; p < dirtyPages; p++ {
			if err := space.Store32(base+simmem.Addr(p*simmem.PageSize+i*4&(simmem.PageSize-1)), uint32(i)); err != nil {
				return err
			}
		}
		return nil
	}
	ck := space.NewCheckpoint()
	defer ck.Release()
	const n = microOps / 10
	var err error
	tr.begin("simmem.Checkpoint.Commit")
	for i := 0; i < n && err == nil; i++ {
		err = dirty(i)
		ck.Commit()
	}
	m["simmem.checkpoint_commit_ns"] = float64(tr.end(n).Nanoseconds()) / n
	b.chk.op("simmem.Checkpoint.Commit", err)
	pages := 0
	tr.begin("simmem.Checkpoint.Restore")
	for i := 0; i < n && err == nil; i++ {
		err = dirty(i)
		pages += ck.Restore()
	}
	d := tr.end(n)
	m["simmem.checkpoint_restore_ns_per_page"] = float64(d.Nanoseconds()) / float64(max(pages, 1))
	b.chk.op("simmem.Checkpoint.Restore", err)
}

// faultProbe times model construction (which calibrates the circuit
// cell) and one access's draw from each fault process at Cr 0.5.
func (b *bench) faultProbe(tr *tracer, scale float64, m map[string]float64) {
	tr.begin("fault.NewModel")
	var model *fault.Model
	for i := 0; i < microSlowOp; i++ {
		model = fault.NewModel(scale)
	}
	m["fault.new_model_ms"] = tr.end(microSlowOp).Seconds() / microSlowOp * 1e3
	rng := fault.NewRNG(b.seed)
	procs := []struct {
		name string
		p    fault.Process
	}{
		{"paper", fault.NewInjector(model, rng.Fork(1), 32)},
		{"burst", fault.NewBurst(model, rng.Fork(2), 32, fault.DefaultBurstParams())},
		{"stuckat", fault.NewStuckAt(fault.NewInjector(model, rng.Fork(3), 32), rng.Fork(4), cache.DefaultL1D.SizeBytes/4, fault.DefaultStuckAtParams())},
	}
	var sink uint64
	for _, pr := range procs {
		pr.p.SetCycleTime(0.5)
		pr.p.SetEnabled(true)
		tr.begin("fault.NextAt/" + pr.name)
		for i := 0; i < microOps; i++ {
			sink ^= pr.p.NextAt(uint64(i & 1023))
		}
		m["fault.next_ns."+pr.name] = float64(tr.end(microOps).Nanoseconds()) / microOps
	}
	_ = sink
}

// metricsProbe times the recorder's per-observation path (including the
// per-packet EndPacket) and the golden/faulty comparison over a trace of
// the workload's length.
func metricsProbe(tr *tracer, packets int, m map[string]float64) {
	record := func() *metrics.Recorder {
		r := metrics.NewRecorder()
		r.BeginPackets()
		for p := 0; p < packets; p++ {
			for j := 0; j < observesPer; j++ {
				r.Observe("value", uint64(p*j))
			}
			r.EndPacket()
		}
		return r
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tr.begin("metrics.Recorder.Observe")
	golden := record()
	d := tr.end(packets * observesPer)
	runtime.ReadMemStats(&ms1)
	obs := float64(packets * observesPer)
	m["metrics.observe_ns"] = float64(d.Nanoseconds()) / obs
	m["metrics.observe_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / obs
	faulty := record()
	tr.begin("metrics.Compare")
	metrics.Compare(golden, faulty)
	m["metrics.compare_ns_per_pkt"] = float64(tr.end(packets).Nanoseconds()) / float64(packets)
}

// packetProbes times trace generation for every decomposed configuration
// and the workload-v2 substrate applied to the same traces.
func (b *bench) packetProbes(tr *tracer, cfgs []clumsy.Config, traces []*packet.Trace, m map[string]float64) {
	var gen time.Duration
	pkts := 0
	for _, cfg := range cfgs {
		app, err := apps.New(cfg.App)
		if !b.chk.op("apps.New", err) {
			continue
		}
		tr.begin("packet.Generate")
		t, err := packet.Generate(app.TraceConfig(cfg.Packets, cfg.Seed))
		gen += tr.end(cfg.Packets)
		if b.chk.op("packet.Generate", err) {
			pkts += len(t.Packets)
		}
	}
	m["packet.generate_ns_per_pkt"] = float64(gen.Nanoseconds()) / float64(max(pkts, 1))
	var apply time.Duration
	pkts = 0
	for _, t := range traces {
		tr.begin("workload.Spec.Apply")
		adversarialMix.Apply(t, b.seed)
		apply += tr.end(len(t.Packets))
		pkts += len(t.Packets)
	}
	m["workload.apply_ns_per_pkt"] = float64(apply.Nanoseconds()) / float64(max(pkts, 1))
}

// studySpecs are the studies of the campaign workload, each run directly
// through the experiment layer the way the service's registry runs it,
// without the service or a journal.
var studyRunners = []struct {
	name string
	run  func(o experiment.Options, w io.Writer) error
}{
	{"table1", func(o experiment.Options, w io.Writer) error {
		rows, err := experiment.Table1(o)
		if err == nil {
			experiment.Table1Render(rows, o).Render(w)
		}
		return err
	}},
	{"reliability", func(o experiment.Options, w io.Writer) error {
		cells, err := experiment.Reliability(o)
		if err != nil {
			return err
		}
		for _, t := range experiment.ReliabilityRender(cells, o) {
			t.Render(w)
		}
		points, err := experiment.ReliabilityCurve("route", o)
		if err == nil {
			experiment.ReliabilityCurveRender("route", points, o).Render(w)
		}
		return err
	}},
	{"state", func(o experiment.Options, w io.Writer) error {
		for _, app := range experiment.StateApps() {
			cells, err := experiment.StateIntegrity(app, o)
			if err != nil {
				return err
			}
			experiment.StateIntegrityRender(app, cells, o).Render(w)
		}
		return nil
	}},
	{"fleet", func(o experiment.Options, w io.Writer) error {
		cells, err := experiment.Fleet("route", o)
		if err == nil {
			experiment.FleetRender("route", cells, o).Render(w)
		}
		return err
	}},
	{"edf", func(o experiment.Options, w io.Writer) error {
		r, err := experiment.EDFGrid("route", o)
		if err == nil {
			experiment.EDFRender(r, "EDF grid", o).Render(w)
		}
		return err
	}},
	{"fig8", func(o experiment.Options, w io.Writer) error {
		rows, err := experiment.Fig8(o)
		if err == nil {
			experiment.Fig8Render(rows, o).Render(w)
		}
		return err
	}},
}

// studyProbes runs each campaign study directly, one after another, at
// the campaign workload's scale. Their sum is the studies' own time that
// service.overhead_s is measured against.
func (b *bench) studyProbes(tr *tracer, m map[string]float64) {
	o := experiment.Options{Packets: campaignPackets, Trials: campaignTrials, Seed: b.seed}
	var sum float64
	for _, s := range studyRunners {
		var buf bytes.Buffer
		tr.begin("experiment.study/" + s.name)
		err := s.run(o, &buf)
		d := tr.end(1).Seconds()
		b.chk.op("study "+s.name, err)
		m["experiment.study_s."+s.name] = d
		sum += d
	}
	m["experiment.studies_s"] = sum
}

// journalSizes are the sizes of the atomicio.WriteFile calls the probe
// times: every completed cell rewrites its campaign's whole journal, and
// the journals of a reduced-scale campaign batch end between 1 and 23 KB
// (reliability's is the largest).
var journalSizes = []struct {
	name  string
	bytes int
}{{"4k", 4 << 10}, {"16k", 16 << 10}}

func (b *bench) atomicioProbe(tr *tracer, m map[string]float64) {
	dir, err := os.MkdirTemp(b.tmp, "atomicio-")
	if !b.chk.op("atomicio dir", err) {
		return
	}
	defer os.RemoveAll(dir)
	for _, s := range journalSizes {
		payload := bytes.Repeat([]byte("x"), s.bytes)
		path := filepath.Join(dir, "journal-"+s.name)
		tr.begin("atomicio.WriteFile/" + s.name)
		var err error
		for i := 0; i < microSlowOp && err == nil; i++ {
			err = atomicio.WriteFile(path, func(w io.Writer) error {
				_, err := w.Write(payload)
				return err
			})
		}
		m["atomicio.write_file_ms."+s.name] = tr.end(microSlowOp).Seconds() / microSlowOp * 1e3
		b.chk.op("atomicio.WriteFile "+s.name, err)
	}
}

// clusterProbe runs one fleet simulation shaped like a cell of the fleet
// study (8 route nodes, two of them hostile) at the campaign's trace length.
func (b *bench) clusterProbe(tr *tracer, m map[string]float64) {
	tr.begin("cluster.Run")
	rep, err := cluster.Run(cluster.Config{
		App: "route", Nodes: 8, Packets: campaignPackets, Seed: b.seed,
		Dispatch: cluster.DispatchLeastLoaded, FaultyNodes: 2, FaultyScale: 150, FaultyPreDisable: 0.10,
		Health: cluster.HealthConfig{Window: 32, MaxDrains: 1, MaxCycleTime: 0.625},
	})
	d := tr.end(campaignPackets)
	if b.chk.op("cluster.Run", err) {
		m["cluster.run_us_per_pkt"] = float64(d.Microseconds()) / float64(max(rep.Arrivals, 1))
	}
}

// counterProbe times one registry counter increment by name, the way the
// simulator flushes its per-run statistics.
func counterProbe(tr *tracer, m map[string]float64) {
	reg := telemetry.NewRegistry()
	tr.begin("telemetry.Counter.Add")
	for i := 0; i < microOps; i++ {
		reg.Counter(telemetry.CtrRunCount).Add(1)
	}
	m["telemetry.counter_add_ns"] = float64(tr.end(microOps).Nanoseconds()) / microOps
}

// exactMetrics turns a batch's counter deltas into the per-packet exact
// counts. Per-packet figures divide by the faulty passes' packets.
func exactMetrics(bt batch) map[string]float64 {
	c := bt.counts
	pkts := float64(max(c[telemetry.CtrRunPacketsProcessed]+c[telemetry.CtrRunPacketsDropped], 1))
	per := func(name string) float64 { return float64(c[name]) / pkts }
	reads, writes := c[telemetry.CacheCounterName("l1d", "reads")], c[telemetry.CacheCounterName("l1d", "writes")]
	misses := c[telemetry.CacheCounterName("l1d", "read_misses")] + c[telemetry.CacheCounterName("l1d", "write_misses")]
	m := map[string]float64{
		"clumsy.instrs_per_pkt":        per(telemetry.CtrRunInstructions),
		"clumsy.cycles_per_pkt":        per(telemetry.CtrRunCycles),
		"clumsy.contained":             float64(c[telemetry.CtrRecoveryContained]),
		"clumsy.runs_per_batch":        float64(bt.runs),
		"cache.l1d_accesses_per_pkt":   float64(reads+writes) / pkts,
		"cache.l1d_miss_rate":          float64(misses) / float64(max(reads+writes, 1)),
		"cache.lines_disabled":         float64(c[telemetry.CtrCacheL1DLinesDisabled]),
		"simmem.restored_pages":        float64(c[telemetry.CtrRecoveryRestoredPages]),
		"simmem.state_detected":        float64(c[telemetry.CtrStateDetected]),
		"experiment.cells":             float64(c[telemetry.CtrCampaignCellsDone]),
		"cache.cycles_compute_per_pkt": per(telemetry.CtrCyclesCompute),
	}
	for _, bucket := range []struct{ name, ctr string }{
		{"l1d_stall", telemetry.CtrCyclesL1DStall}, {"l1i_stall", telemetry.CtrCyclesL1IStall},
		{"l2_stall", telemetry.CtrCyclesL2Stall}, {"mem_stall", telemetry.CtrCyclesMemStall},
		{"recovery", telemetry.CtrCyclesRecovery}, {"freq_penalty", telemetry.CtrCyclesFreqPenalty},
	} {
		m[fmt.Sprintf("cache.cycles_%s_per_pkt", bucket.name)] = per(bucket.ctr)
	}
	return m
}
