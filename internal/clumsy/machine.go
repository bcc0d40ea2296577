package clumsy

import (
	"errors"
	"fmt"

	"clumsy/internal/apps"
	"clumsy/internal/cache"
	"clumsy/internal/energy"
	"clumsy/internal/fault"
	"clumsy/internal/freqctl"
	"clumsy/internal/metrics"
	"clumsy/internal/packet"
	"clumsy/internal/simmem"
	"clumsy/internal/telemetry"
)

// placement is where the machine's DMA engine puts each packet. It is the
// one way a streaming node and a batch run of the same trace differ:
// which cache lines consecutive packets share changes hit/miss behaviour
// and, under faults, what gets corrupted.
type placement int

const (
	// placeFresh gives every packet a new line-aligned buffer — the batch
	// layout every paper table and figure was measured on.
	placeFresh placement = iota
	// placeReused DMAs every packet into one line-aligned buffer sized to
	// the trace's largest packet, allocated right after Setup: a streaming
	// node must not grow its simulated memory per packet.
	placeReused
)

// machine is one clumsy processor — fault process, cache hierarchy with
// the recovery ladder, frequency controller, engine and application — built
// past its control plane and stepped one packet at a time. A batch run
// drives a golden and a faulty machine over the whole trace; a Node wraps
// one faulty machine and feeds it a stream.
type machine struct {
	cfg    Config
	faulty bool // built with an injection; the golden pass has none
	place  placement

	app     apps.App
	scratch apps.ScratchResetter // app, when it keeps host-side scratch
	ctx     *apps.Context
	rec     *metrics.Recorder // golden: records; faulty: checks against the golden stream, or nil
	h       *cache.Hierarchy
	eng     *engine
	mem     dataMemory // ctx.Mem; held here so the interface points into the machine
	proc    fault.Process
	burst   *fault.Burst   // the burst regime's process, else nil
	stuck   *fault.StuckAt // the permanent regime's process, else nil
	ctrl    *freqctl.Controller
	guard   *stateGuard

	// Packet-boundary restore point; nil under abort and in the golden pass.
	ckpt       *simmem.Checkpoint
	cacheState *cache.Snapshot

	buf    simmem.Addr // placeReused: the one DMA buffer
	bufCap int

	tel                    *telemetry.Telemetry
	rt                     *telemetry.RunTrace
	histInstrs, histCycles *telemetry.Histogram
	histPrev               float64 // engine cycles at the last histogram sample

	setupCycles float64
	parityMark  uint64
	attempted   int
	processed   int
	dead        bool // a fatal error ended the run, or the machine was released

	out *onceResult
}

// newMachine builds the processor for cfg over trace and runs its control
// plane. inj nil builds the golden (fault-free, full-swing) machine, which
// records its observations; a faulty machine checks its observations
// against inj.golden as it makes them, or records nothing; budget
// is the per-packet watchdog instruction limit (0 = unlimited); tel, when
// non-nil, receives the machine's counters and trace events. A fatal error
// during Setup is an outcome, not an error: the returned machine is dead
// with out.SetupDied set, because there is no pre-fault state to restore
// before the control plane has been built.
func newMachine(cfg Config, trace *packet.Trace, inj *injection, budget uint64, place placement, tel *telemetry.Telemetry) (*machine, error) {
	spaceBytes := cfg.SpaceBytes
	if spaceBytes == 0 {
		spaceBytes = autoSpaceBytes(trace)
	}
	space := simmem.NewSpace(spaceBytes)
	m := &machine{cfg: cfg, faulty: inj != nil, place: place, tel: tel}

	if m.faulty {
		m.proc, m.burst, m.stuck = newFaultProcess(cfg, inj.scale)
	} else {
		// The golden pass never enables its process, so every regime is
		// fault-free there: it takes the paper process and reads neither
		// Regime nor FaultScale, which keeps both out of the golden key.
		m.proc = fault.NewInjector(fault.NewModel(1), fault.NewRNG(cfg.Seed).Fork(0xfa17), 32)
		m.proc.SetEnabled(false)
	}

	var hc cache.HierarchyConfig
	if cfg.L1DSize != 0 {
		hc.L1D = cache.DefaultL1D
		hc.L1D.SizeBytes = cfg.L1DSize
	}
	h, err := cache.NewHierarchyWith(space, m.proc, cfg.Detection, cfg.Strikes, hc)
	if err != nil {
		return nil, err
	}
	m.h = h
	h.L1D.SetSubBlock(cfg.SubBlock)
	if m.faulty {
		// Arm the line-disable rung of the recovery ladder. It stays
		// dormant (the paper's semantics) unless explicitly configured or
		// running under the degrade policy.
		strikes, window := cfg.LineDisableStrikes, cfg.LineDisableWindow
		if strikes == 0 && cfg.Recovery == RecoverDegrade {
			strikes = DefaultLineDisableStrikes
		}
		if strikes > 0 {
			if window == 0 {
				window = DefaultLineDisableWindow
			}
			h.L1D.SetLineDisable(strikes, window)
		}
		if cfg.PreDisableFrac > 0 {
			h.L1D.ForceDisable(cfg.PreDisableFrac)
		}
	}
	if m.eng, err = newEngine(h, appBlocks); err != nil {
		return nil, err
	}

	// rt is nil when tracing is off: the emit calls below all vanish
	// behind one branch.
	if tel != nil {
		m.rt = tel.StartRun(m.eng.totalCycles)
		h.L1D.SetTelemetry(m.rt)
		m.rt.RunStart(cfg.App, cfg.Packets, cfg.Seed, cfg.CycleTime, cfg.Dynamic,
			cfg.Detection.String(), cfg.Strikes, cfg.FaultScale)
		if m.burst != nil {
			b, t := m.burst, m.rt
			b.OnTransition = func(bad bool) {
				if bad {
					t.BurstEnter(b.Episodes)
				} else {
					t.BurstExit(b.Episodes)
				}
			}
		}
	}

	if m.faulty {
		if cfg.Dynamic {
			if err := m.buildController(); err != nil {
				return nil, err
			}
			h.L1D.SetCycleTime(m.ctrl.CycleTime())
		} else {
			h.L1D.SetCycleTime(cfg.CycleTime)
		}
	}

	if m.app, err = apps.New(cfg.App); err != nil {
		return nil, err
	}
	m.scratch, _ = m.app.(apps.ScratchResetter)
	switch {
	case !m.faulty:
		m.rec = metrics.NewRecorder()
	case inj.golden != nil:
		m.rec = metrics.NewChecker(inj.golden)
	}
	m.mem = newDataMemory(m.eng)
	m.ctx = &apps.Context{Space: space, Mem: &m.mem, Rec: m.rec, Exec: m.eng}
	m.out = &onceResult{rec: m.rec}

	// Control plane.
	if m.faulty && inj.planes&PlaneControl != 0 {
		m.proc.SetEnabled(true)
	}
	if err := runSetup(m.app, m.ctx, trace); err != nil {
		if !isFatal(err) {
			return nil, err
		}
		m.out.SetupDied = true
		m.countDrop(-1, err) // died during the control plane
		m.die(err)
		return m, nil
	}
	m.proc.SetEnabled(false)
	m.rec.BeginPackets()
	m.setupCycles = m.eng.totalCycles()

	// State-integrity machinery: if Setup registered a flow-state table,
	// install the corruption ladder around it. The guard exists in both
	// the golden and the faulty pass — verified lookups and scrub walks
	// must charge the same instruction stream in both, or the golden
	// reference would stop being a reference — but the ladder only ever
	// fires where faults exist.
	if sa, ok := m.app.(apps.StatefulApp); ok && sa.StateTable() != nil {
		m.guard = newStateGuard(sa.StateTable(), h, m.rt, m.eng, cfg)
	}

	if place == placeReused {
		for i := range trace.Packets {
			m.bufCap = max(m.bufCap, dmaFootprint(&trace.Packets[i]))
		}
		if m.buf, err = space.Alloc(m.bufCap, 32); err != nil {
			return nil, err
		}
	}

	// Checkpoint the post-setup state before the injector is re-enabled.
	// The restore point is the complete architectural memory state — the
	// backing space (dirty-page granular) plus every cache level (a
	// line-granular undo log) — so a rolled-back execution continues
	// bit-exactly as if the failed packet had never run: same values, same
	// hits and misses, same write-back order. The space commit costs the
	// pages the packet dirtied and the cache commit is O(1); neither
	// touches the simulated machine, which keeps drop-policy runs without
	// fatal errors identical to abort-policy runs.
	if m.faulty && cfg.Recovery != RecoverAbort {
		m.ckpt = space.NewCheckpoint()
		m.advance()
	}

	// Data plane.
	if m.faulty && inj.planes&PlaneData != 0 {
		m.proc.SetEnabled(true)
	}
	m.eng.budget = budget
	if tel != nil {
		m.histInstrs = tel.Registry.Histogram(telemetry.HistPacketInstructions)
		m.histCycles = tel.Registry.Histogram(telemetry.HistPacketCycles)
		m.histPrev = m.eng.totalCycles()
	}
	return m, nil
}

// buildController builds the dynamic scheme's frequency controller from
// the configured (or the paper's default) epoch and thresholds.
func (m *machine) buildController() error {
	cfg := m.cfg
	epoch := cfg.EpochPackets
	if epoch == 0 {
		epoch = freqctl.DefaultEpochPackets
	}
	x1, x2 := cfg.X1, cfg.X2
	if x1 == 0 {
		x1 = freqctl.DefaultX1
	}
	if x2 == 0 {
		x2 = freqctl.DefaultX2
	}
	ctrl, err := freqctl.NewWith(freqctl.DefaultLevels(), epoch, x1, x2, freqctl.DefaultSwitchPenalty)
	if err != nil {
		return err
	}
	if m.tel != nil {
		wireFreqTelemetry(ctrl, m.tel.Registry)
	}
	if cfg.MinDwellEpochs > 0 {
		ctrl.SetMinDwell(cfg.MinDwellEpochs)
	}
	if cfg.Recovery == RecoverDegrade {
		// Top rung of the ladder: the controller sees spatial evidence and
		// backs off when faults spread across lines or eat capacity faster
		// than line disable can contain.
		ctrl.SetSpatialPolicy(DefaultSpatialLines, DefaultSpatialDisabledFrac)
		ctrl.SpatialEvidence = m.h.L1D.TakeEpochEvidence
	}
	m.ctrl = ctrl
	return nil
}

// run drives the machine over the whole trace in order, until the trace
// ends or a fatal error ends the run, and folds the outcome.
func (m *machine) run(trace *packet.Trace) (*onceResult, error) {
	defer m.release()
	for i := range trace.Packets {
		if m.dead {
			break
		}
		if _, err := m.step(i, &trace.Packets[i]); err != nil {
			return nil, err
		}
	}
	return m.finish()
}

// step processes packet i: DMA, execution, then either the containment of
// a fatal error (drop and roll back, or die) or the commit of the packet
// boundary, the frequency controller and the recorder. fatal is the
// packet's fatal error, nil when it completed; the machine is dead once a
// fatal error ends the run (m.dead). err is a simulator failure, not a
// simulated outcome.
func (m *machine) step(i int, p *packet.Packet) (fatal, err error) {
	if fatal, err = m.execute(i, p); err != nil {
		return nil, err
	}
	if fatal != nil {
		return fatal, m.contain(i, fatal)
	}
	return nil, m.commit(i)
}

// execute is the first half of step: DMA and execution of packet i.
func (m *machine) execute(i int, p *packet.Packet) (fatal, err error) {
	m.attempted++
	if m.place == placeReused && p.WireLen() > m.bufCap {
		return nil, fmt.Errorf("clumsy: packet (%d bytes) exceeds the reused DMA buffer (%d)", p.WireLen(), m.bufCap)
	}
	buf, err := m.dma(p)
	if err != nil {
		return nil, err
	}
	m.eng.beginPacket()
	if m.guard != nil {
		m.guard.packet = i
	}
	return processPacket(m.app, m.ctx, p, buf), nil
}

// contain handles the fatal error err of packet i: the second half of
// step for a packet that did not complete.
func (m *machine) contain(i int, err error) error {
	// isFatal tests for the watchdog first, and the engine returns
	// ErrWatchdog unwrapped: the commonest drop stays on errors.Is's
	// equality fast path, which allocates nothing (see dropReason).
	if !isFatal(err) {
		if !errors.Is(err, ErrStateCorrupt) {
			return err
		}
		// The recovery ladder is exhausted: flow state has diverged beyond
		// what eviction and shadow rebuild can repair. This outcome is
		// terminal under every policy — containment can drop a packet, but
		// it cannot un-lose the table.
		m.out.drops++
		m.rt.PacketDrop(i, dropReason(err))
		m.die(err)
		return nil
	}
	// The execution is stuck or trapped; the processor spins for the
	// remainder of the watchdog budget before the packet is declared dead,
	// and those cycles are real (Section 4.1: the reported figures are
	// based on the packets processed until the fatal error, over the
	// cycles actually burned).
	if m.eng.budget > 0 {
		m.eng.burnWatchdog(m.eng.budget)
	}
	m.countDrop(i, err)
	if m.ckpt == nil {
		m.die(err)
		return nil
	}
	// Contain the fault: drop the packet and roll the whole memory state
	// back to the last packet boundary. Only its burned cycles remain.
	pages := m.rollback()
	m.out.Contained++
	m.out.RestoredPages += uint64(pages)
	m.rec.DropPacket()
	m.rt.StateRestore(i, pages, dropReason(err))
	if m.histInstrs != nil {
		m.histPrev = m.eng.totalCycles()
	}
	if m.cfg.MaxDropRate > 0 {
		if rate := float64(m.out.Contained) / float64(m.attempted); rate > m.cfg.MaxDropRate {
			m.die(fmt.Errorf("%w: %.4f > %.4f after packet %d",
				ErrDropRateExceeded, rate, m.cfg.MaxDropRate, i))
		}
	}
	return nil
}

// rollback returns the machine to the last packet boundary — backing
// space, every cache level, the flow-state shadow and the application's
// host-side scratch — so execution resumes on exactly the state the failed
// packet started from. It reports the space pages rolled back.
func (m *machine) rollback() int {
	pages := m.ckpt.Restore()
	m.h.RestoreSnapshot(m.cacheState)
	if m.guard != nil {
		m.guard.st.RestoreShadow()
	}
	if m.scratch != nil {
		m.scratch.ResetScratch()
	}
	return pages
}

// advance moves the restore point to the current packet boundary: the
// space pages dirtied since the last one, and every cache level.
func (m *machine) advance() {
	m.ckpt.Commit()
	m.cacheState = m.h.Snapshot(m.cacheState)
}

// commit closes the completed packet i — recorder, periodic scrub, the
// restore point, and the frequency controller: the second half of step
// for a packet that completed.
func (m *machine) commit(i int) error {
	m.rec.EndPacket()
	m.processed++
	if n := m.eng.packetInstrs(); n > m.out.maxPacketInstrs {
		m.out.maxPacketInstrs = n
	}
	if m.histInstrs != nil {
		m.histInstrs.Observe(m.eng.packetInstrs())
		now := m.eng.totalCycles()
		m.histCycles.Observe(uint64(now - m.histPrev))
		m.histPrev = now
	}
	if m.guard != nil && m.guard.scrubDue(m.processed) {
		// Periodic integrity scrub, before the boundary commit so any
		// repairs fold into the next restore point. A scrub that exhausts
		// the ladder ends the run like an in-packet exhaustion would.
		if err := m.guard.scrubPass(m.ctx.Mem, i); err != nil {
			if !errors.Is(err, ErrStateCorrupt) && !isFatal(err) {
				return err
			}
			m.die(err)
			return nil
		}
		if m.histInstrs != nil {
			m.histPrev = m.eng.totalCycles() // scrub cycles are not packet cycles
		}
	}
	if m.ckpt != nil {
		m.advance()
	}
	if m.guard != nil {
		m.guard.st.CommitShadow()
	}
	if m.ctrl != nil {
		newErrors := m.h.L1D.Recovery.ParityErrors - m.parityMark
		m.parityMark = m.h.L1D.Recovery.ParityErrors
		if dec, changed := m.ctrl.PacketDone(newErrors); changed {
			m.h.L1D.SetCycleTime(m.ctrl.CycleTime())
			m.out.Timeline = append(m.out.Timeline, FreqEvent{Packet: i + 1, CycleTime: m.ctrl.CycleTime()})
			m.rt.FreqTransition(i+1, dec.String(), m.ctrl.CycleTime())
		}
	}
	return nil
}

// countDrop records a fatal error of packet i (-1: during Setup).
func (m *machine) countDrop(i int, err error) {
	m.out.drops++
	if errors.Is(err, ErrWatchdog) {
		m.out.watchdogKills++
	}
	m.rt.PacketDrop(i, dropReason(err))
}

// die ends the run on err.
func (m *machine) die(err error) {
	m.out.FatalErr = err
	m.dead = true
}

// clock is the machine's simulated time: engine cycles (core + stalls)
// plus any frequency-switch penalty.
func (m *machine) clock() float64 {
	c := m.eng.totalCycles()
	if m.ctrl != nil {
		c += m.ctrl.PenaltyCycles
	}
	return c
}

// release frees the restore point. The machine must not step afterwards.
func (m *machine) release() {
	if m.ckpt != nil {
		m.ckpt.Release()
		m.ckpt = nil
	}
	m.dead = true
}

// finish folds the machine's statistics into its outcome: cycles and
// their attribution, energy, cache and recovery statistics, the recovery
// ladder, the flow-state counters and — for the faulty pass — the
// end-of-run state audit; then it flushes telemetry.
//
//lint:cycle-accounting
func (m *machine) finish() (*onceResult, error) {
	out, h, ctrl := m.out, m.h, m.ctrl
	out.LinesDisabled = h.L1D.DisabledLines()
	out.DisabledFrac = h.L1D.DisabledFraction()
	out.StrikeHist = h.L1D.StrikeHistogram()
	if m.burst != nil {
		out.BurstEpisodes = m.burst.Episodes
	}
	if m.stuck != nil {
		out.PermanentHits = m.stuck.PermanentHits
		out.IntermittentHits = m.stuck.IntermittentHits
	}

	out.Cycles = m.eng.totalCycles()
	// Fold the per-component attribution: the L1D accumulated its own
	// data-side split (array / L2 / memory / recovery stalls); the core,
	// instruction fetch, watchdog burn, and switch penalty join it here.
	// Every term below is a disjoint share of out.Cycles, so the buckets
	// sum to the total exactly (see cache.CycleBreakdown).
	bd := h.L1D.Breakdown
	bd.Compute = m.eng.core - m.eng.burned
	bd.Recovery += m.eng.burned
	bd.L1I = h.L1I.Cycles
	if ctrl != nil {
		out.Cycles += ctrl.PenaltyCycles
		bd.FreqPenalty = ctrl.PenaltyCycles
		out.LevelPackets = ctrl.LevelPackets
		out.Switches = ctrl.Switches
		out.SpatialBackoffs = ctrl.SpatialBackoffs
	}
	out.Breakdown = bd
	out.Instrs = m.eng.instrs
	if m.processed > 0 {
		out.Delay = (out.Cycles - m.setupCycles) / float64(m.processed)
	} else {
		out.Delay = out.Cycles // a run that processed nothing: all cost, no packets
	}
	out.L1DStats = h.L1D.Stats
	out.Recovery = h.L1D.Recovery

	params := energy.ParamsForL1D(m.cfg.L1DSize)
	out.Energy = params.Compute(energy.Usage{
		Cycles:        out.Cycles,
		L1DReadSwing:  h.L1D.Energy.ReadSwing,
		L1DWriteSwing: h.L1D.Energy.WriteSwing,
		ParityOn:      m.cfg.Detection == cache.DetectionParity,
		ECCOn:         m.cfg.Detection == cache.DetectionECC,
		L1IReads:      h.L1I.Stats.Reads,
		L2Accesses:    h.L2.Stats.Accesses(),
		MemAccesses:   h.Mem.Stats.Accesses(),
	})

	if m.guard != nil {
		m.guard.capture(out)
		if m.faulty {
			// End-of-run divergence audit: read the table as the machine
			// sees it (through the cache, injector off so the audit itself
			// is clean) and compare against the golden shadow. Runs after
			// the fold so the measured stats exclude audit accesses.
			m.proc.SetEnabled(false)
			if err := m.guard.audit(out); err != nil {
				return nil, err
			}
		}
	}
	m.flushTelemetry()
	return out, nil
}

// runSetup executes the application's control plane with panic isolation:
// a Go panic raised on corrupted state is converted into a fatal
// application error instead of unwinding the whole process.
func runSetup(app apps.App, ctx *apps.Context, trace *packet.Trace) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w (setup): %v", ErrAppPanic, r)
		}
	}()
	return app.Setup(ctx, trace)
}

// processPacket executes one packet with panic isolation. An application
// that reads fault-corrupted simulated memory can derive an impossible
// value and panic in host code (slice bounds, division by zero); the
// recover here turns that into a fatal error the packet loop can contain
// or abort on, exactly like a watchdog trip.
//
//lint:hot-path
func processPacket(app apps.App, ctx *apps.Context, p *packet.Packet, buf simmem.Addr) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrAppPanic, r) //lint:alloc-ok app-panic diagnostic; a packet that completes never reaches it
		}
	}()
	return app.Process(ctx, p, buf)
}

// dma places one packet (header + payload, or a malformed wire image
// exactly as the NIC received it, however few bytes) into simulated memory
// per the machine's placement, as a NIC's DMA engine would: directly into
// the backing store, invalidating any stale cached copies of the range (a
// wild read through a corrupted pointer may have cached lines of the
// buffer region before the packet arrived).
//
//lint:hot-path
func (m *machine) dma(p *packet.Packet) (simmem.Addr, error) {
	buf := m.buf
	if m.place == placeFresh {
		var err error
		if buf, err = m.h.Space.Alloc(dmaFootprint(p), 32); err != nil { //lint:alloc-ok Alloc allocates only on its out-of-arena error path
			return 0, err
		}
	}
	if p.Raw != nil {
		if len(p.Raw) > 0 {
			if err := m.h.DMA(buf, p.Raw); err != nil { //lint:alloc-ok DMA allocates its fault-diagnostic AccessError and a simulated page on first touch; the zero-alloc tests attribute every one
				return 0, err
			}
		}
		return buf, nil
	}
	hdr := p.Header()
	if err := m.h.DMA(buf, hdr[:]); err != nil { //lint:alloc-ok DMA allocates its fault-diagnostic AccessError and a simulated page on first touch; the zero-alloc tests attribute every one
		return 0, err
	}
	if len(p.Payload) > 0 {
		if err := m.h.DMA(buf+packet.HeaderLen, p.Payload); err != nil { //lint:alloc-ok DMA allocates its fault-diagnostic AccessError and a simulated page on first touch; the zero-alloc tests attribute every one
			return 0, err
		}
	}
	return buf, nil
}

// dmaFootprint is the line-aligned buffer size of a packet: its wire image
// rounded up to whole 32-byte lines, and never less than one line, so
// layouts stay stable.
func dmaFootprint(p *packet.Packet) int {
	return max(32, (p.WireLen()+31)&^31)
}
