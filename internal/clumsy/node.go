package clumsy

import (
	"errors"
	"fmt"

	"clumsy/internal/apps"
	"clumsy/internal/cache"
	"clumsy/internal/fault"
	"clumsy/internal/freqctl"
	"clumsy/internal/metrics"
	"clumsy/internal/packet"
	"clumsy/internal/simmem"
)

// The streaming node API refactors the batch packet loop of runOnce into
// an open/process lifecycle, so a fleet simulator can interleave packets
// from many independent processors under one virtual clock. A Node is one
// clumsy processor: the real engine, cache hierarchy, fault process, and
// recovery ladder of a faulty run, kept alive between packets. The
// containment machinery is the batch path's — watchdog budget,
// checkpoint/restore at packet boundaries, the escalating ladder — but a
// node fed the whole trace in order does not reproduce the batch run: it
// DMAs every packet into one reused, line-aligned buffer (dmaInto), while
// the batch path allocates a fresh buffer per packet (dmaPacket). The
// different placement changes which cache lines the packets share, and so
// hit/miss behaviour and, under faults, what gets corrupted. For route at
// seed 7 over 3,000 packets, Cr 0.25, FaultScale 3000 and the drop policy,
// the batch run executes 335,927 instructions in 1,173,394 cycles and the
// node 335,762 in 923,320.

// ErrNodeDead is returned by Node.Process once a fatal error has ended the
// node's service life (abort policy, or drop rate beyond MaxDropRate).
var ErrNodeDead = errors.New("clumsy: node is dead")

// Calibration carries the golden-run figures a node needs before serving:
// the watchdog instruction budget and the fault-free per-packet delay (the
// natural service-capacity estimate of a healthy node). It is a pure
// function of the application and trace — fault seed, scale, and regime do
// not enter — so one calibration is shared by every node of a fleet.
type Calibration struct {
	Budget uint64  // per-packet instruction budget (WatchdogFactor x worst golden packet)
	Delay  float64 // golden data-plane cycles per packet
}

// Calibrate executes the golden (fault-free, full-swing) pass over the
// trace and derives the calibration for nodes serving that workload.
func Calibrate(cfg Config, trace *packet.Trace) (Calibration, error) {
	cfg = cfg.withDefaults()
	golden, err := runGolden(cfg, trace)
	if err != nil {
		return Calibration{}, err
	}
	return Calibration{
		Budget: uint64(cfg.WatchdogFactor * float64(golden.maxPacketInstrs)),
		Delay:  golden.delay,
	}, nil
}

// NodeOutcome is the result of processing one packet on a node.
type NodeOutcome struct {
	Cycles  float64 // simulated cycles this packet cost (service time)
	Dropped bool    // the packet was killed by a fatal error
	Fatal   bool    // the fatal error also ended the node's service life
	Reason  string  // drop reason ("" when the packet completed)
}

// NodeHealth is the cumulative health evidence of a node: the recovery
// ladder's outputs, exported for a fleet-level health state machine. All
// counters are cumulative since OpenNode; consumers track windows by
// differencing snapshots.
type NodeHealth struct {
	Attempted     int // packets offered to the node
	Processed     int // packets completed
	Contained     int // fatal errors contained as drops
	WatchdogKills int // watchdog trips among the fatal errors

	LinesDisabled   int     // L1D frames currently dead
	DisabledFrac    float64 // L1D capacity fraction currently dead
	SpatialBackoffs int     // slow-downs forced by spatial evidence
	CycleTime       float64 // current relative cycle time of the L1D
	Dead            bool    // the node has left service
}

// DropRate returns the contained fraction of attempted packets.
func (h NodeHealth) DropRate() float64 {
	if h.Attempted == 0 {
		return 0
	}
	return float64(h.Contained) / float64(h.Attempted)
}

// Node is one live clumsy processor serving a packet stream.
type Node struct {
	cfg   Config
	app   apps.App
	space *simmem.Space
	proc  fault.Process
	h     *cache.Hierarchy
	eng   *engine
	ctrl  *freqctl.Controller
	rec   *metrics.Recorder
	ctx   *apps.Context

	ckpt       *simmem.Checkpoint
	cacheState *cache.Snapshot
	guard      *stateGuard

	buf    simmem.Addr // reused DMA buffer (line-aligned)
	bufCap int

	prevCycles float64 // totalCycles at the last packet boundary
	parityMark uint64

	attempted     int
	processed     int
	contained     int
	watchdogKills int
	dead          bool
	fatal         error
}

// OpenNode builds one faulty processor for the workload: fault process per
// the configured regime (forked off the node's seed with the batch path's
// stream labels, so a node and a batch run with the same seed draw the
// same faults), hierarchy with the recovery ladder armed, engine, and —
// unless the policy is abort — a packet-boundary checkpoint. The control
// plane (Setup over the trace) runs here; a fatal error during Setup fails
// the open, exactly like the batch semantics. cal must come from Calibrate
// over the same trace.
func OpenNode(cfg Config, trace *packet.Trace, cal Calibration) (*Node, error) {
	cfg = cfg.withDefaults()
	if trace == nil || len(trace.Packets) == 0 {
		return nil, errors.New("clumsy: empty trace")
	}
	cfg.Packets = len(trace.Packets)

	spaceBytes := cfg.SpaceBytes
	if spaceBytes == 0 {
		spaceBytes = autoSpaceBytes(trace)
	}
	space := simmem.NewSpace(spaceBytes)

	proc, _, _ := newFaultProcess(cfg, cfg.FaultScale)

	var hc cache.HierarchyConfig
	if cfg.L1DSize != 0 {
		hc.L1D = cache.DefaultL1D
		hc.L1D.SizeBytes = cfg.L1DSize
	}
	h, err := cache.NewHierarchyWith(space, proc, cfg.Detection, cfg.Strikes, hc)
	if err != nil {
		return nil, err
	}
	h.L1D.SetSubBlock(cfg.SubBlock)
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
	eng, err := newEngine(h, appBlocks)
	if err != nil {
		return nil, err
	}

	var ctrl *freqctl.Controller
	if cfg.Dynamic {
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
		ctrl, err = freqctl.NewWith(freqctl.DefaultLevels(), epoch, x1, x2, freqctl.DefaultSwitchPenalty)
		if err != nil {
			return nil, err
		}
		if cfg.MinDwellEpochs > 0 {
			ctrl.SetMinDwell(cfg.MinDwellEpochs)
		}
		if cfg.Recovery == RecoverDegrade {
			ctrl.SetSpatialPolicy(DefaultSpatialLines, DefaultSpatialDisabledFrac)
			ctrl.SpatialEvidence = h.L1D.TakeEpochEvidence
		}
		h.L1D.SetCycleTime(ctrl.CycleTime())
	} else {
		h.L1D.SetCycleTime(cfg.CycleTime)
	}

	app, err := apps.New(cfg.App)
	if err != nil {
		return nil, err
	}
	rec := metrics.NewRecorder()
	n := &Node{
		cfg: cfg, app: app, space: space, proc: proc, h: h, eng: eng,
		ctrl: ctrl, rec: rec,
		ctx: &apps.Context{Space: space, Mem: dataMemory{eng}, Rec: rec, Exec: eng},
	}

	// Control plane. A fatal error here fails the open: there is no
	// pre-fault state to restore before the tables exist.
	if cfg.Planes&PlaneControl != 0 {
		proc.SetEnabled(true)
	}
	if err := runSetup(app, n.ctx, trace); err != nil {
		return nil, fmt.Errorf("clumsy: node setup failed: %w", err)
	}
	proc.SetEnabled(false)
	rec.BeginPackets()

	// State-integrity machinery around a stateful app's flow table, exactly
	// as the batch path wires it (the node has no run trace, so events are
	// discarded; counters and the ladder still run).
	if sa, ok := app.(apps.StatefulApp); ok && sa.StateTable() != nil {
		n.guard = newStateGuard(sa.StateTable(), h, nil, eng, cfg)
	}

	// One line-aligned DMA buffer, reused for every packet, sized for the
	// largest packet of the workload: a streaming node must not grow its
	// simulated memory per packet.
	maxWire := 0
	for i := range trace.Packets {
		if l := trace.Packets[i].WireLen(); l > maxWire {
			maxWire = l
		}
	}
	n.bufCap = (maxWire + 31) &^ 31
	if n.bufCap < 32 {
		n.bufCap = 32
	}
	n.buf, err = space.Alloc(n.bufCap, 32)
	if err != nil {
		return nil, err
	}

	if cfg.Recovery != RecoverAbort {
		n.ckpt = space.NewCheckpoint()
		n.cacheState = h.Snapshot(nil)
	}
	if cfg.Planes&PlaneData != 0 {
		proc.SetEnabled(true)
	}
	eng.budget = cal.Budget
	n.prevCycles = n.totalCycles()
	return n, nil
}

// totalCycles is the node's simulated clock: engine cycles (core + stalls)
// plus any frequency-switch penalty.
func (n *Node) totalCycles() float64 {
	c := n.eng.totalCycles()
	if n.ctrl != nil {
		c += n.ctrl.PenaltyCycles
	}
	return c
}

// Process serves one packet and returns its outcome: the simulated cycles
// it cost (the fleet's service time), and whether it was dropped or killed
// the node. Calling Process on a dead node returns ErrNodeDead; any other
// error is a simulator failure, not a simulated outcome.
func (n *Node) Process(p *packet.Packet) (NodeOutcome, error) {
	if n.dead {
		return NodeOutcome{}, ErrNodeDead
	}
	n.attempted++
	if err := n.dmaInto(p); err != nil {
		return NodeOutcome{}, err
	}
	n.eng.beginPacket()
	if n.guard != nil {
		n.guard.packet = n.attempted - 1
	}
	if err := processPacket(n.app, n.ctx, p, n.buf); err != nil {
		if errors.Is(err, ErrStateCorrupt) {
			// Unrecoverable cross-packet state: terminal under every policy.
			n.dead = true
			n.fatal = err
			return NodeOutcome{Dropped: true, Fatal: true, Reason: dropReason(err), Cycles: n.lap()}, nil
		}
		if !isFatal(err) {
			return NodeOutcome{}, err
		}
		// Fatal: spin out the watchdog budget, then drop or die.
		if n.eng.budget > 0 {
			n.eng.burnWatchdog(n.eng.budget)
		}
		if errors.Is(err, ErrWatchdog) {
			n.watchdogKills++
		}
		out := NodeOutcome{Dropped: true, Reason: dropReason(err)}
		if n.ckpt == nil {
			n.dead = true
			n.fatal = err
			out.Fatal = true
			out.Cycles = n.lap()
			return out, nil
		}
		n.ckpt.Restore()
		n.h.RestoreSnapshot(n.cacheState)
		if n.guard != nil {
			n.guard.st.RestoreShadow()
		}
		n.contained++
		n.rec.DropPacket()
		if sr, ok := n.app.(apps.ScratchResetter); ok {
			sr.ResetScratch()
		}
		if n.cfg.MaxDropRate > 0 {
			if rate := float64(n.contained) / float64(n.attempted); rate > n.cfg.MaxDropRate {
				n.dead = true
				n.fatal = fmt.Errorf("%w: %.4f > %.4f after %d packets",
					ErrDropRateExceeded, rate, n.cfg.MaxDropRate, n.attempted)
				out.Fatal = true
			}
		}
		out.Cycles = n.lap()
		return out, nil
	}
	n.rec.EndPacket()
	n.processed++
	if n.guard != nil && n.guard.scrubDue(n.processed) {
		if err := n.guard.scrubPass(n.ctx.Mem, n.attempted-1); err != nil {
			if !errors.Is(err, ErrStateCorrupt) && !isFatal(err) {
				return NodeOutcome{}, err
			}
			n.dead = true
			n.fatal = err
			return NodeOutcome{Dropped: true, Fatal: true, Reason: dropReason(err), Cycles: n.lap()}, nil
		}
	}
	if n.ckpt != nil {
		n.ckpt.Commit()
		n.cacheState = n.h.Snapshot(n.cacheState)
	}
	if n.guard != nil {
		n.guard.st.CommitShadow()
	}
	if n.ctrl != nil {
		newErrors := n.h.L1D.Recovery.ParityErrors - n.parityMark
		n.parityMark = n.h.L1D.Recovery.ParityErrors
		if _, changed := n.ctrl.PacketDone(newErrors); changed {
			n.h.L1D.SetCycleTime(n.ctrl.CycleTime())
		}
	}
	return NodeOutcome{Cycles: n.lap()}, nil
}

// lap returns the cycles since the last packet boundary and advances it.
func (n *Node) lap() float64 {
	now := n.totalCycles()
	d := now - n.prevCycles
	n.prevCycles = now
	return d
}

// dmaInto places the packet into the node's reused buffer, as the NIC's
// DMA engine would: straight to backing memory, invalidating stale cached
// copies of the range.
func (n *Node) dmaInto(p *packet.Packet) error {
	if size := p.WireLen(); size > n.bufCap {
		return fmt.Errorf("clumsy: packet (%d bytes) exceeds the node's DMA buffer (%d)", size, n.bufCap)
	}
	if p.Raw != nil {
		if len(p.Raw) == 0 {
			return nil
		}
		return n.h.DMA(n.buf, p.Raw)
	}
	hdr := p.Header()
	if err := n.h.DMA(n.buf, hdr[:]); err != nil {
		return err
	}
	if len(p.Payload) > 0 {
		return n.h.DMA(n.buf+packet.HeaderLen, p.Payload)
	}
	return nil
}

// Health returns the node's cumulative health evidence.
func (n *Node) Health() NodeHealth {
	ev := n.h.L1D.Health()
	nh := NodeHealth{
		Attempted:     n.attempted,
		Processed:     n.processed,
		Contained:     n.contained,
		WatchdogKills: n.watchdogKills,
		LinesDisabled: ev.DisabledLines,
		DisabledFrac:  ev.DisabledFraction,
		CycleTime:     ev.CycleTime,
		Dead:          n.dead,
	}
	if n.ctrl != nil {
		nh.SpatialBackoffs = n.ctrl.SpatialBackoffs
	}
	return nh
}

// FatalErr returns the error that ended a dead node's service life, or nil.
func (n *Node) FatalErr() error { return n.fatal }

// Reclock raises the node's relative cycle time to cr (clamped to [current
// cycle time, 1]) — the restorative half of drain-and-re-clock: slower
// cycles give marginal cells the full sense window back, and the cache
// returns every non-pinned disabled frame to service with a clean strike
// window. Returns the applied cycle time. Static-clock nodes only; a
// dynamic node's controller owns its operating point, so Reclock is a
// no-op there.
func (n *Node) Reclock(cr float64) float64 {
	cur := n.h.L1D.CycleTime()
	if n.ctrl != nil {
		return cur
	}
	if cr < cur {
		cr = cur
	}
	if cr > 1 {
		cr = 1
	}
	if cr > cur {
		n.h.L1D.SetCycleTime(cr)
	}
	return cr
}

// Close releases the node's checkpoint resources. The node must not be
// used afterwards.
func (n *Node) Close() {
	if n.ckpt != nil {
		n.ckpt.Release()
		n.ckpt = nil
	}
	n.dead = true
}
