package clumsy

import (
	"errors"
	"fmt"

	"clumsy/internal/packet"
)

// A Node is one clumsy processor serving a packet stream: the faulty
// machine of a batch run — engine, cache hierarchy, fault process,
// recovery ladder, checkpoint/restore at packet boundaries — kept alive
// between packets, so a fleet simulator can interleave packets from many
// independent processors under one virtual clock. Fed a whole trace in
// order, a node reproduces the batch faulty run built with the same DMA
// placement: the same instructions, cycles (setup plus the sum of the
// per-packet laps), contained drops, watchdog kills, disabled lines and
// cycle time. It does not reproduce Run, which gives every packet a fresh
// buffer, because a node DMAs every packet into one reused buffer (see
// placement); the different layout changes which cache lines the packets
// share, and so hit/miss behaviour and, under faults, what gets
// corrupted. For route at seed 7 over 3,000 packets, Cr 0.25, FaultScale
// 3000 and the drop policy, the batch run executes 335,927 instructions
// in 1,173,394 cycles and the node 335,762 in 923,320
// (TestNodeMatchesBatchAtMatchedPlacement and TestNodePlacementGap pin
// both claims). A node is telemetry-silent.

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
		Delay:  golden.Delay,
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
	m          *machine
	prevCycles float64 // machine clock at the last packet boundary
}

// OpenNode builds one faulty processor for the workload: fault process per
// the configured regime (forked off the node's seed with the batch path's
// stream labels, so a node and a batch run with the same seed draw the
// same faults), hierarchy with the recovery ladder armed, engine, and —
// unless the policy is abort — a packet-boundary checkpoint. The control
// plane (Setup over the trace) runs here; a fatal error during Setup fails
// the open, where a batch run reports it as a setup death. cal must come
// from Calibrate over the same trace.
func OpenNode(cfg Config, trace *packet.Trace, cal Calibration) (*Node, error) {
	cfg = cfg.withDefaults()
	if trace == nil || len(trace.Packets) == 0 {
		return nil, errors.New("clumsy: empty trace")
	}
	cfg.Packets = len(trace.Packets)
	// No telemetry hub, even one withDefaults took from the process-wide
	// default: a fleet's nodes must not emit run counters.
	m, err := newMachine(cfg, trace, &injection{scale: cfg.FaultScale, planes: cfg.Planes}, cal.Budget, placeReused, nil)
	if err != nil {
		return nil, err
	}
	if m.out.SetupDied {
		return nil, fmt.Errorf("clumsy: node setup failed: %w", m.out.FatalErr)
	}
	return &Node{m: m, prevCycles: m.clock()}, nil
}

// Process serves one packet and returns its outcome: the simulated cycles
// it cost (the fleet's service time), and whether it was dropped or killed
// the node. Calling Process on a dead node returns ErrNodeDead; any other
// error is a simulator failure, not a simulated outcome.
func (n *Node) Process(p *packet.Packet) (NodeOutcome, error) {
	if n.m.dead {
		return NodeOutcome{}, ErrNodeDead
	}
	fatal, err := n.m.step(n.m.attempted, p)
	if err != nil {
		return NodeOutcome{}, err
	}
	out := NodeOutcome{Cycles: n.lap()}
	if fatal != nil {
		out.Dropped, out.Reason = true, dropReason(fatal)
	}
	if n.m.dead {
		// The fatal error ended the node's service life; a scrub that
		// exhausted the state ladder after a completed packet counts too.
		out.Dropped, out.Fatal = true, true
		if fatal == nil {
			out.Reason = dropReason(n.m.out.FatalErr)
		}
	}
	return out, nil
}

// lap returns the cycles since the last packet boundary and advances it.
func (n *Node) lap() float64 {
	now := n.m.clock()
	d := now - n.prevCycles
	n.prevCycles = now
	return d
}

// Health returns the node's cumulative health evidence.
func (n *Node) Health() NodeHealth {
	m := n.m
	ev := m.h.L1D.Health()
	nh := NodeHealth{
		Attempted:     m.attempted,
		Processed:     m.processed,
		Contained:     m.out.Contained,
		WatchdogKills: m.out.watchdogKills,
		LinesDisabled: ev.DisabledLines,
		DisabledFrac:  ev.DisabledFraction,
		CycleTime:     ev.CycleTime,
		Dead:          m.dead,
	}
	if m.ctrl != nil {
		nh.SpatialBackoffs = m.ctrl.SpatialBackoffs
	}
	return nh
}

// FatalErr returns the error that ended a dead node's service life, or nil.
func (n *Node) FatalErr() error { return n.m.out.FatalErr }

// Reclock raises the node's relative cycle time to cr (clamped to [current
// cycle time, 1]) — the restorative half of drain-and-re-clock: slower
// cycles give marginal cells the full sense window back, and the cache
// returns every non-pinned disabled frame to service with a clean strike
// window. Returns the applied cycle time. Static-clock nodes only; a
// dynamic node's controller owns its operating point, so Reclock is a
// no-op there.
func (n *Node) Reclock(cr float64) float64 {
	l1d := n.m.h.L1D
	cur := l1d.CycleTime()
	if n.m.ctrl != nil {
		return cur
	}
	cr = min(max(cr, cur), 1)
	if cr > cur {
		l1d.SetCycleTime(cr)
	}
	return cr
}

// Close releases the node's checkpoint resources. The node must not be
// used afterwards.
func (n *Node) Close() { n.m.release() }
