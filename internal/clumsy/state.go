package clumsy

import (
	"errors"
	"fmt"

	"clumsy/internal/cache"
	"clumsy/internal/simmem"
	"clumsy/internal/telemetry"
)

// ErrStateCorrupt is returned when a flow record exhausts the state
// recovery ladder: the checksum kept mismatching through eviction and
// shadow rebuilds, so cross-packet state can no longer be trusted. It is
// a distinct outcome from an ordinary contained drop — the damage spans
// packet boundaries — and is terminal under every recovery policy.
var ErrStateCorrupt = errors.New("clumsy: unrecoverable flow-state corruption")

const (
	// DefaultStateStrikes is the per-record corruption budget: strike 1
	// evicts, later strikes rebuild from the golden shadow, and reaching
	// the budget declares the run's state unrecoverable.
	DefaultStateStrikes = 4
	// DefaultScrubInterval is the scrub period in completed packets used
	// when the config leaves ScrubInterval at zero ("default"); a negative
	// ScrubInterval disables scrubbing.
	DefaultScrubInterval = 64
)

// stateGuard wires a StatefulApp's flow table into the processor: it is
// the OnCorrupt recovery ladder, the periodic scrub pass, and the
// end-of-run divergence audit. One guard exists per machine, installed in
// the golden and the faulty pass alike so both execute identical
// instruction streams (the ladder can only fire where faults exist).
type stateGuard struct {
	st  *simmem.StateTable
	h   *cache.Hierarchy
	rt  *telemetry.RunTrace
	eng *engine

	interval int // scrub period in completed packets, 0 = disabled
	budget   int // per-record strike budget

	strikes []uint16 // per-record corruption strikes, monotone evidence
	repair  []byte   // DMA image scratch, RecordBytes long
	words   []uint32 // audit read scratch, RecWords long
	packet  int      // current packet index, for event stamping

	detected    uint64
	evictions   uint64
	rebuilds    uint64
	scrubPasses uint64
}

// newStateGuard builds the guard and installs its recovery ladder as the
// table's OnCorrupt handler.
func newStateGuard(st *simmem.StateTable, h *cache.Hierarchy, rt *telemetry.RunTrace, eng *engine, cfg Config) *stateGuard {
	g := &stateGuard{
		st:       st,
		h:        h,
		rt:       rt,
		eng:      eng,
		interval: cfg.ScrubInterval,
		budget:   cfg.StateStrikes,
		strikes:  make([]uint16, st.Records()),
		repair:   make([]byte, st.RecordBytes()),
		words:    make([]uint32, st.RecWords()),
	}
	if g.interval == 0 {
		g.interval = DefaultScrubInterval
	} else if g.interval < 0 {
		g.interval = 0
	}
	if g.budget <= 0 {
		g.budget = DefaultStateStrikes
	}
	st.OnCorrupt = g.onCorrupt
	return g
}

// onCorrupt is the recovery ladder, invoked by StateTable.Lookup on a
// checksum mismatch. Strike counts are fault evidence, not program state:
// like engine cycle counters they are monotone and survive packet-boundary
// rollback. This is the rare rung — it runs only on detected corruption —
// so it is deliberately not a //lint:hot-path function: event emission
// and repair bookkeeping may allocate here.
func (g *stateGuard) onCorrupt(idx int) error {
	g.detected++
	g.strikes[idx]++
	s := int(g.strikes[idx])
	if s >= g.budget {
		g.rt.StateCorrupt(g.packet, idx, "unrecoverable", s)
		return fmt.Errorf("%w: record %d after %d strikes", ErrStateCorrupt, idx, s) //lint:alloc-ok terminal rung, run is over
	}
	if s == 1 {
		// First strike: evict. The shadow is zeroed too, so record bytes
		// and golden oracle agree (a later partial update + Seal would
		// otherwise write a checksum inconsistent with memory).
		g.evictions++
		g.st.ZeroShadow(idx)
	} else {
		// Later strikes: rebuild the exact golden bytes from the shadow.
		g.rebuilds++
	}
	g.st.EncodeShadow(idx, g.repair)
	if s == 1 {
		g.rt.StateCorrupt(g.packet, idx, "evict", s)
	} else {
		g.rt.StateCorrupt(g.packet, idx, "rebuild", s)
	}
	// Coherent DMA: the repair image must not destroy a neighbouring
	// record's unwritten stores sharing a cache line with this record.
	return g.h.CoherentDMA(g.st.RecordAddr(idx), g.repair)
}

// scrubDue reports whether the periodic scrub pass should run after
// `processed` completed packets.
func (g *stateGuard) scrubDue(processed int) bool {
	return g.interval > 0 && processed%g.interval == 0
}

// scrubPass verifies every record of the table through the charged memory
// path, driving the recovery ladder on any latent mismatch. It runs as
// trusted firmware between packets: the per-packet watchdog is suspended
// for its (table-bounded) duration, but every access still costs cycles.
func (g *stateGuard) scrubPass(mem simmem.Memory, pkt int) error {
	g.packet = pkt
	g.scrubPasses++
	before := g.detected
	saved := g.eng.budget
	g.eng.budget = 0
	var err error
	for idx := 0; idx < g.st.Records(); idx++ {
		if _, err = g.st.Lookup(mem, idx); err != nil {
			break
		}
	}
	g.eng.budget = saved
	g.rt.StateScrub(pkt, g.st.Records(), int(g.detected-before))
	return err
}

// capture copies the guard's counters into the run result.
func (g *stateGuard) capture(out *onceResult) {
	out.StateRecords = g.st.Records()
	out.StateDetected = g.detected
	out.StateEvictions = g.evictions
	out.StateRebuilds = g.rebuilds
	out.StateScrubs = g.scrubPasses
}

// audit is the end-of-run divergence check of the faulty pass: with the
// injector disabled it reads every stored record uncharged through the
// L1D and compares against the golden shadow. A diverged record whose
// stored checksum still verifies is *undetected* corruption — a checksum
// collision, the only channel the integrity machinery cannot close.
func (g *stateGuard) audit(out *onceResult) error {
	for idx := 0; idx < g.st.Records(); idx++ {
		diverged := false
		for w := 0; w < g.st.RecWords(); w++ {
			v, err := g.h.L1D.Load32(g.st.FieldAddr(idx, w))
			if err != nil {
				return err
			}
			g.words[w] = v
			if v != g.st.ShadowWord(idx, w) {
				diverged = true
			}
		}
		storedSum, err := g.h.L1D.Load32(g.st.SumAddr(idx))
		if err != nil {
			return err
		}
		if storedSum != g.st.ShadowSum(idx) {
			diverged = true
		}
		if !diverged {
			continue
		}
		out.StateDiverged++
		if g.st.SumOf(g.words, idx) == storedSum {
			out.StateUndetected++
		}
	}
	return nil
}
