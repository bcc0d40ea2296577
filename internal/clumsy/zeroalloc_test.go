package clumsy

import (
	"runtime"
	"testing"

	"clumsy/internal/apps"
	"clumsy/internal/cache"
	"clumsy/internal/fault"
	"clumsy/internal/metrics"
	"clumsy/internal/packet"
	"clumsy/internal/simmem"
)

// zeroallocRig is a faulty-path data plane mirroring runOnce's steady
// state: an enabled fault process under parity detection, per-packet
// checkpoint commits and cache snapshots for the containing policies, and
// the line-disable ladder armed under degrade. It exists to pin the
// allocation behaviour of the per-packet hot loop, which `clumsy bench`
// reports as allocs_per_packet.
type zeroallocRig struct {
	trace      *packet.Trace
	app        apps.App
	ctx        *apps.Context
	eng        *engine
	h          *cache.Hierarchy
	ckpt       *simmem.Checkpoint
	cacheState *cache.Snapshot
	guard      *stateGuard
	next       int
	contained  int // packets dropped and rolled back
}

// newZeroallocRig builds the rig exactly as runOnce does for the given
// app, policy, and regime: same fork labels for the fault streams, parity
// detection with a two-strike retry budget, and the degrade policy arming
// line disable. Stateful apps additionally get the state guard with a
// short scrub interval, so the integrity ladder and the periodic scrub
// are inside the measured loop. A watchdogFactor of 0 leaves the watchdog
// unarmed; at a moderate fault scale the defensive applications then never
// die and every measured packet takes the success path (recovery stalls
// included). A positive factor arms it at that multiple of the worst
// packet of a fault-free pass over the trace (runOnce's budget rule,
// measured on the rig's own machine), so at a fault scale where packets
// die a contained drop pays its restore rather than an unbounded spin.
func newZeroallocRig(t *testing.T, appName string, policy RecoveryPolicy, regime FaultRegime, scale, watchdogFactor float64) *zeroallocRig {
	t.Helper()
	app, err := apps.New(appName)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := packet.Generate(app.TraceConfig(64, 0x5eed))
	if err != nil {
		t.Fatal(err)
	}
	space := simmem.NewSpace(autoSpaceBytes(trace))
	model := fault.NewModel(scale)
	seedRNG := fault.NewRNG(7)
	var proc fault.Process
	switch regime {
	case RegimeBurst:
		proc = fault.NewBurst(model, seedRNG.Fork(0xfa17), 32, fault.DefaultBurstParams())
	case RegimePermanent:
		inner := fault.NewInjector(model, seedRNG.Fork(0xfa17), 32)
		proc = fault.NewStuckAt(inner, seedRNG.Fork(0x57ac),
			cache.DefaultL1D.SizeBytes/4, fault.DefaultStuckAtParams())
	default:
		proc = fault.NewInjector(model, seedRNG.Fork(0xfa17), 32)
	}
	proc.SetEnabled(false)
	h, err := cache.NewHierarchyWith(space, proc, cache.DetectionParity, 2, cache.HierarchyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h.L1D.SetCycleTime(0.5)
	if policy == RecoverDegrade {
		h.L1D.SetLineDisable(DefaultLineDisableStrikes, DefaultLineDisableWindow)
	}
	eng, err := newEngine(h, appBlocks)
	if err != nil {
		t.Fatal(err)
	}
	rec := metrics.NewRecorder()
	ctx := &apps.Context{Space: space, Mem: dataMemory{eng}, Rec: rec, Exec: eng}
	if err := app.Setup(ctx, trace); err != nil {
		t.Fatalf("setup: %v", err)
	}
	rec.BeginPackets()
	r := &zeroallocRig{trace: trace, app: app, ctx: ctx, eng: eng, h: h}
	if sa, ok := app.(apps.StatefulApp); ok && sa.StateTable() != nil {
		// ScrubInterval 16 puts several full scrub passes inside the
		// 100-packet measurement window, pinning the scrub loop too.
		r.guard = newStateGuard(sa.StateTable(), h, nil, eng, Config{ScrubInterval: 16})
		r.guard.st.CommitShadow()
	}
	if watchdogFactor > 0 {
		var worst uint64
		for i := range trace.Packets {
			p := &trace.Packets[i]
			buf, err := dmaPacket(h, p)
			if err != nil {
				t.Fatal(err)
			}
			eng.beginPacket()
			if err := processPacket(app, ctx, p, buf); err != nil {
				t.Fatalf("fault-free packet %d: %v", i, err)
			}
			worst = max(worst, eng.packetInstrs())
		}
		eng.budget = uint64(watchdogFactor * float64(worst))
	}
	if policy != RecoverAbort {
		r.ckpt = space.NewCheckpoint()
		t.Cleanup(r.ckpt.Release)
		r.cacheState = h.Snapshot(nil)
	}
	proc.SetEnabled(true)
	return r
}

// step runs one packet through the steady-state loop: DMA, execution, and
// — for the containing policies — the checkpoint commit plus the cache
// snapshot that advance the restore point. A fatal error under a
// containing policy is handled as runOnce handles it: the watchdog burn,
// the rollback of the space and the caches, the flow-state shadow
// restore, and the scratch reset. The recorder's EndPacket and DropPacket
// are deliberately excluded: they are measurement harness, not simulated
// machine, and their per-packet record handling allocates by design.
func (r *zeroallocRig) step() error {
	p := &r.trace.Packets[r.next%len(r.trace.Packets)]
	r.next++
	buf, err := dmaPacket(r.h, p)
	if err != nil {
		return err
	}
	r.eng.beginPacket()
	if r.guard != nil {
		r.guard.packet = r.next - 1
	}
	if err := processPacket(r.app, r.ctx, p, buf); err != nil {
		if r.ckpt == nil || !isFatal(err) {
			return err
		}
		if r.eng.budget > 0 {
			r.eng.burnWatchdog(r.eng.budget)
		}
		r.ckpt.Restore()
		r.h.RestoreSnapshot(r.cacheState)
		if r.guard != nil {
			r.guard.st.RestoreShadow()
		}
		if sr, ok := r.app.(apps.ScratchResetter); ok {
			sr.ResetScratch()
		}
		r.contained++
		return nil
	}
	if r.guard != nil && r.guard.scrubDue(r.next) {
		if err := r.guard.scrubPass(r.ctx.Mem, r.next-1); err != nil {
			return err
		}
	}
	if r.ckpt != nil {
		r.ckpt.Commit()
		r.cacheState = r.h.Snapshot(r.cacheState)
	}
	if r.guard != nil {
		r.guard.st.CommitShadow()
	}
	return nil
}

// TestSteadyStatePacketLoopZeroAlloc pins the steady-state packet loop at
// zero heap allocations per packet under every app, recovery policy, and
// fault regime — including the stateful apps with the integrity guard and
// periodic scrub armed. A regression here shows up as allocs_per_packet
// drift in `clumsy bench` snapshots; this test catches it without
// snapshot noise.
func TestSteadyStatePacketLoopZeroAlloc(t *testing.T) {
	policies := []struct {
		pol  RecoveryPolicy
		name string
	}{
		{RecoverAbort, "abort"},
		{RecoverDrop, "drop"},
		{RecoverDegrade, "degrade"},
	}
	regimes := []struct {
		reg  FaultRegime
		name string
	}{
		{RegimePaper, "paper"},
		{RegimeBurst, "burst"},
		{RegimePermanent, "permanent"},
	}
	for _, appName := range []string{"route", "fw", "flowtrack"} {
		for _, p := range policies {
			for _, g := range regimes {
				t.Run(appName+"/"+p.name+"/"+g.name, func(t *testing.T) {
					if appName != "route" && g.reg == RegimePermanent && p.pol != RecoverDegrade {
						// A stuck-at bit inside the flow table re-strikes on
						// every lookup until the recovery ladder exhausts:
						// terminal by design. Only degrade's line disable
						// removes the faulty line and yields a steady state.
						t.Skip("permanent faults in flow state are terminal without line disable")
					}
					r := newZeroallocRig(t, appName, p.pol, g.reg, 25, 0)
					for i := 0; i < 200; i++ {
						if err := r.step(); err != nil {
							t.Fatalf("warm-up packet %d: %v", i, err)
						}
					}
					allocs := testing.AllocsPerRun(100, func() {
						if err := r.step(); err != nil {
							t.Fatalf("measured packet: %v", err)
						}
					})
					if allocs != 0 {
						t.Errorf("steady-state packet loop allocates %.2f times per packet, want 0", allocs)
					}
					// Self-check: the rig must actually exercise the faulty
					// path, or a zero result proves nothing.
					if r.h.L1D.Recovery.FaultsOnRead+r.h.L1D.Recovery.FaultsOnWrite == 0 {
						t.Fatal("rig injected no faults; the zero-alloc result is vacuous")
					}
					if r.h.L1D.Recovery.ParityErrors == 0 {
						t.Fatal("rig detected no parity errors; recovery path unexercised")
					}
					if r.guard != nil && r.guard.scrubPasses == 0 {
						t.Fatal("stateful rig never scrubbed; the guard path is unexercised")
					}
				})
			}
		}
	}
}

// TestContainedPacketLoopZeroAlloc pins the rollback path at zero heap
// allocations per packet: drr under degrade in the burst regime with the
// watchdog at 10x, like the restore-heavy run of the benchmark's
// run-contain workload, but at FaultScale 1000 so that packets of the
// rig's short trace die and are contained inside the measured window,
// interleaving commits with restores of the space and the caches.
func TestContainedPacketLoopZeroAlloc(t *testing.T) {
	r := newZeroallocRig(t, "drr", RecoverDegrade, RegimeBurst, 1000, 10)
	for i := 0; i < 200; i++ {
		if err := r.step(); err != nil {
			t.Fatalf("warm-up packet %d: %v", i, err)
		}
	}
	before := r.contained
	allocs := testing.AllocsPerRun(100, func() {
		if err := r.step(); err != nil {
			t.Fatalf("measured packet: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("packet loop with contained drops allocates %.2f times per packet, want 0", allocs)
	}
	// Self-check: the measured window must contain rollbacks, or a zero
	// result says nothing about the restore path.
	if r.contained == before {
		t.Fatal("no packet was contained in the measured window; the rollback path is unexercised")
	}

	// The per-packet average rounds a rare allocation away, so pin the
	// rollback itself exactly: every iteration dirties every L1D frame
	// and a run of L2 frames, then rolls the space and the caches back.
	base := simmem.PageBase
	allocs = testing.AllocsPerRun(100, func() {
		for off := simmem.Addr(0); off < 16*1024; off += 32 {
			if err := r.h.L1D.Store32(base+off, uint32(off)); err != nil {
				t.Fatal(err)
			}
		}
		r.ckpt.Restore()
		r.h.RestoreSnapshot(r.cacheState)
	})
	if allocs != 0 {
		t.Errorf("rollback of a fully dirtied hierarchy allocates %.2f times, want 0", allocs)
	}
}

// TestPacketLoopAllocsArePageMaterialisations accounts for every heap
// allocation of the packet loop exactly. Simulated memory is paged in
// lazily, so the loop's only allocations are the space pages it writes for
// the first time (a DMA buffer reaching a fresh page, a write-back into
// one) and the shadow pages Commit adds for them. Over a 100-packet window
// under drop the malloc count must equal the growth in resident space and
// shadow pages. testing.AllocsPerRun truncates its per-run mean, which
// would hide a stray allocation; this counts them all.
func TestPacketLoopAllocsArePageMaterialisations(t *testing.T) {
	r := newZeroallocRig(t, "route", RecoverDrop, RegimePaper, 25, 0)
	for i := 0; i < 200; i++ {
		if err := r.step(); err != nil {
			t.Fatalf("warm-up packet %d: %v", i, err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	padObservationLog(r.ctx.Rec)
	resident := func() int { return r.h.Space.ResidentPages() + r.ckpt.ResidentPages() }
	pages0 := resident()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range 100 {
		if err := r.step(); err != nil {
			t.Fatalf("measured packet %d: %v", i, err)
		}
	}
	runtime.ReadMemStats(&after)
	pages := resident() - pages0
	if mallocs := after.Mallocs - before.Mallocs; mallocs != uint64(pages) {
		t.Errorf("100 packets made %d heap allocations, but materialised %d space and shadow pages", mallocs, pages)
	}
	// Self-check: the window must page memory in, or equality proves
	// only that nothing happened.
	if pages == 0 {
		t.Fatal("no page was materialised in the measured window; the accounting is vacuous")
	}
}

// padObservationLog keeps the recorder's growth out of an allocation
// count. The rig skips EndPacket, so every packet's observations append to
// one log that reallocates whenever it fills: harness cost, not machine
// cost. Padding the log until an append reallocates it at a capacity of
// thousands of entries leaves headroom for far more observations than a
// 100-packet window makes (route records about five per packet). Should
// the headroom ever fall short, the extra allocation fails the count; it
// cannot hide one.
func padObservationLog(rec *metrics.Recorder) {
	const batch = 64
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for padded := 0; ; padded += batch {
		last := ms.Mallocs
		for range batch {
			rec.Observe("pad", 0)
		}
		runtime.ReadMemStats(&ms)
		if ms.Mallocs != last && padded >= 4096 {
			return
		}
	}
}
