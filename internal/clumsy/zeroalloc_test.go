package clumsy

import (
	"runtime"
	"runtime/debug"
	"testing"

	"clumsy/internal/apps"
	"clumsy/internal/cache"
	"clumsy/internal/packet"
	"clumsy/internal/simmem"
)

// allocMachine builds the production faulty machine the allocation pins
// step, the way runFaulty builds it: parity detection with a two-strike
// retry budget at Cr 0.5, faults on the data plane only, the degrade
// policy arming line disable, and — for the stateful apps — the state
// guard with a 16-packet scrub interval, so the integrity ladder and the
// periodic scrub are inside the measured windows. A watchdogFactor of 0
// leaves the watchdog unarmed; at a moderate fault scale the defensive
// applications then never die and every measured packet completes
// (recovery stalls included). A positive factor arms it at that multiple
// of the golden pass's worst packet, runFaulty's budget rule, so at a
// fault scale where packets die a contained drop pays its restore rather
// than an unbounded spin. The 64-packet trace is served cyclically. The
// machine has no golden stream, so it records nothing: the checker a
// faulty run makes instead allocates nothing per observation or packet
// (metrics.TestCheckerAllocatesNothing).
func allocMachine(t *testing.T, appName string, policy RecoveryPolicy, regime FaultRegime, scale, watchdogFactor float64) (*machine, *packet.Trace) {
	t.Helper()
	app, err := apps.New(appName)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := packet.Generate(app.TraceConfig(64, 0x5eed))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{App: appName, Seed: 7, CycleTime: 0.5,
		Detection: cache.DetectionParity, Strikes: 2, ScrubInterval: 16,
		FaultScale: scale, Planes: PlaneData, Regime: regime, Recovery: policy}
	var budget uint64
	if watchdogFactor > 0 {
		golden, err := runGolden(cfg, trace)
		if err != nil {
			t.Fatal(err)
		}
		budget = uint64(watchdogFactor * float64(golden.maxPacketInstrs))
	}
	m, err := newMachine(cfg, trace, &injection{scale: scale, planes: PlaneData}, budget, placeFresh, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.release)
	if m.dead {
		t.Fatalf("setup died: %v", m.out.FatalErr)
	}
	return m, trace
}

// cursor serves a trace cyclically to a machine.
type cursor struct {
	m    *machine
	tr   *packet.Trace
	next int
}

func (c *cursor) packet() (int, *packet.Packet) {
	i := c.next
	c.next++
	return i, &c.tr.Packets[i%len(c.tr.Packets)]
}

// steps runs n packets through the production step.
func (c *cursor) steps(t *testing.T, n int) {
	t.Helper()
	for range n {
		i, p := c.packet()
		if _, err := c.m.step(i, p); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if c.m.dead {
			t.Fatalf("packet %d ended the run: %v", i, c.m.out.FatalErr)
		}
	}
}

// residentPages counts the materialised space and shadow pages.
func residentPages(m *machine) int {
	n := m.h.Space.ResidentPages()
	if m.ckpt != nil {
		n += m.ckpt.ResidentPages()
	}
	return n
}

// window is the allocation ledger of a measured stretch of packets.
type window struct {
	mallocs uint64 // heap allocations the stretch made
	pages   uint64 // space and shadow pages it materialised
	drops   int    // packets contained inside it
}

// measure steps n packets through the production step and accounts for
// their heap allocations. Simulated memory is paged in lazily, so the
// machine's only allocations are the space pages it writes for the first
// time (a DMA buffer reaching a fresh page, a write-back into one) and the
// shadow pages Commit adds for them.
func (c *cursor) measure(t *testing.T, n int) window {
	t.Helper()
	m := c.m
	contained, pages := m.out.Contained, residentPages(m)
	return window{
		mallocs: mallocs(func() { c.steps(t, n) }),
		pages:   uint64(residentPages(m) - pages),
		drops:   m.out.Contained - contained,
	}
}

// mallocs returns the exact number of heap allocations f makes, on one
// OS thread; testing.AllocsPerRun truncates its per-run mean, which would
// hide a stray allocation. The collector is off while f runs: a GC cycle
// starting inside f allocates for the runtime itself (a mark worker's
// goroutine and sudog, a growth of the scavenger's timer heap), which
// would be charged to f at random.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// checkAttributed fails unless every allocation of a drop-free window is a
// page materialisation.
func checkAttributed(t *testing.T, w window, n int) {
	t.Helper()
	if w.drops != 0 {
		t.Fatalf("the window contained %d drops; the pin is for drop-free windows", w.drops)
	}
	if w.mallocs != w.pages {
		t.Errorf("%d packets made %d heap allocations; %d page materialisations account for them",
			n, w.mallocs, w.pages)
	}
}

// allocPolicies and allocRegimes are the recovery policies and fault
// regimes the allocation pins and ceilings sweep, in table order.
var (
	allocPolicies = []struct {
		pol  RecoveryPolicy
		name string
	}{
		{RecoverAbort, "abort"},
		{RecoverDrop, "drop"},
		{RecoverDegrade, "degrade"},
	}
	allocRegimes = []struct {
		reg  FaultRegime
		name string
	}{
		{RegimePaper, "paper"},
		{RegimeBurst, "burst"},
		{RegimePermanent, "permanent"},
	}
)

// TestSteadyStatePacketLoopZeroAlloc pins the machine's own share of the
// steady-state packet step at zero heap allocations under every policy
// and fault regime, for a table lookup (route), hashing (md5), pattern
// matching (url) and the stateful apps with the integrity guard and
// periodic scrub armed (fw, flowtrack): every allocation of a measured
// window is a page materialisation. The count is exact, so a single stray
// allocation in the step fails here.
func TestSteadyStatePacketLoopZeroAlloc(t *testing.T) {
	for _, appName := range []string{"route", "md5", "url", "fw", "flowtrack"} {
		stateful := appName == "fw" || appName == "flowtrack"
		for _, p := range allocPolicies {
			for _, g := range allocRegimes {
				t.Run(appName+"/"+p.name+"/"+g.name, func(t *testing.T) {
					if stateful && g.reg == RegimePermanent && p.pol != RecoverDegrade {
						// A stuck-at bit inside the flow table re-strikes on
						// every lookup until the recovery ladder exhausts:
						// terminal by design. Only degrade's line disable
						// removes the faulty line and yields a steady state.
						t.Skip("permanent faults in flow state are terminal without line disable")
					}
					m, tr := allocMachine(t, appName, p.pol, g.reg, 25, 0)
					c := &cursor{m: m, tr: tr}
					c.steps(t, 200)
					scrubs := uint64(0)
					if m.guard != nil {
						scrubs = m.guard.scrubPasses
					}
					checkAttributed(t, c.measure(t, 100), 100)
					// Self-check: the window must actually exercise the
					// faulty path, or a clean ledger proves nothing.
					if m.h.L1D.Recovery.FaultsOnRead+m.h.L1D.Recovery.FaultsOnWrite == 0 {
						t.Fatal("no faults injected; the zero-alloc result is vacuous")
					}
					if m.h.L1D.Recovery.ParityErrors == 0 {
						t.Fatal("no parity errors detected; recovery path unexercised")
					}
					if m.guard != nil && m.guard.scrubPasses == scrubs {
						t.Fatal("the stateful machine never scrubbed in the window; the guard path is unexercised")
					}
				})
			}
		}
	}
}

// TestContainedPacketLoopZeroAlloc pins the rollback half of the step at
// zero heap allocations of its own: drr under degrade in the burst regime
// with the watchdog at 10x, like the restore-heavy run of the benchmark's
// run-contain workload, but at FaultScale 1000 so that packets of the
// short trace die and are contained inside the measured 800-packet
// window, interleaving commits with restores of the space and the caches.
// The window drives step's halves itself and measures contain, the second
// half of every dropped packet, on its own: it allocates nothing.
func TestContainedPacketLoopZeroAlloc(t *testing.T) {
	m, tr := allocMachine(t, "drr", RecoverDegrade, RegimeBurst, 1000, 10)
	c := &cursor{m: m, tr: tr}
	c.steps(t, 200)

	drops := 0
	for range 800 {
		i, p := c.packet()
		fatal, err := m.execute(i, p)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if fatal == nil {
			if err := m.commit(i); err != nil || m.dead {
				t.Fatalf("packet %d: err %v, fatal %v", i, err, m.out.FatalErr)
			}
			continue
		}
		got := mallocs(func() { err = m.contain(i, fatal) })
		if err != nil || m.dead {
			t.Fatalf("packet %d: err %v, fatal %v", i, err, m.out.FatalErr)
		}
		drops++
		if got != 0 {
			t.Errorf("containing packet %d (%v) made %d heap allocations, want 0", i, fatal, got)
		}
	}
	// Self-check: the measured window must contain rollbacks, or a clean
	// ledger says nothing about the restore path.
	if drops == 0 {
		t.Fatal("no packet was contained in the measured window; the rollback path is unexercised")
	}

	// Pin the rollback of a fully dirtied hierarchy exactly too: every
	// iteration dirties every L1D frame and a run of L2 frames, then rolls
	// the space and the caches back.
	base := simmem.PageBase
	dirtyAndRollBack := func() {
		for off := simmem.Addr(0); off < 16*1024; off += 32 {
			if err := m.h.L1D.Store32(base+off, uint32(off)); err != nil {
				t.Fatal(err)
			}
		}
		m.rollback()
	}
	dirtyAndRollBack() // warm-up: the undo logs reach their working size
	if n := mallocs(func() {
		for range 100 {
			dirtyAndRollBack()
		}
	}); n != 0 {
		t.Errorf("100 rollbacks of a fully dirtied hierarchy made %d heap allocations, want 0", n)
	}
}

// TestPacketLoopAllocsArePageMaterialisations accounts for every heap
// allocation of a drop-policy window of route exactly, and checks that the
// window pages memory in, so the page half of the ledger is exercised.
func TestPacketLoopAllocsArePageMaterialisations(t *testing.T) {
	m, tr := allocMachine(t, "route", RecoverDrop, RegimePaper, 25, 0)
	c := &cursor{m: m, tr: tr}
	c.steps(t, 200)
	w := c.measure(t, 100)
	checkAttributed(t, w, 100)
	// Self-check: the window must page memory in, or equality proves only
	// that nothing happened.
	if w.pages == 0 {
		t.Fatal("the window materialised no pages; the accounting is vacuous")
	}
}

// runAllocCeilings bounds the heap allocations of one whole Run per
// packet, indexed [policy][regime] in allocPolicies/allocRegimes order.
// Each ceiling is the larger of the plain and -race readings plus 4%,
// rounded up to 0.1 (Go 1.24, linux/amd64): a run's count jitters by at
// most a few allocations, while one more per packet breaches every cell.
var runAllocCeilings = []struct {
	app      string
	ceilings [3][3]float64
}{
	{"route", [3][3]float64{{1.0, 1.0, 1.0}, {1.1, 1.1, 1.2}, {1.1, 1.1, 1.2}}},
	{"md5", [3][3]float64{{1.0, 1.0, 1.0}, {1.2, 1.2, 1.2}, {1.2, 1.2, 1.2}}},
	{"url", [3][3]float64{{1.5, 1.5, 1.5}, {1.9, 1.9, 1.9}, {1.9, 1.9, 1.9}}},
	{"fw", [3][3]float64{{1.1, 1.1, 1.1}, {1.2, 1.2, 1.3}, {1.2, 1.2, 1.3}}},
}

// TestRunAllocCeilings bounds what the exact step pins leave open — trace
// generation, setup, the golden pass, the checker and the result — by counting
// every heap allocation of one whole seeded Run after a warm-up Run.
func TestRunAllocCeilings(t *testing.T) {
	for _, c := range runAllocCeilings {
		for pi, p := range allocPolicies {
			for gi, g := range allocRegimes {
				t.Run(c.app+"/"+p.name+"/"+g.name, func(t *testing.T) {
					cfg := Config{App: c.app, Packets: 150, Seed: 7, FaultScale: 25,
						CycleTime: 0.5, Detection: cache.DetectionParity, Strikes: 2,
						Recovery: p.pol, Regime: g.reg}
					run := func() {
						if _, err := Run(cfg); err != nil {
							t.Fatal(err)
						}
					}
					run()
					got := float64(mallocs(run)) / float64(cfg.Packets)
					if got > c.ceilings[pi][gi] {
						t.Errorf("one Run made %.2f heap allocations per packet, ceiling %.1f", got, c.ceilings[pi][gi])
					}
				})
			}
		}
	}
}
