package clumsy

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"clumsy/internal/apps"
	"clumsy/internal/cache"
	"clumsy/internal/packet"
	"clumsy/internal/workload"
)

// Goldens memoises the fault-free reference of Run — the generated trace
// and the golden pass over it — by the configuration fields that pass
// reads. A study grid sweeps the cycle time, detection scheme, fault
// regime and recovery policy over a handful of traces, and most of those
// axes never reach the golden pass, so one memo shared by the grid runs
// each distinct golden pass once. The zero value is ready to use and safe
// for concurrent use; runs that need a key already being computed wait
// for that one pass. A nil *Goldens memoises nothing.
//
// Entries live as long as the memo. Scope one to a bounded batch of runs
// (the experiment layer holds one per study invocation) rather than to a
// process.
type Goldens struct {
	mu      sync.Mutex
	entries map[goldenKey]*goldenEntry
	passes  atomic.Int64 // golden passes executed, for the tests
}

// goldenKey is every Config field the reference reads: the trace
// generator's inputs (app, packets, seed, workload spec) and the fields
// the golden machine reads. Everything else — the operating point, the
// controller, the fault process, the ladder, the watchdog factor and the
// recovery policy — only shapes the faulty pass.
// TestGoldenKeyClassification classifies every Config field and proves
// the faulty-only ones cannot move a golden outcome.
type goldenKey struct {
	app           string
	packets       int
	seed          uint64
	shaped        bool          // Workload != nil
	workload      workload.Spec // *Workload when shaped
	detection     cache.Detection
	strikes       int
	subBlock      bool
	l1dSize       int
	spaceBytes    int
	scrubInterval int
	stateStrikes  int
}

func goldenKeyOf(cfg Config) goldenKey {
	k := goldenKey{
		app:           cfg.App,
		packets:       cfg.Packets,
		seed:          cfg.Seed,
		detection:     cfg.Detection,
		strikes:       cfg.Strikes,
		subBlock:      cfg.SubBlock,
		l1dSize:       cfg.L1DSize,
		spaceBytes:    cfg.SpaceBytes,
		scrubInterval: cfg.ScrubInterval,
		stateStrikes:  cfg.StateStrikes,
	}
	if cfg.Workload != nil {
		k.shaped, k.workload = true, *cfg.Workload
	}
	return k
}

// goldenEntry is one memoised reference, filled exactly once. A golden
// error is kept like an outcome and returned to every run of the key.
type goldenEntry struct {
	once   sync.Once
	trace  *packet.Trace
	golden *onceResult
	err    error
}

// Run is Run with the reference taken from the memo: the result is
// identical to Run(cfg), and only the first run of each golden key pays
// for the trace and the golden pass.
func (g *Goldens) Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	trace, golden, err := g.reference(cfg)
	if err != nil {
		return nil, err
	}
	cfg.Packets = len(trace.Packets)
	return runFaulty(cfg, trace, golden)
}

// reference returns the trace and golden pass of cfg (already defaulted),
// computing them on the first request of the key.
func (g *Goldens) reference(cfg Config) (*packet.Trace, *onceResult, error) {
	if g == nil {
		return goldenReference(cfg)
	}
	k := goldenKeyOf(cfg)
	g.mu.Lock()
	e := g.entries[k]
	if e == nil {
		if g.entries == nil {
			g.entries = make(map[goldenKey]*goldenEntry)
		}
		e = &goldenEntry{}
		g.entries[k] = e
	}
	g.mu.Unlock()
	e.once.Do(func() {
		g.passes.Add(1)
		// A panic would leave the entry empty for every later run of the
		// key; record it as the entry's error before passing it on.
		defer func() {
			if r := recover(); r != nil {
				e.err = fmt.Errorf("clumsy: golden pass panicked: %v", r)
				panic(r)
			}
		}()
		e.trace, e.golden, e.err = goldenReference(cfg)
	})
	return e.trace, e.golden, e.err
}

// goldenReference generates the configured trace and runs the golden pass
// over it.
func goldenReference(cfg Config) (*packet.Trace, *onceResult, error) {
	app, err := apps.New(cfg.App)
	if err != nil {
		return nil, nil, err
	}
	trace, err := packet.Generate(app.TraceConfig(cfg.Packets, cfg.Seed))
	if err != nil {
		return nil, nil, err
	}
	if cfg.Workload != nil {
		trace = cfg.Workload.Apply(trace, cfg.Seed)
	}
	golden, err := runGolden(cfg, trace)
	if err != nil {
		return nil, nil, err
	}
	return trace, golden, nil
}

// runGolden executes the golden pass: injector disabled, full swing, no
// watchdog. It reads only the golden-key fields of cfg.
func runGolden(cfg Config, trace *packet.Trace) (*onceResult, error) {
	if trace == nil || len(trace.Packets) == 0 {
		return nil, errors.New("clumsy: empty trace")
	}
	m, err := newMachine(cfg, trace, nil, 0, placeFresh, nil)
	if err != nil {
		return nil, fmt.Errorf("clumsy: golden run failed: %w", err)
	}
	golden, err := m.run(trace)
	if err != nil {
		return nil, fmt.Errorf("clumsy: golden run failed: %w", err)
	}
	if golden.FatalErr != nil {
		return nil, fmt.Errorf("clumsy: golden run must not die: %w", golden.FatalErr)
	}
	return golden, nil
}
