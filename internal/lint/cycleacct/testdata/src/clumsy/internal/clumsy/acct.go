// Fixture: cycle accounting inside the simulator core. Direct writes to the
// engine's counters are rejected unless the function is a designated
// accounting helper; snapshot structs stay writable everywhere.
package clumsy

type engine struct {
	core   float64
	instrs uint64
	burned float64
	pc     int // not a counter field: writable anywhere
}

// charge is the designated accounting helper.
//
//lint:cycle-accounting
func (e *engine) charge(n int) {
	e.instrs += uint64(n)
	e.core += float64(n)
}

func step(e *engine) {
	e.pc++
	e.instrs++    // want `direct write to cycle/energy counter field instrs`
	e.core += 1.5 // want `direct write to cycle/energy counter field core`
	e.core = 0    // want `direct write to cycle/energy counter field core`
	e.burned += 8 // want `direct write to cycle/energy counter field burned`
	e.charge(1)   // routed through the helper: no diagnostic
}

func stepClosure(e *engine) {
	f := func() {
		e.core++ // want `direct write to cycle/energy counter field core`
	}
	f()
}

// Result mirrors the real fold-out snapshot struct: not an accumulator, so
// assignments to it are fine even though the field is named Cycles.
type Result struct {
	Cycles float64
}

func fold(e *engine, r *Result) {
	r.Cycles = e.core
}

// onceResult mirrors the real run outcome: it embeds the Result snapshot
// but is the accumulator finish folds into, so its counters are protected
// whether written promoted, through the embedded field, or wholesale.
type onceResult struct {
	Result
	drops int
}

// finish is the designated fold.
//
//lint:cycle-accounting
func finish(e *engine, out *onceResult) {
	out.Cycles = e.core
	out.Result.Cycles += 1
}

func tamper(out *onceResult) {
	out.drops++            // bookkeeping, not a counter: no diagnostic
	out.Cycles = 2         // want `direct write to cycle/energy counter field Cycles`
	out.Result.Cycles++    // want `direct write to cycle/energy counter field Cycles`
	out.Result = Result{}  // want `direct write to cycle/energy counter field Result`
	snapshot := out.Result // a copy is a snapshot again
	snapshot.Cycles = 3    // no diagnostic
	out.Result = snapshot  // want `direct write to cycle/energy counter field Result`
}
