package cycleacct_test

import (
	"strings"
	"testing"

	"clumsy/internal/lint/analysistest"
	"clumsy/internal/lint/cycleacct"
)

func TestCycleAcct(t *testing.T) {
	analysistest.Run(t, cycleacct.Analyzer,
		"clumsy/internal/clumsy",
		"clumsy/internal/cache",
		"clumsy/internal/metrics",
	)
}

// foldMirror mirrors the real run outcome: onceResult embeds the reported
// Result, only the annotated finish writes its counters, and the
// containment path keeps its own bookkeeping.
const foldMirror = `package clumsy

type engine struct {
	core   float64
	instrs uint64
}

type Result struct {
	Cycles float64
	Instrs uint64
}

type onceResult struct {
	Result
	drops int
}

// finish folds the engine's counters into the run outcome.
//
//lint:cycle-accounting
func finish(e *engine, out *onceResult) {
	out.Cycles = e.core
	out.Instrs = e.instrs
}

// contain counts a dropped packet.
func contain(out *onceResult) {
	out.drops++
}
`

// TestMutationUnaccountedFoldWrite charges cycles into the run outcome
// outside finish — promoted, and through the embedded Result — the way a
// containment path might bill a drop on its own; cycleacct must catch
// both.
func TestMutationUnaccountedFoldWrite(t *testing.T) {
	files := map[string]string{"internal/clumsy/fold.go": foldMirror}
	if got := analysistest.CheckSource(t, cycleacct.Analyzer, files); len(got) != 0 {
		t.Fatalf("pristine mirror must be clean, got %v", got)
	}
	for _, write := range []string{"out.Cycles += 100", "out.Result.Cycles += 100"} {
		mutated := strings.Replace(foldMirror, "\tout.drops++\n", "\tout.drops++\n\t"+write+"\n", 1)
		if mutated == foldMirror {
			t.Fatal("mutation did not apply")
		}
		files["internal/clumsy/fold.go"] = mutated
		got := analysistest.CheckSource(t, cycleacct.Analyzer, files)
		if len(got) != 1 || !strings.Contains(got[0].Message, "direct write to cycle/energy counter field Cycles") {
			t.Errorf("%s outside finish must be caught, got %v", write, got)
		}
	}
}
