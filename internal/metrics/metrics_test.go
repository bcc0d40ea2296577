package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

// record builds a recorder with the given init values and per-packet
// observation sets.
func record(init []uint64, packets [][]uint64) *Recorder {
	r := NewRecorder()
	for i, v := range init {
		r.Observe("init", v)
		_ = i
	}
	r.BeginPackets()
	for _, pkt := range packets {
		for _, v := range pkt {
			r.Observe("val", v)
		}
		r.EndPacket()
	}
	return r
}

func TestIdenticalRunsNoErrors(t *testing.T) {
	g := record([]uint64{1, 2}, [][]uint64{{10, 20}, {30}})
	f := record([]uint64{1, 2}, [][]uint64{{10, 20}, {30}})
	rep := Compare(g, f)
	if rep.PacketsWith != 0 || rep.Fatal || rep.InitMismatch {
		t.Fatalf("identical runs reported errors: %+v", rep)
	}
	if rep.Fallibility() != 1 {
		t.Fatalf("fallibility = %v, want 1", rep.Fallibility())
	}
	if rep.FatalProbability() != 0 {
		t.Fatalf("fatal probability = %v, want 0", rep.FatalProbability())
	}
}

func TestValueMismatchCounted(t *testing.T) {
	g := record(nil, [][]uint64{{10}, {20}, {30}, {40}})
	f := record(nil, [][]uint64{{10}, {99}, {30}, {40}})
	rep := Compare(g, f)
	if rep.PacketsWith != 1 {
		t.Fatalf("packets with error = %d, want 1", rep.PacketsWith)
	}
	if got := rep.Fallibility(); got != 1.25 {
		t.Fatalf("fallibility = %v, want 1.25", got)
	}
	if p := rep.ErrorProbability("val"); p != 0.25 {
		t.Fatalf("per-structure probability = %v, want 0.25", p)
	}
}

func TestInitMismatch(t *testing.T) {
	g := record([]uint64{1, 2, 3}, [][]uint64{{5}})
	f := record([]uint64{1, 9, 3}, [][]uint64{{5}})
	rep := Compare(g, f)
	if !rep.InitMismatch {
		t.Fatal("init mismatch not detected")
	}
	if p := rep.ErrorProbability(InitErrorName); math.Abs(p-1.0/3) > 1e-12 {
		t.Fatalf("init error probability = %v, want 1/3", p)
	}
	if rep.PacketsWith != 0 {
		t.Fatal("init errors must not count as packet errors")
	}
}

func TestShapeDivergence(t *testing.T) {
	g := record(nil, [][]uint64{{1, 2}, {3, 4}})
	f := record(nil, [][]uint64{{1, 2, 7}, {3, 4}}) // extra observation
	rep := Compare(g, f)
	if rep.PacketsWith != 1 {
		t.Fatalf("shape divergence should mark the packet, got %d", rep.PacketsWith)
	}
	if rep.ErrorProbability(ShapeErrorName) == 0 {
		t.Fatal("shape error not recorded")
	}
}

func TestNameDivergence(t *testing.T) {
	g := NewRecorder()
	g.BeginPackets()
	g.Observe("a", 1)
	g.EndPacket()
	f := NewRecorder()
	f.BeginPackets()
	f.Observe("b", 1)
	f.EndPacket()
	rep := Compare(g, f)
	if rep.PacketsWith != 1 || rep.ErrorProbability(ShapeErrorName) == 0 {
		t.Fatalf("diverging names should be a shape error: %+v", rep)
	}
}

func TestFatalRun(t *testing.T) {
	g := record(nil, [][]uint64{{1}, {2}, {3}, {4}, {5}})
	f := record(nil, [][]uint64{{1}, {2}}) // died after two packets
	rep := Compare(g, f)
	if !rep.Fatal {
		t.Fatal("short run should be fatal")
	}
	if rep.Processed != 2 {
		t.Fatalf("processed = %d", rep.Processed)
	}
	if p := rep.FatalProbability(); math.Abs(p-1.0/3) > 1e-12 {
		t.Fatalf("fatal probability = %v, want 1/3", p)
	}
}

func TestFallibilityOfDeadRun(t *testing.T) {
	g := record(nil, [][]uint64{{1}})
	f := record(nil, nil)
	rep := Compare(g, f)
	if rep.Fallibility() != 2 {
		t.Fatalf("fallibility of a run that processed nothing = %v, want 2", rep.Fallibility())
	}
}

func TestRecorderReset(t *testing.T) {
	r := record([]uint64{1}, [][]uint64{{2}})
	r.Reset()
	if len(r.Init()) != 0 || r.Packets() != 0 {
		t.Fatal("reset did not clear recorder")
	}
	r.Observe("x", 5)
	if len(r.Init()) != 1 {
		t.Fatal("after reset, observations should go to init phase")
	}
}

func TestStructureNamesSorted(t *testing.T) {
	g := NewRecorder()
	g.BeginPackets()
	g.Observe("zeta", 1)
	g.Observe("alpha", 2)
	g.EndPacket()
	f := NewRecorder()
	f.BeginPackets()
	f.Observe("zeta", 1)
	f.Observe("alpha", 2)
	f.EndPacket()
	rep := Compare(g, f)
	// Every packet carries a control-flow entry alongside the observed
	// structures, and the list comes back sorted.
	names := rep.StructureNames()
	if len(names) != 3 || names[0] != "alpha" || names[1] != ShapeErrorName || names[2] != "zeta" {
		t.Fatalf("names = %v", names)
	}
}

func TestEDFDefaults(t *testing.T) {
	e := DefaultExponents()
	if e.K != 1 || e.M != 2 || e.N != 2 {
		t.Fatalf("default exponents %+v, want k=1 m=2 n=2", e)
	}
	got := e.EDF(2, 3, 1.5)
	want := 2.0 * 9 * 2.25
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("EDF = %v, want %v", got, want)
	}
}

func TestEDFMonotoneProperty(t *testing.T) {
	e := DefaultExponents()
	f := func(a, b, c uint8) bool {
		en, d, fb := 1+float64(a), 1+float64(b), 1+float64(c)/255
		base := e.EDF(en, d, fb)
		return e.EDF(en*1.1, d, fb) > base &&
			e.EDF(en, d*1.1, fb) > base &&
			e.EDF(en, d, fb*1.1) > base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEDFPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative energy")
		}
	}()
	DefaultExponents().EDF(-1, 1, 1)
}

func TestEDFCustomExponents(t *testing.T) {
	// Fallibility weighted harder: errors dominate.
	e := EDFExponents{K: 1, M: 1, N: 4}
	if e.EDF(1, 1, 2) != 16 {
		t.Fatalf("EDF = %v, want 16", e.EDF(1, 1, 2))
	}
}
