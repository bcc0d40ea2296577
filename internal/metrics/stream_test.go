package metrics

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// A script is a sequence of recorder calls: what one pass of an
// application does to its recorder.
type script []call

type call struct {
	kind  byte // 'o' Observe, 'b' BeginPackets, 'e' EndPacket, 'd' DropPacket
	name  string
	value uint64
}

func (c call) String() string {
	switch c.kind {
	case 'o':
		return fmt.Sprintf("%s=%d", c.name, c.value)
	case 'b':
		return "begin"
	case 'e':
		return "end"
	}
	return "drop"
}

func (s script) play(r *Recorder) {
	for _, c := range s {
		switch c.kind {
		case 'o':
			r.Observe(c.name, c.value)
		case 'b':
			r.BeginPackets()
		case 'e':
			r.EndPacket()
		case 'd':
			r.DropPacket()
		}
	}
}

// streamNames are the structure names scripts draw from, the synthetic
// series' names among them: an application may name a structure that way,
// and its tallies must merge with the synthetic ones in both comparisons.
var streamNames = []string{"a", "b", "c", InitErrorName, ShapeErrorName}

// bytesSource draws small numbers from a byte string, and zeros once it
// is exhausted, so every input (fuzzed or random) makes a finite script
// pair.
type bytesSource []byte

func (b *bytesSource) intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// coverage records which of the shapes the streaming check must handle a
// generated pair exercised.
type coverage struct {
	initLonger, initShorter, initValue, setupDied   bool
	nameDiverged, extraObs, missingObs, partialDrop bool
	fatal, syntheticName                            bool
}

// streamPair derives a golden script and a faulty script from src. The
// faulty one is the golden one mutated call by call: a value or a name
// changed, an observation added or left out, a completed packet dropped
// part way (its partial observations made), an extra packet, or the pass
// cut short — before BeginPackets, a Setup that died, or mid-trace.
func streamPair(src *bytesSource, cov *coverage) (golden, faulty script) {
	obs := func() call {
		return call{kind: 'o', name: streamNames[src.intn(len(streamNames))], value: uint64(src.intn(3))}
	}
	for range src.intn(4) {
		golden = append(golden, obs())
	}
	golden = append(golden, call{kind: 'b'})
	for range src.intn(6) {
		for range src.intn(4) {
			golden = append(golden, obs())
		}
		golden = append(golden, call{kind: 'e'})
	}

	inInit := true
	initG, initF := 0, 0
	pktObs := 0 // observations the faulty packet has made so far
	for _, c := range golden {
		switch src.intn(12) {
		case 0: // a fault changes the value
			if c.kind == 'o' {
				c.value++
				if inInit {
					cov.initValue = true
				}
			}
		case 1: // corrupted control flow observes another structure
			if c.kind == 'o' {
				c.name = streamNames[(src.intn(len(streamNames)-1)+1+indexOf(c.name))%len(streamNames)]
				if !inInit {
					cov.nameDiverged = true
				}
			}
		case 2: // an extra observation
			faulty = append(faulty, obs())
			pktObs++
			if inInit {
				initF++
			} else {
				cov.extraObs = true
			}
		case 3: // a missing observation
			if c.kind == 'o' {
				if inInit {
					initG++
				} else {
					cov.missingObs = true
				}
				continue
			}
		case 4: // the packet dies part way and is contained
			if c.kind == 'e' {
				c.kind = 'd'
				if pktObs > 0 {
					cov.partialDrop = true
				}
			}
		case 5: // the pass dies here
			if inInit {
				cov.setupDied = true
			}
			cov.fatal = cov.fatal || !inInit
			return golden, faulty
		}
		faulty = append(faulty, c)
		switch c.kind {
		case 'o':
			pktObs++
			if inInit {
				initG++
				initF++
			}
			if c.name == InitErrorName || c.name == ShapeErrorName {
				cov.syntheticName = true
			}
		case 'b':
			inInit = false
		case 'e', 'd':
			pktObs = 0
		}
	}
	if initF > initG {
		cov.initLonger = true
	} else if initF < initG {
		cov.initShorter = true
	}
	// More packets than the golden pass ran: nothing to compare them with.
	for range src.intn(2) {
		faulty = append(faulty, obs(), call{kind: 'e'})
	}
	return golden, faulty
}

func indexOf(name string) int {
	for i, n := range streamNames {
		if n == name {
			return i
		}
	}
	return 0
}

// checkStream fails unless a checker fed the faulty script folds the
// Report that Compare makes of the two recorded scripts.
func checkStream(t *testing.T, data []byte, cov *coverage) {
	t.Helper()
	src := bytesSource(data)
	gs, fs := streamPair(&src, cov)
	golden, faulty := NewRecorder(), NewRecorder()
	gs.play(golden)
	fs.play(faulty)
	want := Compare(golden, faulty)
	checker := NewChecker(golden)
	fs.play(checker)
	if got := checker.Report(); !reflect.DeepEqual(got, want) {
		t.Fatalf("streaming Report differs from Compare\ngolden %v\nfaulty %v\ngot  %+v\nwant %+v", gs, fs, got, want)
	}
}

// TestStreamingReportEqualsCompare is the seeded property test of the
// streaming check: over random golden/faulty pairs its Report equals
// Compare's, and the pairs cover every shape the check must handle.
func TestStreamingReportEqualsCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var cov coverage
	for range 20000 {
		data := make([]byte, rng.Intn(96))
		rng.Read(data)
		checkStream(t, data, &cov)
	}
	for name, hit := range map[string]bool{
		"a longer faulty init": cov.initLonger, "a shorter faulty init": cov.initShorter,
		"a mismatching init value": cov.initValue, "a Setup that died": cov.setupDied,
		"a name divergence mid-packet": cov.nameDiverged, "an extra observation": cov.extraObs,
		"a missing observation": cov.missingObs, "a drop with partial observations": cov.partialDrop,
		"a faulty pass cut short": cov.fatal, "a structure named like a synthetic series": cov.syntheticName,
	} {
		if !hit {
			t.Errorf("no generated pair had %s; the property is vacuous there", name)
		}
	}
}

// FuzzStreamCompare checks the streaming Report against Compare on
// fuzzed golden/faulty script pairs.
func FuzzStreamCompare(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 3, 2, 1, 0, 1, 0, 4, 11, 11, 1, 11, 2, 11, 4, 11, 11})
	f.Add([]byte{3, 1, 1, 3, 2, 5, 2, 4, 0, 1, 3, 2, 2, 7, 7, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkStream(t, data, &coverage{})
	})
}

// TestCheckerStagesUntilEndPacket pins the staging: a dropped packet's
// compared observations leave no tally, and a completed packet's land
// only when it ends.
func TestCheckerStagesUntilEndPacket(t *testing.T) {
	golden := record(nil, [][]uint64{{1, 2}, {3}})
	c := NewChecker(golden)
	c.BeginPackets()
	c.Observe("val", 9) // mismatch, then the packet is dropped
	c.DropPacket()
	c.Observe("val", 3)
	if got := c.Report().PerStructure["val"]; got != (StructCount{}) {
		t.Fatalf("tallies before EndPacket: %+v", got)
	}
	c.EndPacket()
	rep := c.Report()
	if rep.Dropped != 1 || rep.Processed != 1 || rep.PacketsWith != 0 || rep.Fatal {
		t.Fatalf("report %+v", rep)
	}
	if got := rep.PerStructure["val"]; got != (StructCount{Total: 1}) {
		t.Fatalf("val tallies %+v, want one clean comparison", got)
	}
}

// TestCheckerAllocatesNothing pins the checker's per-observation and
// per-packet path at zero heap allocations: the faulty pass stores no
// observations.
func TestCheckerAllocatesNothing(t *testing.T) {
	golden := NewRecorder()
	golden.Observe("init", 1)
	golden.BeginPackets()
	for range 101 {
		golden.Observe("val", 1)
		golden.Observe("val", 2)
		golden.EndPacket()
		golden.Observe("other", 3)
		golden.EndPacket()
		golden.Observe("val", 4)
		golden.EndPacket()
	}
	c := NewChecker(golden)
	c.Observe("init", 1)
	c.BeginPackets()
	allocs := testing.AllocsPerRun(100, func() {
		c.Observe("val", 1)
		c.Observe("val", 7)
		c.EndPacket()
		c.Observe("other", 3)
		c.DropPacket()
		c.Observe("val", 4)
		c.EndPacket()
	})
	if allocs != 0 {
		t.Fatalf("checking made %v heap allocations per run, want 0", allocs)
	}
	if rep := c.Report(); rep.Fatal || rep.PacketsWith != 101 || rep.Dropped != 101 {
		t.Fatalf("the measured calls did not follow the golden stream: %+v", rep)
	}
}

// TestNilRecorderRecordsNothing: a machine with no golden stream makes
// every recorder call on a nil recorder.
func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	r.Observe("x", 1)
	r.BeginPackets()
	r.Observe("y", 2)
	r.EndPacket()
	r.DropPacket()
}

// TestCheckersShareGolden: a memoised golden stream serves concurrent
// faulty passes, each through its own checker; run with -race.
func TestCheckersShareGolden(t *testing.T) {
	golden := record([]uint64{1, 2}, [][]uint64{{10, 20}, {30}, {40, 50}})
	calls := script{{'o', "init", 1}, {'o', "init", 2}, {'b', "", 0},
		{'o', "val", 10}, {'o', "val", 21}, {'e', "", 0}, {'o', "val", 30}, {'d', "", 0}}
	faulty := NewRecorder()
	calls.play(faulty)
	want := Compare(golden, faulty)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewChecker(golden)
			calls.play(c)
			if got := c.Report(); !reflect.DeepEqual(got, want) {
				t.Errorf("concurrent checker: %+v, want %+v", got, want)
			}
		}()
	}
	wg.Wait()
}
