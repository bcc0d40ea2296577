package cache

import (
	"fmt"
	"testing"

	"clumsy/internal/fault"
	"clumsy/internal/simmem"
)

// countingProcess is a fault process that counts its draws: draw i
// returns masks[i], every later draw returns 0 (no fault). The other
// Process methods go to an embedded injector.
type countingProcess struct {
	fault.Process
	draws int
	masks []uint64
}

func (p *countingProcess) NextAt(uint64) uint64 {
	p.draws++
	if p.draws <= len(p.masks) {
		return p.masks[p.draws-1]
	}
	return 0
}

func drawHierarchy(t *testing.T, det Detection, strikes int) (*Hierarchy, *countingProcess) {
	t.Helper()
	p := &countingProcess{Process: fault.NewInjector(fault.NewModel(1), fault.NewRNG(1), 32)}
	h, err := NewHierarchy(simmem.NewSpace(1<<20), p, det, strikes)
	if err != nil {
		t.Fatal(err)
	}
	return h, p
}

// access is one simmem.Memory operation on the L1D.
type access struct {
	name  string
	draws int // fault draws it makes on a hit or a miss
	do    func(*L1Data, simmem.Addr) error
}

var accesses = []access{
	{"Load8", 1, func(c *L1Data, a simmem.Addr) error { _, err := c.Load8(a + 1); return err }},
	{"Load16", 1, func(c *L1Data, a simmem.Addr) error { _, err := c.Load16(a + 2); return err }},
	{"Load32", 1, func(c *L1Data, a simmem.Addr) error { _, err := c.Load32(a); return err }},
	{"Store32", 1, func(c *L1Data, a simmem.Addr) error { return c.Store32(a, 7) }},
	// A sub-word store is a read-modify-write: a read drive and a write
	// drive of the array, each drawn.
	{"Store8", 2, func(c *L1Data, a simmem.Addr) error { return c.Store8(a+3, 7) }},
	{"Store16", 2, func(c *L1Data, a simmem.Addr) error { return c.Store16(a+2, 7) }},
}

// TestFaultDrawsPerAccess pins the fault model's draw count: one draw per
// drive of the L1D array, whether the access hits or misses (the refill
// drive is not drawn), under every detection scheme.
func TestFaultDrawsPerAccess(t *testing.T) {
	for _, det := range []Detection{DetectionNone, DetectionParity, DetectionECC} {
		for _, acc := range accesses {
			t.Run(fmt.Sprintf("%s/%s", det, acc.name), func(t *testing.T) {
				h, p := drawHierarchy(t, det, 2)
				a := h.Space.MustAlloc(64, 32)
				for _, hit := range []bool{false, true} {
					misses := h.L1D.Stats.ReadMisses + h.L1D.Stats.WriteMisses
					p.draws = 0
					if err := acc.do(h.L1D, a); err != nil {
						t.Fatal(err)
					}
					missed := h.L1D.Stats.ReadMisses+h.L1D.Stats.WriteMisses > misses
					if missed == hit {
						t.Fatalf("hit=%v: the access missed=%v", hit, missed)
					}
					if p.draws != acc.draws {
						t.Errorf("hit=%v: %d draws, want %d", hit, p.draws, acc.draws)
					}
				}
			})
		}
	}
}

// TestFaultDrawsPerStrike: a first drive that comes back faulty is not
// drawn again; each k-strike retry, and the re-read after a recovery,
// draws once more.
func TestFaultDrawsPerStrike(t *testing.T) {
	// A flip each scheme detects but does not correct.
	flips := map[Detection]uint64{DetectionParity: 0x1, DetectionECC: 0x3}
	for _, det := range []Detection{DetectionParity, DetectionECC} {
		for strikes := 1; strikes <= 3; strikes++ {
			for faulty := 0; faulty <= strikes; faulty++ {
				t.Run(fmt.Sprintf("%s/strikes=%d/faulty=%d", det, strikes, faulty), func(t *testing.T) {
					h, p := drawHierarchy(t, det, strikes)
					a := h.Space.MustAlloc(64, 32)
					if err := h.L1D.Store32(a, 0x1234); err != nil {
						t.Fatal(err)
					}
					p.draws = 0
					p.masks = make([]uint64, faulty)
					for i := range p.masks {
						p.masks[i] = flips[det]
					}
					v, err := h.L1D.Load32(a)
					if err != nil {
						t.Fatal(err)
					}
					if v != 0x1234 {
						t.Fatalf("read %#x, want 0x1234", v)
					}
					// faulty draws fail their check, the next one is clean.
					if p.draws != faulty+1 {
						t.Errorf("%d draws, want %d", p.draws, faulty+1)
					}
					rec := h.L1D.Recovery
					wantRetries, wantRecoveries := uint64(faulty), uint64(0)
					if faulty == strikes {
						wantRetries, wantRecoveries = uint64(strikes-1), 1
					}
					if rec.Retries != wantRetries || rec.Recoveries != wantRecoveries {
						t.Errorf("retries %d, recoveries %d; want %d, %d", rec.Retries, rec.Recoveries, wantRetries, wantRecoveries)
					}
				})
			}
		}
	}
}

// TestFaultDrawsBypass: an access to a set whose every frame is dead is
// served by the L2 without driving the array, so it draws nothing.
func TestFaultDrawsBypass(t *testing.T) {
	h, p := drawHierarchy(t, DetectionParity, 2)
	h.L1D.ForceDisable(1)
	a := h.Space.MustAlloc(64, 32)
	for _, acc := range accesses {
		bypasses := h.L1D.Recovery.Bypasses
		p.draws = 0
		if err := acc.do(h.L1D, a); err != nil {
			t.Fatal(err)
		}
		if h.L1D.Recovery.Bypasses == bypasses {
			t.Fatalf("%s: did not bypass", acc.name)
		}
		if p.draws != 0 {
			t.Errorf("%s: %d draws on a bypass, want 0", acc.name, p.draws)
		}
	}
}
