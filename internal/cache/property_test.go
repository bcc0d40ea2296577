package cache

import (
	"fmt"
	"testing"

	"clumsy/internal/fault"
	"clumsy/internal/simmem"
)

// TestHierarchyMatchesReferenceMemory drives long random operation
// sequences through the full fault-free hierarchy and through a flat
// reference memory, and demands bit-identical results — the fundamental
// correctness property of the cache simulator (write-back, write-allocate,
// eviction, multi-level inclusion, parity bookkeeping, sub-word
// read-modify-write).
//
// The L1D runs at every geometry the flat line table must get right: the
// direct-mapped default and 2- and 4-way sets (the way stride), each with
// no dead frames and with ForceDisable pinning 30% and 80% of them dead.
// ForceDisable takes frames way-major, so 30% kills whole sets only on
// the direct-mapped geometry; on the associative ones it leaves every set
// serving from its live ways. 80% also kills every way of some sets on
// all three, whose accesses bypass to the L2.
func TestHierarchyMatchesReferenceMemory(t *testing.T) {
	for _, det := range []Detection{DetectionNone, DetectionParity, DetectionECC} {
		t.Run(det.String(), func(t *testing.T) {
			t.Parallel()
			for _, assoc := range []int{1, 2, 4} {
				for _, dead := range []float64{0, 0.3, 0.8} {
					l1d := DefaultL1D
					l1d.Assoc = assoc
					t.Run(fmt.Sprintf("assoc=%d/dead=%g", assoc, dead), func(t *testing.T) {
						t.Parallel()
						checkAgainstReference(t, det, l1d, dead)
					})
				}
			}
		})
	}
}

func checkAgainstReference(t *testing.T, det Detection, l1d Config, dead float64) {
	space := simmem.NewSpace(1 << 20)
	ref := simmem.NewSpace(1 << 20)
	m := fault.NewModel(1)
	inj := fault.NewInjector(m, fault.NewRNG(1), 32)
	inj.SetEnabled(false)
	h, err := NewHierarchyWith(space, inj, det, 2, HierarchyConfig{L1D: l1d})
	if err != nil {
		t.Fatal(err)
	}
	h.L1D.ForceDisable(dead)
	// A working set deliberately larger than the L1 and
	// overlapping L2 sets, to force evictions and refills.
	base := space.MustAlloc(64*1024, 64)
	if _, err := ref.Alloc(64*1024, 64); err != nil {
		t.Fatal(err)
	}

	rng := fault.NewRNG(99)
	for op := 0; op < 200000; op++ {
		addr := base + simmem.Addr(rng.Intn(64*1024-8))
		switch rng.Intn(6) {
		case 0:
			v := rng.Uint32()
			if err := h.L1D.Store32(addr, v); err != nil {
				t.Fatal(err)
			}
			if err := ref.Store32(addr, v); err != nil {
				t.Fatal(err)
			}
		case 1:
			a, errA := h.L1D.Load32(addr)
			b, errB := ref.Load32(addr)
			if errA != nil || errB != nil {
				t.Fatalf("op %d: load errors %v %v", op, errA, errB)
			}
			if a != b {
				t.Fatalf("op %d: Load32(%#x) = %#x, ref %#x", op, addr, a, b)
			}
		case 2:
			v := uint16(rng.Uint32())
			if err := h.L1D.Store16(addr, v); err != nil {
				t.Fatal(err)
			}
			if err := ref.Store16(addr, v); err != nil {
				t.Fatal(err)
			}
		case 3:
			a, _ := h.L1D.Load16(addr)
			b, _ := ref.Load16(addr)
			if a != b {
				t.Fatalf("op %d: Load16(%#x) = %#x, ref %#x", op, addr, a, b)
			}
		case 4:
			v := uint8(rng.Uint32())
			if err := h.L1D.Store8(addr, v); err != nil {
				t.Fatal(err)
			}
			if err := ref.Store8(addr, v); err != nil {
				t.Fatal(err)
			}
		case 5:
			a, _ := h.L1D.Load8(addr)
			b, _ := ref.Load8(addr)
			if a != b {
				t.Fatalf("op %d: Load8(%#x) = %#x, ref %#x", op, addr, a, b)
			}
		}
	}
	// Final sweep: every byte of the working set agrees after all
	// the dirty lines are flushed.
	h.L1D.InvalidateAllWriteback(t)
	l2buf := make([]byte, 64*1024)
	if _, err := h.L2.FetchLine(base, l2buf); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < 64*1024; off++ {
		want, _ := ref.Load8(base + simmem.Addr(off))
		if l2buf[off] != want {
			t.Fatalf("final state differs at offset %d: %#x vs %#x", off, l2buf[off], want)
		}
	}
	// A set dies whole once the dead fraction exceeds (assoc-1)/assoc.
	if wholeSetsDead := dead*float64(l1d.Assoc) > float64(l1d.Assoc-1); wholeSetsDead && h.L1D.Recovery.Bypasses == 0 {
		t.Fatal("vacuous run: no access bypassed a dead set")
	}
}
