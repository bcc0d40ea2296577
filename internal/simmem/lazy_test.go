package simmem

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"testing"
)

// flatRef is the reference model of a Space: one eagerly allocated byte
// array with the same bump allocator and trap rules, plus a full copy of
// the array as its checkpoint.
type flatRef struct {
	data      []byte
	brk       Addr
	shadow    []byte // nil while no checkpoint is active
	shadowBrk Addr
}

func (r *flatRef) traps(a Addr, width int) bool {
	return a < PageBase || uint64(a)+uint64(width) > uint64(len(r.data))
}

// blockTraps mirrors ReadBlock/WriteBlock: the first byte must be mapped
// even for an empty block, and the whole block must fit.
func (r *flatRef) blockTraps(a Addr, n int) bool {
	return r.traps(a, 1) || uint64(a)+uint64(n) > uint64(len(r.data))
}

func (r *flatRef) alloc(size, align int) (Addr, bool) {
	base := (uint64(r.brk) + uint64(align) - 1) &^ (uint64(align) - 1)
	end := base + uint64(size)
	if end > uint64(len(r.data)) {
		return 0, false
	}
	r.brk = Addr(end)
	return Addr(base), true
}

// TestLazySpaceMatchesFlatReference drives seeded random operations through
// a lazily paged Space and through a flat reference array, interleaving
// checkpoint creation, commits, restores and releases. Every load, trap
// and allocation must agree, and after every Restore the whole space (read
// through ReadBlock) and the allocation frontier must equal the reference.
// Space sizes include ones that are not a multiple of PageSize, so the
// end-of-space traps inside a partially used last page are covered.
func TestLazySpaceMatchesFlatReference(t *testing.T) {
	sizes := []int{16 << 10, 5*PageSize + 1, 9*PageSize + 1234}
	for _, size := range sizes {
		for seed := uint64(1); seed <= 8; seed++ {
			checkLazySpace(t, size, seed)
		}
	}
}

func checkLazySpace(t *testing.T, size int, seed uint64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, uint64(size)))
	s := NewSpace(size)
	ref := &flatRef{data: make([]byte, size), brk: PageBase}
	var ck *Checkpoint
	restores := 0

	// addr picks an address anywhere from the null page to just past the
	// end of the space, so both trap kinds occur.
	addr := func() Addr {
		switch rng.IntN(10) {
		case 0:
			return Addr(rng.IntN(int(PageBase)))
		case 1:
			return Addr(size - 8 + rng.IntN(16))
		default:
			return Addr(rng.IntN(size))
		}
	}
	fail := func(op int, format string, args ...any) {
		t.Helper()
		t.Fatalf("size %d seed %d op %d: "+format, append([]any{size, seed, op}, args...)...)
	}
	compareAll := func(op int) {
		t.Helper()
		got := make([]byte, size-int(PageBase))
		if err := s.ReadBlock(PageBase, got); err != nil {
			fail(op, "whole-space ReadBlock: %v", err)
		}
		if i := firstDiff(got, ref.data[PageBase:]); i >= 0 {
			fail(op, "byte %#x = %#x after restore, reference %#x", int(PageBase)+i, got[i], ref.data[int(PageBase)+i])
		}
		if s.Brk() != ref.brk {
			fail(op, "Brk = %#x after restore, reference %#x", s.Brk(), ref.brk)
		}
	}

	for op := 0; op < 3000; op++ {
		switch k := rng.IntN(20); {
		case k < 3: // Store8
			a, v := addr(), uint8(rng.Uint32())
			err := s.Store8(a, v)
			if (err != nil) != ref.traps(a, 1) {
				fail(op, "Store8(%#x) error %v disagrees with reference", a, err)
			}
			if err == nil {
				ref.data[a] = v
			}
		case k < 5: // Store16
			a, v := Align(addr(), 2), uint16(rng.Uint32())
			err := s.Store16(a, v)
			if (err != nil) != ref.traps(a, 2) {
				fail(op, "Store16(%#x) error %v disagrees with reference", a, err)
			}
			if err == nil {
				binary.LittleEndian.PutUint16(ref.data[a:], v)
			}
		case k < 7: // Store32
			a, v := Align(addr(), 4), rng.Uint32()
			err := s.Store32(a, v)
			if (err != nil) != ref.traps(a, 4) {
				fail(op, "Store32(%#x) error %v disagrees with reference", a, err)
			}
			if err == nil {
				binary.LittleEndian.PutUint32(ref.data[a:], v)
			}
		case k < 10: // loads of every width
			a := addr()
			v8, err8 := s.Load8(a)
			a16 := Align(a, 2)
			v16, err16 := s.Load16(a16)
			a32 := Align(a, 4)
			v32, err32 := s.Load32(a32)
			if (err8 != nil) != ref.traps(a, 1) || (err16 != nil) != ref.traps(a16, 2) || (err32 != nil) != ref.traps(a32, 4) {
				fail(op, "load traps at %#x (%v, %v, %v) disagree with reference", a, err8, err16, err32)
			}
			if err8 == nil && v8 != ref.data[a] {
				fail(op, "Load8(%#x) = %#x, reference %#x", a, v8, ref.data[a])
			}
			if err16 == nil && v16 != binary.LittleEndian.Uint16(ref.data[a16:]) {
				fail(op, "Load16(%#x) = %#x, reference %#x", a16, v16, binary.LittleEndian.Uint16(ref.data[a16:]))
			}
			if err32 == nil && v32 != binary.LittleEndian.Uint32(ref.data[a32:]) {
				fail(op, "Load32(%#x) = %#x, reference %#x", a32, v32, binary.LittleEndian.Uint32(ref.data[a32:]))
			}
		case k < 12: // WriteBlock, often spanning page boundaries
			a, n := addr(), rng.IntN(3*PageSize)
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = uint8(rng.Uint32())
			}
			err := s.WriteBlock(a, buf)
			if (err != nil) != ref.blockTraps(a, n) {
				fail(op, "WriteBlock(%#x, %d) error %v disagrees with reference", a, n, err)
			}
			if err == nil {
				copy(ref.data[a:], buf)
			}
		case k < 14: // ReadBlock, often spanning page boundaries
			a, n := addr(), rng.IntN(3*PageSize)
			buf := make([]byte, n)
			err := s.ReadBlock(a, buf)
			if (err != nil) != ref.blockTraps(a, n) {
				fail(op, "ReadBlock(%#x, %d) error %v disagrees with reference", a, n, err)
			}
			if err == nil && !bytes.Equal(buf, ref.data[a:int(a)+n]) {
				fail(op, "ReadBlock(%#x, %d) differs from reference at byte %d", a, n, firstDiff(buf, ref.data[a:]))
			}
		case k < 15: // Alloc
			n, align := rng.IntN(2*PageSize), 1<<rng.IntN(7)
			got, err := s.Alloc(n, align)
			want, ok := ref.alloc(n, align)
			if (err == nil) != ok || got != want {
				fail(op, "Alloc(%d, %d) = %#x, %v; reference %#x, %v", n, align, got, err, want, ok)
			}
		case k < 16: // NewCheckpoint, superseding any active one
			ck = s.NewCheckpoint()
			ref.shadow = bytes.Clone(ref.data)
			ref.shadowBrk = ref.brk
		case k < 18: // Commit
			if ck != nil {
				ck.Commit()
				copy(ref.shadow, ref.data)
				ref.shadowBrk = ref.brk
			}
		case k < 19: // Restore
			if ck != nil {
				ck.Restore()
				copy(ref.data, ref.shadow)
				ref.brk = ref.shadowBrk
				restores++
				compareAll(op)
			}
		default: // Release
			if ck != nil {
				ck.Release()
				ck, ref.shadow = nil, nil
			}
		}
	}
	if restores == 0 {
		fail(3000, "no restore was exercised")
	}
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestSpaceMaterialisesOnlyWrittenPages pins the lazy-page contract: a new
// space and its loads allocate no page, a store materialises exactly the
// page it reaches, a checkpoint shadows only resident pages, and Commit
// adds a shadow page the first time a page is dirtied.
func TestSpaceMaterialisesOnlyWrittenPages(t *testing.T) {
	s := NewSpace(1 << 20)
	a := s.MustAlloc(64<<10, PageSize)
	if _, err := s.Load32(a + 3*PageSize); err != nil {
		t.Fatal(err)
	}
	if n := s.ResidentPages(); n != 0 {
		t.Fatalf("ResidentPages = %d after loads only, want 0", n)
	}
	if err := s.Store32(a, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBlock(a+PageSize-2, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if n := s.ResidentPages(); n != 2 {
		t.Fatalf("ResidentPages = %d, want 2 (one store, one block across a boundary)", n)
	}
	ck := s.NewCheckpoint()
	defer ck.Release()
	if n := ck.ResidentPages(); n != 2 {
		t.Fatalf("checkpoint shadows %d pages, want the 2 resident ones", n)
	}
	if err := s.Store8(a+5*PageSize, 7); err != nil {
		t.Fatal(err)
	}
	ck.Commit()
	if s.ResidentPages() != 3 || ck.ResidentPages() != 3 {
		t.Fatalf("after a store to a fresh page and a commit: %d resident, %d shadow; want 3 and 3",
			s.ResidentPages(), ck.ResidentPages())
	}
}
