package simmem

// Dirty-page tracking and checkpoint/restore: the state-containment
// substrate of the drop-and-continue recovery policy. A router that "drops
// the offending packet and keeps forwarding" (Section 2 of the paper) must
// be able to discard whatever a half-processed packet did to its control
// state; here that is modelled as a per-page shadow of the simulated space
// plus a page-granular dirty bitmap, committed at every packet boundary and
// rolled back when a fatal error strikes mid-packet. Like the space itself,
// the shadow is lazy: it holds a copy of each page that was resident at the
// last commit and nil for a page that was still all zeros.
//
// The tracking is off by default: a Space with no checkpoint attached pays
// one nil-check per store, so the golden run and the paper-fidelity abort
// policy are untouched.

import "math/bits"

// PageShift is the log2 of the checkpoint page size (4 KiB pages).
const PageShift = 12

// PageSize is the granularity of lazy materialisation, dirty tracking and
// restore.
const PageSize = 1 << PageShift

// pageMask selects the offset of an address within its page.
const pageMask = PageSize - 1

// markDirty flags every page overlapped by a [a, a+width) write. It is a
// no-op (one branch) unless a Checkpoint enabled tracking.
func (s *Space) markDirty(a Addr, width int) {
	if s.dirty == nil {
		return
	}
	first := int(a) >> PageShift
	last := (int(a) + width - 1) >> PageShift
	for p := first; p <= last; p++ {
		s.dirty[p>>6] |= 1 << (uint(p) & 63)
	}
}

// DirtyPages returns the number of pages written since tracking was last
// reset (zero when tracking is off). Exposed for tests and telemetry.
func (s *Space) DirtyPages() int {
	n := 0
	for _, w := range s.dirty {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Checkpoint is a restorable snapshot of a Space. It keeps one shadow page
// per space page: creating it copies every resident page and turns on
// dirty-page tracking; from then on Commit folds newly written pages into
// the shadow (advancing the restore point to the current state, and
// allocating a shadow page the first time its page is dirtied) and Restore
// copies them back (rewinding to the last commit; a dirty page without a
// shadow was all zeros then and is cleared). Exactly one checkpoint can be
// active per space; creating a new one supersedes the old.
//
//lint:checkpoint NewCheckpoint, Commit, Restore
type Checkpoint struct {
	space  *Space
	shadow []*[PageSize]byte
	brk    Addr
}

// NewCheckpoint snapshots the current state of the space and enables
// dirty-page tracking against it. Only resident pages are copied; pages
// that were never written stay nil in the shadow as well.
func (s *Space) NewCheckpoint() *Checkpoint {
	c := &Checkpoint{space: s, shadow: make([]*[PageSize]byte, len(s.pages)), brk: s.brk}
	for i, p := range s.pages {
		if p != nil {
			sp := *p
			c.shadow[i] = &sp
		}
	}
	s.dirty = make([]uint64, (len(s.pages)+63)/64)
	return c
}

// ResidentPages returns the number of shadow pages the checkpoint holds.
func (c *Checkpoint) ResidentPages() int { return countResident(c.shadow) }

// forEachDirty invokes f with the index of every dirty page, clears the
// bitmap, and returns the number of dirty pages visited. A dirty page is
// always resident: every write materialises its page.
func (c *Checkpoint) forEachDirty(f func(p int)) int {
	s := c.space
	n := 0
	for wi, w := range s.dirty {
		if w == 0 {
			continue
		}
		for ; w != 0; w &= w - 1 {
			f(wi<<6 + bits.TrailingZeros64(w))
			n++
		}
		s.dirty[wi] = 0
	}
	return n
}

// Commit folds every page written since the last commit (or since the
// checkpoint was created) into the shadow, making the current state the new
// restore point. It returns the number of pages committed.
//
//lint:hot-path
func (c *Checkpoint) Commit() int {
	//lint:alloc-ok the closure captures only the receiver; it is inlined, and the zero-alloc pin verifies it
	n := c.forEachDirty(func(p int) {
		sp := c.shadow[p]
		if sp == nil {
			sp = new([PageSize]byte) //lint:alloc-ok first commit of a page materialised since the checkpoint; TestPacketLoopAllocsArePageMaterialisations counts every one
			c.shadow[p] = sp
		}
		*sp = *c.space.pages[p]
	})
	c.brk = c.space.brk
	return n
}

// Restore copies the shadow back over every page written since the last
// commit and rewinds the allocation frontier, discarding everything the
// aborted packet did to the simulated memory. A dirty page with no shadow
// was all zeros at the restore point, so it is cleared; it stays resident
// for the next packet. It returns the number of pages restored.
//
//lint:hot-path
func (c *Checkpoint) Restore() int {
	//lint:alloc-ok the closure captures only the receiver; it is inlined, and the zero-alloc pin verifies it
	n := c.forEachDirty(func(p int) {
		if sp := c.shadow[p]; sp != nil {
			*c.space.pages[p] = *sp
		} else {
			clear(c.space.pages[p][:])
		}
	})
	c.space.brk = c.brk
	return n
}

// Release turns dirty tracking off, returning the space to its zero-cost
// store path. The checkpoint must not be used afterwards.
func (c *Checkpoint) Release() {
	if c.space.dirty != nil {
		c.space.dirty = nil
	}
}
