// Package cache implements the simulated memory hierarchy of the clumsy
// packet processor: a frequency-scaled, fault-injected L1 data cache with
// optional per-word parity and k-strike recovery, a conventional L1
// instruction cache, a shared unified L2, and a fixed-latency memory — the
// configuration of Section 5.1 (StrongARM-110-like: 4 KB direct-mapped L1s
// with 32-byte lines and 2-cycle latency, 128 KB 4-way L2 with 128-byte
// lines and 15-cycle latency).
//
// Only the L1 data cache is over-clocked: faults are injected on its read
// and write paths, its access latency shrinks proportionally to the relative
// cycle time Cr, and its per-access energy shrinks with the voltage swing.
// The L2 is assumed correct unless an incorrect value is written back to it
// from L1 (Section 4).
package cache

import (
	"errors"
	"fmt"
	"math/bits"

	"clumsy/internal/simmem"
)

// Config describes one cache level.
type Config struct {
	SizeBytes int
	BlockSize int
	Assoc     int
	// Latency is the access latency in core cycles at full-swing operation.
	Latency float64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.BlockSize <= 0 || c.Assoc <= 0:
		return errors.New("cache: non-positive geometry")
	case c.BlockSize%4 != 0:
		return errors.New("cache: block size must be a multiple of the 32-bit word")
	case c.BlockSize&(c.BlockSize-1) != 0:
		return errors.New("cache: block size must be a power of two")
	case c.SizeBytes%(c.BlockSize*c.Assoc) != 0:
		return fmt.Errorf("cache: size %d not divisible by block*assoc", c.SizeBytes)
	case c.Latency < 0:
		return errors.New("cache: negative latency")
	}
	sets := c.SizeBytes / (c.BlockSize * c.Assoc)
	if sets&(sets-1) != 0 {
		return errors.New("cache: set count must be a power of two")
	}
	return nil
}

// Stats aggregates the events of one cache level.
type Stats struct {
	Reads         uint64
	Writes        uint64
	ReadMisses    uint64
	WriteMisses   uint64
	Writebacks    uint64
	Invalidations uint64
}

// MissRate returns the combined read+write miss rate.
func (s Stats) MissRate() float64 {
	total := s.Reads + s.Writes
	if total == 0 {
		return 0
	}
	return float64(s.ReadMisses+s.WriteMisses) / float64(total)
}

// Accesses returns the total number of accesses.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// Backend is the next level of the hierarchy as seen by a cache: it serves
// whole lines and reports the stall cycles of each operation.
type Backend interface {
	// FetchLine fills buf (whose length is the requesting cache's block
	// size) with the line containing addr and returns the stall cycles.
	FetchLine(addr simmem.Addr, buf []byte) (float64, error)
	// StoreLine writes a full line back and returns the stall cycles.
	StoreLine(addr simmem.Addr, buf []byte) (float64, error)
}

// frame is the cold bookkeeping of one cache frame: everything except its
// key (valid bit and tag) and its payload and check bits, which live in
// the table's dense arrays. The dead/strike fields belong to the
// line-disable recovery action of the L1 data cache; other levels never
// set them. A dead frame is always invalid (disable invalidates it), so
// the hit path needs no extra check. The undo log saves and restores
// frames by value, so a field added here joins the rollback surface with
// no further code.
type frame struct {
	lru        uint64
	strikeMark uint64 // access clock at the start of the current window
	// logged is undo-log bookkeeping, not machine state: the table epoch
	// this frame's pre-image was logged in.
	logged      uint64
	strikes     uint32 // uncorrected strikes inside the current window
	strikeTotal uint32 // cumulative uncorrected strikes (histogram)
	epochMark   uint32 // last controller epoch this frame faulted in
	dirty       bool
	dead        bool // frame disabled: never allocated, accesses bypass to L2
	pinned      bool // disabled by experiment control; survives re-enable
}

// table is the set-associative storage and lookup machinery every cache
// level shares. Its frames are laid out set-major in flat arrays, so the
// ways of set s are frames s*assoc through s*assoc+assoc-1:
//
//   - keys holds one key per frame, the line's base address with bit 0
//     set as the valid bit (0 is an invalid frame). It is the only home of
//     a frame's valid bit and tag, and a lookup reads nothing else: one
//     compare per way.
//   - data, parity and enc are per-frame arenas: frame f's payload is
//     data[f*BlockSize:], its parity bytes (one per 32-bit word, LSB used)
//     parity[f*BlockSize/4:] and its ECC-encoded words enc[f*BlockSize/4:].
//     A level allocates only the arenas it reads: the L1I keeps tags only
//     and has none, the L2 has no check bits, enc exists only under ECC.
//   - meta holds the remaining per-frame state.
//
//lint:checkpoint commit, rollback
type table struct {
	cfg    Config
	keys   []uint32
	data   []byte
	parity []byte
	enc    []uint32
	meta   []frame
	//lint:ephemeral derived from the geometry at construction, never mutated
	assoc int
	// setShift is log2(BlockSize), the shift from an address to its block
	// number; its users mask it to the operand width, so the compiler
	// emits no oversized-shift handling on the hit path.
	//lint:ephemeral derived from the geometry at construction, never mutated
	setShift uint
	//lint:ephemeral derived from the geometry at construction, never mutated
	setMask uint32
	//lint:ephemeral derived from the geometry at construction, never mutated
	baseMask uint32
	tick     uint64

	// epoch numbers the commits: a frame whose logged stamp equals it
	// already has its pre-image in the log. log is nil until the first
	// commit arms it, so a table that never serves as a restore point
	// pays one nil check per mutation.
	epoch uint64
	log   *undoLog
}

// newTable builds an empty table; payload allocates the data arena. Each
// level holds its table by value, so an access reaches the table's arrays
// without a pointer hop.
func newTable(cfg Config, payload bool) (table, error) {
	if err := cfg.Validate(); err != nil {
		return table{}, err
	}
	frames := cfg.SizeBytes / cfg.BlockSize
	t := table{cfg: cfg, assoc: cfg.Assoc, setMask: uint32(frames/cfg.Assoc - 1),
		baseMask: ^uint32(cfg.BlockSize - 1),
		keys:     make([]uint32, frames), meta: make([]frame, frames)}
	for bs := cfg.BlockSize; bs > 1; bs >>= 1 {
		t.setShift++
	}
	if payload {
		t.data = make([]byte, cfg.SizeBytes)
	}
	return t, nil
}

// words returns the per-frame stride of the parity and ECC arenas.
func (t *table) words() int { return t.cfg.BlockSize / 4 }

// key returns the key a frame holding addr carries.
func (t *table) key(addr simmem.Addr) uint32 { return uint32(addr)&t.baseMask | 1 }

// base returns the address of the line valid frame f holds.
func (t *table) base(f int) simmem.Addr { return simmem.Addr(t.keys[f] &^ 1) }

// line returns frame f's payload.
func (t *table) line(f int) []byte {
	bs := t.cfg.BlockSize
	return t.data[f*bs : f*bs+bs]
}

// word returns the index, in the parity and ECC arenas, of the word of
// frame f that holds addr; four times it is the word's payload offset.
func (t *table) word(f int, addr simmem.Addr) int {
	return (f<<(t.setShift&63) | int(uint32(addr)&^t.baseMask)) >> 2
}

// ways returns the first frame of addr's set.
func (t *table) ways(addr simmem.Addr) int {
	return int(uint32(addr)>>(t.setShift&31)&t.setMask) * t.assoc
}

// lookup returns the frame holding addr, or -1 on a miss. It only probes:
// a caller that uses the frame touches it and then makes it the most
// recently used. (Logging and the LRU update stay out of lookup so that
// lookup, touch and use each stay small enough to inline into the access
// paths.)
func (t *table) lookup(addr simmem.Addr) int {
	first, key := t.ways(addr), t.key(addr)
	for w, k := range t.keys[first : first+t.assoc] {
		if k == key {
			return first + w
		}
	}
	return -1
}

// use makes frame f the most recently used.
func (t *table) use(f int) {
	t.tick++
	t.meta[f].lru = t.tick
}

// victim returns the frame to fill for addr (the invalid way if one
// exists, otherwise the least recently used way); the caller touches it
// before the refill. Dead ways are never allocated; when every way of the
// set is dead, victim returns -1 and the access must bypass to the next
// level.
func (t *table) victim(addr simmem.Addr) int {
	first := t.ways(addr)
	best := -1
	for f := first; f < first+t.assoc; f++ {
		if t.meta[f].dead {
			continue
		}
		if t.keys[f] == 0 {
			return f
		}
		if best < 0 || t.meta[f].lru < t.meta[best].lru {
			best = f
		}
	}
	return best
}

// lineBase returns the address of the first byte of the line holding addr.
func (t *table) lineBase(addr simmem.Addr) simmem.Addr {
	return addr &^ simmem.Addr(t.cfg.BlockSize-1)
}

// invalidateRange drops (without write-back) every line overlapping
// [addr, addr+n): the cached copies are stale after a DMA write landed in
// the backing store.
func (t *table) invalidateRange(addr simmem.Addr, n int) {
	first := t.lineBase(addr)
	last := t.lineBase(addr + simmem.Addr(n) - 1)
	for a := first; ; a += simmem.Addr(t.cfg.BlockSize) {
		if f := t.lookup(a); f >= 0 {
			t.touch(f)
			t.keys[f] = 0
			t.meta[f].dirty = false
		}
		if a >= last {
			break
		}
	}
}

// flushRange writes back, via sink, every valid dirty line overlapping
// [addr, addr+n) and marks it clean. It is the write-back half of a
// coherent DMA: invalidateRange alone discards unwritten stores that
// merely share a line with the DMA target, silently reverting neighbouring
// bytes to their stale backing-store image.
func (t *table) flushRange(addr simmem.Addr, n int, sink func(simmem.Addr, []byte) error) error {
	first := t.lineBase(addr)
	last := t.lineBase(addr + simmem.Addr(n) - 1)
	for a := first; ; a += simmem.Addr(t.cfg.BlockSize) {
		if f := t.lookup(a); f >= 0 && t.meta[f].dirty {
			if err := sink(a, t.line(f)); err != nil {
				return err
			}
			t.touch(f)
			t.meta[f].dirty = false
		}
		if a >= last {
			break
		}
	}
	return nil
}

// invalidateAll drops every line (used between golden/faulty runs).
func (t *table) invalidateAll() {
	for f, k := range t.keys {
		if k != 0 || t.meta[f].dirty {
			t.touch(f)
			t.keys[f] = 0
			t.meta[f].dirty = false
		}
	}
}

// undoLog is a table's restore point, kept as the pre-images of the frames
// mutated since the last commit rather than as a copy of the table:
// commit is O(1) and rollback O(frames touched), as simmem.Checkpoint is
// one level down at page granularity. Statistics and energy are
// deliberately not logged: a fault-containment rollback rewinds the
// machine's contents, not its measurements. Entry i mirrors the table's
// arrays at frame frames[i]; each buffer is as large as the table's own
// array, because a frame is logged at most once per epoch, so n never
// exceeds the frame count and recording never allocates.
type undoLog struct {
	tick   uint64 // table clock at the restore point
	n      int    // frames logged this epoch
	frames []int32
	keys   []uint32
	meta   []frame
	data   []byte
	parity []byte
	enc    []uint32
}

// touch logs frame f's pre-image before its first mutation since the
// last commit. Every write to a frame is preceded by one: the levels'
// access paths touch the frame lookup or victim returned before updating
// or refilling it, and the bulk walks (invalidate, flush, line disable
// and re-enable) touch each frame they change.
func (t *table) touch(f int) {
	if t.log != nil && t.meta[f].logged != t.epoch {
		t.record(f)
	}
}

// record stamps frame f and appends its current state to the log.
func (t *table) record(f int) {
	t.meta[f].logged = t.epoch
	l := t.log
	i := l.n
	l.n++
	l.frames[i] = int32(f)
	l.keys[i] = t.keys[f]
	l.meta[i] = t.meta[f]
	bs, ws := t.cfg.BlockSize, t.words()
	if t.data != nil {
		copy(l.data[i*bs:(i+1)*bs], t.data[f*bs:])
	}
	if t.parity != nil {
		copy(l.parity[i*ws:(i+1)*ws], t.parity[f*ws:])
	}
	if t.enc != nil {
		copy(l.enc[i*ws:(i+1)*ws], t.enc[f*ws:])
	}
}

// commit makes the table's current state its restore point, arming the
// undo log on first use. Bumping the epoch un-logs every frame at once.
func (t *table) commit() {
	if t.log == nil {
		n := len(t.keys)
		//lint:alloc-ok arming: the log's one allocation, sized so recording never grows it; the zero-alloc pin verifies the steady state
		t.log = &undoLog{frames: make([]int32, n), keys: make([]uint32, n), meta: make([]frame, n), data: make([]byte, len(t.data)), parity: make([]byte, len(t.parity)), enc: make([]uint32, len(t.enc))}
	}
	t.log.tick = t.tick
	t.log.n = 0
	t.epoch++
}

// rollback returns every frame logged since the last commit to its
// pre-image and the clock to its commit value. Unlogged frames were not
// mutated, so afterwards the table equals its restore point exactly.
func (t *table) rollback() {
	l := t.log
	bs, ws := t.cfg.BlockSize, t.words()
	for i, f32 := range l.frames[:l.n] {
		f := int(f32)
		t.keys[f] = l.keys[i]
		t.meta[f] = l.meta[i]
		if t.data != nil {
			copy(t.data[f*bs:(f+1)*bs], l.data[i*bs:])
		}
		if t.parity != nil {
			copy(t.parity[f*ws:(f+1)*ws], l.parity[i*ws:])
		}
		if t.enc != nil {
			copy(t.enc[f*ws:(f+1)*ws], l.enc[i*ws:])
		}
	}
	t.tick = l.tick
	l.n = 0
	t.epoch++
}

// wordParity returns the even-parity bit of a 32-bit word.
func wordParity(v uint32) byte { return byte(bits.OnesCount32(v) & 1) }
