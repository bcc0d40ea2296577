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

// line is one cache line with per-word parity. The dead/strike fields
// belong to the line-disable recovery action of the L1 data cache; other
// levels never set them. A dead line is always invalid (disable
// invalidates it), so the hit path needs no extra check. Every field
// except the undo-log stamp is part of the rollback surface: statecover
// requires the record/rollback pair to carry any field added here.
//
//lint:checkpoint record, rollback
type line struct {
	valid  bool
	dirty  bool
	tag    uint32
	data   []byte
	parity []byte   // one bit per 32-bit word, LSB used
	enc    []uint32 // ECC-encoded words (nil unless SEC-DED is enabled)
	lru    uint64

	dead        bool   // frame disabled: never allocated, accesses bypass to L2
	pinned      bool   // disabled by experiment control; survives re-enable
	strikes     uint32 // uncorrected strikes inside the current window
	strikeTotal uint32 // cumulative uncorrected strikes (histogram)
	epochMark   uint32 // last controller epoch this frame faulted in
	strikeMark  uint64 // access clock at the start of the current window

	//lint:ephemeral undo-log bookkeeping: the table epoch this frame's pre-image was logged in, not machine state
	logged uint64
}

// table is the shared set-associative storage and lookup machinery used by
// every cache level.
//
//lint:checkpoint commit, rollback
type table struct {
	cfg  Config
	sets [][]line
	//lint:ephemeral derived from the geometry at construction, never mutated
	setShift uint
	//lint:ephemeral derived from the geometry at construction, never mutated
	setMask uint32
	tick    uint64

	// epoch numbers the commits: a frame whose logged stamp equals it
	// already has its pre-image in the log. log is nil until the first
	// commit arms it, so a table that never serves as a restore point
	// pays one nil check per mutation.
	epoch uint64
	log   *undoLog
}

func newTable(cfg Config) (*table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.SizeBytes / (cfg.BlockSize * cfg.Assoc)
	t := &table{cfg: cfg, setMask: uint32(nsets - 1)}
	for bs := cfg.BlockSize; bs > 1; bs >>= 1 {
		t.setShift++
	}
	t.sets = make([][]line, nsets)
	for i := range t.sets {
		ways := make([]line, cfg.Assoc)
		for w := range ways {
			ways[w].data = make([]byte, cfg.BlockSize)
			ways[w].parity = make([]byte, cfg.BlockSize/4)
		}
		t.sets[i] = ways
	}
	return t, nil
}

func (t *table) index(addr simmem.Addr) (set uint32, tag uint32) {
	blk := uint32(addr) >> t.setShift
	return blk & t.setMask, blk >> 0 // full block number as tag keeps lookups unambiguous
}

// lookup returns the way holding addr, or nil on a miss. It only probes:
// a caller that uses the way touches it and then makes it the most
// recently used. (Logging and the LRU update stay out of lookup and
// victim so both remain small enough to inline into the access path.)
func (t *table) lookup(addr simmem.Addr) *line {
	set, tag := t.index(addr)
	ways := t.sets[set]
	for w := range ways {
		if ways[w].valid && ways[w].tag == tag {
			return &ways[w]
		}
	}
	return nil
}

// victim returns the way to fill for addr (the invalid way if one exists,
// otherwise the least recently used way); the caller touches it before
// the refill. Dead ways are never allocated; when every way of the set is
// dead, victim returns nil and the access must bypass to the next level.
func (t *table) victim(addr simmem.Addr) *line {
	set, _ := t.index(addr)
	ways := t.sets[set]
	var best *line
	for w := range ways {
		if ways[w].dead {
			continue
		}
		if !ways[w].valid {
			return &ways[w]
		}
		if best == nil || ways[w].lru < best.lru {
			best = &ways[w]
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
		set, tag := t.index(a)
		ways := t.sets[set]
		for w := range ways {
			if ways[w].valid && ways[w].tag == tag {
				t.touch(&ways[w])
				ways[w].valid = false
				ways[w].dirty = false
			}
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
		set, tag := t.index(a)
		ways := t.sets[set]
		for w := range ways {
			if ways[w].valid && ways[w].dirty && ways[w].tag == tag {
				if err := sink(a, ways[w].data); err != nil {
					return err
				}
				t.touch(&ways[w])
				ways[w].dirty = false
			}
		}
		if a >= last {
			break
		}
	}
	return nil
}

// invalidateAll drops every line (used between golden/faulty runs).
func (t *table) invalidateAll() {
	for s := range t.sets {
		for w := range t.sets[s] {
			ln := &t.sets[s][w]
			if ln.valid || ln.dirty {
				t.touch(ln)
				ln.valid = false
				ln.dirty = false
			}
		}
	}
}

// lineState is the restorable bookkeeping of one logged frame; the byte
// payloads live in the flat buffers of the undoLog.
type lineState struct {
	valid bool
	dirty bool
	tag   uint32
	lru   uint64

	// Line-disable bookkeeping: rolled back with the contents so a
	// contained packet drop restores the exact strike map and disabled
	// set, keeping resumed campaigns byte-identical.
	dead        bool
	pinned      bool
	strikes     uint32
	strikeTotal uint32
	strikeMark  uint64
	epochMark   uint32
}

// undoLog is a table's restore point, kept as the pre-images of the frames
// mutated since the last commit rather than as a copy of the table:
// commit is O(1) and rollback O(frames touched), as simmem.Checkpoint is
// one level down at page granularity. Statistics and energy are
// deliberately not logged: a fault-containment rollback rewinds the
// machine's contents, not its measurements. The buffers are sized for
// every frame of the table when the log is armed; a frame is logged at
// most once per epoch, so n never exceeds the frame count and recording
// never allocates.
type undoLog struct {
	tick   uint64 // table clock at the restore point
	n      int    // frames logged this epoch
	frames []*line
	meta   []lineState
	data   []byte
	par    []byte
	enc    []uint32 // empty unless ECC storage is allocated
}

// touch logs ln's pre-image before its first mutation since the last
// commit. Every write to a line is preceded by one: the levels' access
// paths touch the way lookup or victim returned before updating or
// refilling it, and the bulk walks (invalidate, flush, line disable and
// re-enable) touch each frame they change.
func (t *table) touch(ln *line) {
	if t.log != nil && ln.logged != t.epoch {
		ln.logged = t.epoch
		t.log.record(ln)
	}
}

// record appends ln's current state to the log.
func (l *undoLog) record(ln *line) {
	i := l.n
	l.n++
	l.frames[i] = ln
	l.meta[i] = lineState{valid: ln.valid, dirty: ln.dirty, tag: ln.tag, lru: ln.lru,
		dead: ln.dead, pinned: ln.pinned, strikes: ln.strikes,
		strikeTotal: ln.strikeTotal, strikeMark: ln.strikeMark, epochMark: ln.epochMark}
	bs, ws := len(ln.data), len(ln.parity)
	copy(l.data[i*bs:], ln.data)
	copy(l.par[i*ws:], ln.parity)
	if ln.enc != nil {
		copy(l.enc[i*ws:], ln.enc)
	}
}

// commit makes the table's current state its restore point, arming the
// undo log on first use. Bumping the epoch un-logs every frame at once.
func (t *table) commit() {
	if t.log == nil {
		n, bs, ws := len(t.sets)*t.cfg.Assoc, t.cfg.BlockSize, t.cfg.BlockSize/4
		encWords := 0
		if t.sets[0][0].enc != nil {
			encWords = n * ws
		}
		//lint:alloc-ok arming: the log's one allocation, sized so recording never grows it; the zero-alloc pin verifies the steady state
		t.log = &undoLog{frames: make([]*line, n), meta: make([]lineState, n), data: make([]byte, n*bs), par: make([]byte, n*ws), enc: make([]uint32, encWords)}
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
	for i, ln := range l.frames[:l.n] {
		st := &l.meta[i]
		ln.valid, ln.dirty, ln.tag, ln.lru = st.valid, st.dirty, st.tag, st.lru
		ln.dead, ln.pinned, ln.strikes = st.dead, st.pinned, st.strikes
		ln.strikeTotal, ln.strikeMark, ln.epochMark = st.strikeTotal, st.strikeMark, st.epochMark
		bs, ws := len(ln.data), len(ln.parity)
		copy(ln.data, l.data[i*bs:(i+1)*bs])
		copy(ln.parity, l.par[i*ws:(i+1)*ws])
		if ln.enc != nil {
			copy(ln.enc, l.enc[i*ws:(i+1)*ws])
		}
	}
	t.tick = l.tick
	l.n = 0
	t.epoch++
}

// wordParity returns the even-parity bit of a 32-bit word.
func wordParity(v uint32) byte {
	v ^= v >> 16
	v ^= v >> 8
	v ^= v >> 4
	v ^= v >> 2
	v ^= v >> 1
	return byte(v & 1)
}
