package cache

import "clumsy/internal/simmem"

// MainMemory is the bottom of the hierarchy: a fixed-latency DRAM front-end
// over the simulated address space. It is never fault-injected.
type MainMemory struct {
	Space   *simmem.Space
	Latency float64 // stall cycles per line transfer
	Stats   Stats

	// Cycles accumulates the transfer latency of every line moved; the
	// L1D samples it around backend calls to split reported stalls into
	// L2 and memory attribution buckets.
	Cycles float64
}

// NewMainMemory wraps space with the given line-transfer latency.
func NewMainMemory(space *simmem.Space, latency float64) *MainMemory {
	return &MainMemory{Space: space, Latency: latency}
}

// chargeTransfer accounts one line transfer's latency — the only
// permitted write to the memory cycle accumulator (cycleacct invariant).
//
//lint:cycle-accounting
func (m *MainMemory) chargeTransfer() { m.Cycles += m.Latency }

// FetchLine reads a line from the backing space.
func (m *MainMemory) FetchLine(addr simmem.Addr, buf []byte) (float64, error) {
	m.Stats.Reads++
	if err := m.Space.ReadBlock(addr, buf); err != nil {
		return 0, err
	}
	m.chargeTransfer()
	return m.Latency, nil
}

// StoreLine writes a line to the backing space.
func (m *MainMemory) StoreLine(addr simmem.Addr, buf []byte) (float64, error) {
	m.Stats.Writes++
	if err := m.Space.WriteBlock(addr, buf); err != nil {
		return 0, err
	}
	m.chargeTransfer()
	return m.Latency, nil
}

var _ Backend = (*MainMemory)(nil)

// L2 is the shared, unified second-level cache. It always runs at full
// swing: its contents are correct unless a corrupted line is written back
// from L1 (Section 4). Write-back, write-allocate.
//
//lint:checkpoint Snapshot, RestoreSnapshot
type L2 struct {
	tab table
	//lint:ephemeral topology wiring, immutable after construction
	next Backend
	//lint:ephemeral measurement; a rollback rewinds contents, not measurements
	Stats Stats
}

// NewL2 builds the unified L2 over the given backend.
func NewL2(cfg Config, next Backend) (*L2, error) {
	tab, err := newTable(cfg, true)
	if err != nil {
		return nil, err
	}
	return &L2{tab: tab, next: next}, nil
}

// ensure returns the frame holding addr, filling it on a miss, together
// with the stall cycles spent below this level.
func (c *L2) ensure(addr simmem.Addr, isWrite bool) (int, float64, error) {
	if f := c.tab.lookup(addr); f >= 0 {
		c.tab.touch(f)
		c.tab.use(f)
		return f, 0, nil
	}
	return c.refill(addr, isWrite)
}

// refill brings the line holding addr into its set after a miss, writing
// the victim back first when it is dirty.
func (c *L2) refill(addr simmem.Addr, isWrite bool) (int, float64, error) {
	if isWrite {
		c.Stats.WriteMisses++
	} else {
		c.Stats.ReadMisses++
	}
	t := &c.tab
	f := t.victim(addr)
	t.touch(f)
	line := t.line(f)
	var cycles float64
	if t.keys[f] != 0 && t.meta[f].dirty {
		c.Stats.Writebacks++
		wb, err := c.next.StoreLine(t.base(f), line)
		if err != nil {
			return -1, 0, err
		}
		cycles += wb
	}
	fill, err := c.next.FetchLine(t.lineBase(addr), line)
	if err != nil {
		return -1, 0, err
	}
	cycles += fill
	t.keys[f] = t.key(addr)
	t.meta[f].dirty = false
	t.use(f)
	return f, cycles, nil
}

// FetchLine serves an upper-level fill request of len(buf) bytes.
func (c *L2) FetchLine(addr simmem.Addr, buf []byte) (float64, error) {
	c.Stats.Reads++
	bs := c.tab.cfg.BlockSize
	cycles := c.tab.cfg.Latency
	for off := 0; off < len(buf); off += bs {
		a := addr + simmem.Addr(off)
		f, extra, err := c.ensure(a, false)
		if err != nil {
			return 0, err
		}
		cycles += extra
		copy(buf[off:], c.tab.line(f)[int(a)&(bs-1):])
	}
	return cycles, nil
}

// StoreLine absorbs an upper-level write-back.
func (c *L2) StoreLine(addr simmem.Addr, buf []byte) (float64, error) {
	c.Stats.Writes++
	bs := c.tab.cfg.BlockSize
	cycles := c.tab.cfg.Latency
	for off := 0; off < len(buf); off += bs {
		a := addr + simmem.Addr(off)
		f, extra, err := c.ensure(a, true)
		if err != nil {
			return 0, err
		}
		cycles += extra
		lo := int(a) & (bs - 1)
		copy(c.tab.line(f)[lo:], buf[off:min(off+bs-lo, len(buf))])
		c.tab.meta[f].dirty = true
	}
	return cycles, nil
}

// InvalidateAll flushes the L2 without write-back (experiment reset).
func (c *L2) InvalidateAll() { c.tab.invalidateAll() }

// InvalidateRange drops any lines overlapping the given byte range without
// write-back (DMA coherence).
func (c *L2) InvalidateRange(addr simmem.Addr, n int) { c.tab.invalidateRange(addr, n) }

// FlushRange writes back every dirty line overlapping the given byte range
// through sink and marks it clean — the write-back half of a coherent DMA.
func (c *L2) FlushRange(addr simmem.Addr, n int, sink func(simmem.Addr, []byte) error) error {
	return c.tab.flushRange(addr, n, sink)
}

var _ Backend = (*L2)(nil)
