package cache

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"clumsy/internal/fault"
	"clumsy/internal/simmem"
)

// newQuietHierarchy builds a default hierarchy with the injector disabled.
func newQuietHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	space := simmem.NewSpace(1 << 20)
	inj := fault.NewInjector(fault.NewModel(1), fault.NewRNG(1), 32)
	inj.SetEnabled(false)
	h, err := NewHierarchy(space, inj, DetectionNone, 1)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestSnapshotRestoreRoundTrip: writes made after a snapshot disappear on
// restore — every level's lines and the values read through the hierarchy
// return to the snapshot moment.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	h := newQuietHierarchy(t)
	a, err := h.Space.Alloc(8192, 32)
	if err != nil {
		t.Fatal(err)
	}
	for off := simmem.Addr(0); off < 512; off += 4 {
		if err := h.L1D.Store32(a+off, uint32(off)+7); err != nil {
			t.Fatal(err)
		}
	}
	snap := h.Snapshot(nil)

	// Overwrite the same range and more — enough to force evictions and
	// write-backs, so both the caches and the space change.
	for off := simmem.Addr(0); off < 8192; off += 4 {
		if err := h.L1D.Store32(a+off, 0xdeadbeef); err != nil {
			t.Fatal(err)
		}
	}
	h.RestoreSnapshot(snap)

	for off := simmem.Addr(0); off < 512; off += 4 {
		v, err := h.L1D.Load32(a + off)
		if err != nil {
			t.Fatal(err)
		}
		if v != uint32(off)+7 {
			t.Fatalf("after restore, [%#x] = %#x, want %#x", a+off, v, uint32(off)+7)
		}
	}
}

// TestSnapshotHasNoArchitecturalEffect: taking a snapshot (and committing
// more on top of an existing one) must not change stats, cycles, energy, or
// the space.
func TestSnapshotHasNoArchitecturalEffect(t *testing.T) {
	h := newQuietHierarchy(t)
	a, err := h.Space.Alloc(4096, 32)
	if err != nil {
		t.Fatal(err)
	}
	for off := simmem.Addr(0); off < 2048; off += 4 {
		if err := h.L1D.Store32(a+off, uint32(off)); err != nil {
			t.Fatal(err)
		}
	}
	stats, cyc, en := h.L1D.Stats, h.L1D.Cycles, h.L1D.Energy
	l2stats, memStats := h.L2.Stats, h.Mem.Stats
	var spaceByte uint8
	if spaceByte, err = h.Space.Load8(a); err != nil {
		t.Fatal(err)
	}

	snap := h.Snapshot(nil)
	snap = h.Snapshot(snap) // buffer-reusing path

	if h.L1D.Stats != stats || h.L1D.Cycles != cyc || h.L1D.Energy != en {
		t.Fatal("snapshot changed L1D accounting")
	}
	if h.L2.Stats != l2stats || h.Mem.Stats != memStats {
		t.Fatal("snapshot changed lower-level accounting")
	}
	if b, _ := h.Space.Load8(a); b != spaceByte {
		t.Fatal("snapshot touched the backing space")
	}
}

// TestSnapshotRestoresLRUDeterminism: after a restore, the victim-selection
// state matches the snapshot moment, so a replay of the same accesses
// produces the same evictions (containment keeps runs deterministic).
func TestSnapshotRestoresLRUDeterminism(t *testing.T) {
	h := newQuietHierarchy(t)
	a, err := h.Space.Alloc(64*1024, 32)
	if err != nil {
		t.Fatal(err)
	}
	touch := func(n int) {
		for off := simmem.Addr(0); off < simmem.Addr(n); off += 32 {
			if _, err := h.L1D.Load32(a + off); err != nil {
				t.Fatal(err)
			}
		}
	}
	touch(16 * 1024)
	snap := h.Snapshot(nil)
	statsAt := h.L1D.Stats

	touch(32 * 1024) // first replay, perturbing everything
	h.RestoreSnapshot(snap)
	first := h.L1D.Stats.ReadMisses - statsAt.ReadMisses

	statsAt = h.L1D.Stats
	touch(32 * 1024) // second replay from the same restored state
	second := h.L1D.Stats.ReadMisses - statsAt.ReadMisses

	if first != second {
		t.Fatalf("replays from the same snapshot diverge: %d vs %d misses", first, second)
	}
}

// tableImage is a test-only deep clone of a table: every dense array
// (keys, payload and check-bit arenas, and the frames' bookkeeping, copied
// by value so a field added to frame is compared automatically) plus the
// LRU clock. The undo-log stamps are zeroed: they record when a frame was
// logged, not what it holds.
type tableImage struct {
	keys   []uint32
	data   []byte
	parity []byte
	enc    []uint32
	meta   []frame
	tick   uint64
	bs     int // block size: the payload stride, four times the check-bit stride
}

// hierarchyImage is the reference clone of every cache level plus the
// disabled-frame count the rollback must recount.
type hierarchyImage struct {
	l1d, l1i, l2 tableImage
	deadLines    int
}

func cloneTable(t *table) tableImage {
	img := tableImage{keys: slices.Clone(t.keys), data: slices.Clone(t.data),
		parity: slices.Clone(t.parity), enc: slices.Clone(t.enc),
		meta: slices.Clone(t.meta), tick: t.tick, bs: t.cfg.BlockSize}
	for f := range img.meta {
		img.meta[f].logged = 0
	}
	return img
}

func cloneHierarchy(h *Hierarchy) hierarchyImage {
	return hierarchyImage{l1d: cloneTable(&h.L1D.tab), l1i: cloneTable(&h.L1I.tab),
		l2: cloneTable(&h.L2.tab), deadLines: h.L1D.deadLines}
}

// frameImage is one frame's slice of a table image.
type frameImage struct {
	key    uint32
	data   []byte
	parity []byte
	enc    []uint32
	meta   frame
}

// frame returns frame f of the image.
func (img tableImage) frame(f int) frameImage {
	bs := img.bs
	fi := frameImage{key: img.keys[f], meta: img.meta[f]}
	if img.data != nil {
		fi.data = img.data[f*bs : (f+1)*bs]
	}
	if img.parity != nil {
		fi.parity = img.parity[f*bs/4 : (f+1)*bs/4]
	}
	if img.enc != nil {
		fi.enc = img.enc[f*bs/4 : (f+1)*bs/4]
	}
	return fi
}

// diffImages describes the first difference between two clones, or
// returns "" when they are equal.
func diffImages(got, want hierarchyImage) string {
	if got.deadLines != want.deadLines {
		return fmt.Sprintf("deadLines %d, want %d", got.deadLines, want.deadLines)
	}
	for _, lvl := range []struct {
		name      string
		got, want tableImage
	}{{"L1D", got.l1d, want.l1d}, {"L1I", got.l1i, want.l1i}, {"L2", got.l2, want.l2}} {
		if lvl.got.tick != lvl.want.tick {
			return fmt.Sprintf("%s tick %d, want %d", lvl.name, lvl.got.tick, lvl.want.tick)
		}
		if len(lvl.got.keys) != len(lvl.want.keys) || len(lvl.got.data) != len(lvl.want.data) ||
			len(lvl.got.parity) != len(lvl.want.parity) || len(lvl.got.enc) != len(lvl.want.enc) {
			return fmt.Sprintf("%s array sizes differ", lvl.name)
		}
		for f := range lvl.want.keys {
			g, w := lvl.got.frame(f), lvl.want.frame(f)
			if !reflect.DeepEqual(g, w) {
				return fmt.Sprintf("%s frame %d:\n got  %+v\n want %+v", lvl.name, f, g, w)
			}
		}
	}
	return ""
}

// TestRollbackMatchesReferenceClone is the reference-equivalence property
// of the undo log: seeded random sequences of every operation that mutates
// cache lines — loads, stores, instruction fetches, DMA and coherent DMA,
// InvalidateAll, ForceDisable, strike-driven line disable and the
// frequency-drop re-enable — are interleaved with Snapshot and
// RestoreSnapshot, and after every rollback each level must equal, frame
// for frame and field for field, a deep clone taken at the last commit.
// The hierarchy runs with faults injected, a small L2 so both levels
// evict, and the space under a simmem.Checkpoint as in the packet loop.
func TestRollbackMatchesReferenceClone(t *testing.T) {
	assoc := Config{SizeBytes: 4096, BlockSize: 32, Assoc: 4, Latency: 2}
	for _, tc := range []struct {
		det      Detection
		subBlock bool
		l1d      Config
	}{
		{DetectionParity, false, DefaultL1D},
		{DetectionParity, true, DefaultL1D},
		{DetectionECC, false, DefaultL1D},
		{DetectionECC, true, DefaultL1D},
		{DetectionParity, false, assoc},
		{DetectionECC, true, assoc},
	} {
		name := fmt.Sprintf("%s/subblock=%v/assoc=%d", strings.ReplaceAll(tc.det.String(), " ", "-"), tc.subBlock, tc.l1d.Assoc)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			checkRollbackEquivalence(t, tc.det, tc.subBlock, tc.l1d, 20000)
		})
	}
}

func checkRollbackEquivalence(t *testing.T, det Detection, subBlock bool, l1d Config, ops int) {
	space := simmem.NewSpace(1 << 20)
	inj := fault.NewInjector(fault.NewModel(2000), fault.NewRNG(11), 32)
	h, err := NewHierarchyWith(space, inj, det, 1, HierarchyConfig{
		L1D: l1d, L2: Config{SizeBytes: 8192, BlockSize: 128, Assoc: 4, Latency: 15}})
	if err != nil {
		t.Fatal(err)
	}
	h.L1D.SetSubBlock(subBlock)
	h.L1D.SetLineDisable(2, 4096)
	const span = 32 * 1024
	data := space.MustAlloc(span, 128)
	code := space.MustAlloc(span, 128)
	// A two-bit flip is a detected strike under both schemes: parity
	// misses it, so parity runs flip one bit instead.
	flip := byte(0x03)
	if det == DetectionParity {
		flip = 0x01
	}

	rng := fault.NewRNG(0x5eed)
	addr := func() simmem.Addr { return data + simmem.Addr(rng.Intn(span-4)) }
	var ckpt *simmem.Checkpoint
	var snap *Snapshot
	var ref hierarchyImage
	commits, rollbacks := 0, 0
	for op := 0; op < ops; op++ {
		var err error
		switch r := rng.Intn(100); {
		case r < 30:
			_, err = h.L1D.Load32(addr())
		case r < 55:
			err = h.L1D.Store32(addr(), rng.Uint32())
		case r < 65:
			err = h.L1I.Fetch(code + simmem.Addr(rng.Intn(span)))
		case r < 69:
			buf := make([]byte, 1+rng.Intn(256))
			for i := range buf {
				buf[i] = byte(rng.Uint32())
			}
			if rng.Intn(2) == 0 {
				err = h.DMA(addr()&^3, buf)
			} else {
				err = h.CoherentDMA(addr()&^3, buf)
			}
		case r < 75:
			// A strike: store, corrupt the cached word, read it back
			// through detection and recovery. Two in a row on one frame
			// disable it.
			a := addr() &^ 3
			if err = h.L1D.Store32(a, rng.Uint32()); err != nil {
				break
			}
			if b := h.L1D.tab.cachedByte(a); b != nil {
				*b ^= flip
			}
			_, err = h.L1D.Load32(a)
		case r < 78:
			// A frequency drop re-enables the strike-disabled frames.
			h.L1D.SetCycleTime(0.5 + 0.5*float64(rng.Intn(2)))
		case r < 79:
			h.L1D.ForceDisable(0.1 * float64(rng.Intn(100)) / 100)
		case r < 80:
			h.InvalidateAll()
		case r < 92:
			if ckpt == nil {
				ckpt = space.NewCheckpoint()
				defer ckpt.Release()
			}
			ckpt.Commit()
			snap = h.Snapshot(snap)
			ref = cloneHierarchy(h)
			commits++
		default:
			if snap == nil {
				continue
			}
			ckpt.Restore()
			h.RestoreSnapshot(snap)
			if d := diffImages(cloneHierarchy(h), ref); d != "" {
				t.Fatalf("op %d, rollback %d: hierarchy differs from the commit-time clone: %s", op, rollbacks, d)
			}
			rollbacks++
		}
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	// Self-check: every mutation class the log must cover happened.
	rec := h.L1D.Recovery
	if commits == 0 || rollbacks == 0 || rec.LineDisables == 0 || rec.LineReEnables == 0 ||
		rec.Recoveries == 0 || h.L2.Stats.Writebacks == 0 {
		t.Fatalf("vacuous run: commits=%d rollbacks=%d recovery=%+v l2=%+v", commits, rollbacks, rec, h.L2.Stats)
	}
	if det == DetectionECC && rec.Corrected == 0 {
		t.Fatal("vacuous ECC run: no single-bit correction")
	}
}

// TestSnapshotHandleMisuse: only the hierarchy that issued a handle can
// roll back to it, and a nil handle is no restore point — both panic with a
// message naming the misuse instead of silently restoring foreign state.
func TestSnapshotHandleMisuse(t *testing.T) {
	a, b := newQuietHierarchy(t), newQuietHierarchy(t)
	snapA := a.Snapshot(nil)
	for _, tc := range []struct {
		name, want string
		call       func()
	}{
		{"nil", "nil snapshot", func() { a.RestoreSnapshot(nil) }},
		{"foreign restore", "another hierarchy", func() { b.RestoreSnapshot(snapA) }},
		{"foreign commit", "another hierarchy", func() { b.Snapshot(snapA) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want one mentioning %q", msg, tc.want)
				}
			}()
			tc.call()
		})
	}
}

// TestSnapshotKeepsOnlyLatestRestorePoint: every handle of a hierarchy
// refers to its latest restore point, which survives a rollback.
func TestSnapshotKeepsOnlyLatestRestorePoint(t *testing.T) {
	h := newQuietHierarchy(t)
	a := h.Space.MustAlloc(64, 32)
	store := func(v uint32) {
		if err := h.L1D.Store32(a, v); err != nil {
			t.Fatal(err)
		}
	}
	load := func() uint32 {
		v, err := h.L1D.Load32(a)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	store(1)
	first := h.Snapshot(nil)
	store(2)
	h.Snapshot(nil)
	store(3)
	h.RestoreSnapshot(first)
	if v := load(); v != 2 {
		t.Fatalf("rollback through the older handle read %d, want 2 (the latest restore point)", v)
	}
	store(4)
	h.RestoreSnapshot(first)
	if v := load(); v != 2 {
		t.Fatalf("second rollback read %d, want 2", v)
	}
}

// TestUnarmedHierarchyLogsNothing: until the first Snapshot no level has
// an undo log, so runs without a restore point pay only its nil check.
func TestUnarmedHierarchyLogsNothing(t *testing.T) {
	h := newQuietHierarchy(t)
	a := h.Space.MustAlloc(8192, 32)
	for off := simmem.Addr(0); off < 8192; off += 4 {
		if err := h.L1D.Store32(a+off, uint32(off)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tab := range []*table{&h.L1D.tab, &h.L1I.tab, &h.L2.tab} {
		if tab.log != nil {
			t.Fatal("undo log armed without a snapshot")
		}
	}
	h.Snapshot(nil)
	for _, tab := range []*table{&h.L1D.tab, &h.L1I.tab, &h.L2.tab} {
		if tab.log == nil || tab.log.n != 0 {
			t.Fatal("snapshot must arm an empty undo log on every level")
		}
	}
}
