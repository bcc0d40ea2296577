package apps

import (
	"hash/crc32"
	"testing"

	"clumsy/internal/metrics"
	"clumsy/internal/packet"
	"clumsy/internal/simmem"
)

// nopExec satisfies Exec without bounds (golden-style runs), optionally
// counting instructions.
type nopExec struct {
	instrs int
	limit  int // 0 = unlimited
	err    error
}

func (e *nopExec) Step(block, n int) error {
	e.instrs += n
	if e.limit > 0 && e.instrs > e.limit {
		return errBudget
	}
	return nil
}

var errBudget = &simmem.AccessError{Op: "budget", Reason: "test budget exceeded"}

// testCtx builds a golden context over a fresh space.
func testCtx(t *testing.T) (*Context, *nopExec) {
	t.Helper()
	space := simmem.NewSpace(64 << 20)
	e := &nopExec{}
	return &Context{Space: space, Mem: space, Rec: metrics.NewRecorder(), Exec: e}, e
}

// dma places a packet into the context's space.
func dma(t *testing.T, ctx *Context, p *packet.Packet) simmem.Addr {
	t.Helper()
	size := (packet.HeaderLen + len(p.Payload) + 31) &^ 31
	buf, err := ctx.Space.Alloc(size, 32)
	if err != nil {
		t.Fatal(err)
	}
	h := p.Header()
	if err := ctx.Space.WriteBlock(buf, h[:]); err != nil {
		t.Fatal(err)
	}
	if len(p.Payload) > 0 {
		if err := ctx.Space.WriteBlock(buf+packet.HeaderLen, p.Payload); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// runApp sets up the app on a small trace and processes all packets,
// returning the recorder.
func runApp(t *testing.T, name string, packets int) *metrics.Recorder {
	t.Helper()
	app, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := testCtx(t)
	tr := packet.MustGenerate(app.TraceConfig(packets, 42))
	if err := app.Setup(ctx, tr); err != nil {
		t.Fatalf("%s setup: %v", name, err)
	}
	ctx.Rec.BeginPackets()
	for i := range tr.Packets {
		buf := dma(t, ctx, &tr.Packets[i])
		if err := app.Process(ctx, &tr.Packets[i], buf); err != nil {
			t.Fatalf("%s packet %d: %v", name, i, err)
		}
		ctx.Rec.EndPacket()
	}
	return ctx.Rec
}

func TestRegistryComplete(t *testing.T) {
	names := Names()
	want := []string{"crc", "tl", "route", "drr", "nat", "md5", "url"}
	if len(names) != len(want) {
		t.Fatalf("registered %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("order %v, want %v", names, want)
		}
	}
	if _, err := New("bogus"); err == nil {
		t.Fatal("unknown app should error")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration should panic")
		}
	}()
	Register("crc", func() App { return nil })
}

func TestAllAppsProduceObservations(t *testing.T) {
	for _, name := range Names() {
		rec := runApp(t, name, 25)
		if rec.Packets() != 25 {
			t.Errorf("%s recorded %d packets", name, rec.Packets())
		}
		for i := range rec.Packets() {
			if len(rec.Packet(i)) == 0 {
				t.Errorf("%s packet %d has no observations", name, i)
				break
			}
		}
		if len(rec.Init()) == 0 {
			t.Errorf("%s has no control-plane observations", name)
		}
	}
}

func TestCRCMatchesStdlib(t *testing.T) {
	app, _ := New("crc")
	ctx, _ := testCtx(t)
	tr := packet.MustGenerate(app.TraceConfig(5, 7))
	if err := app.Setup(ctx, tr); err != nil {
		t.Fatal(err)
	}
	ctx.Rec.BeginPackets()
	for i := range tr.Packets {
		p := &tr.Packets[i]
		buf := dma(t, ctx, p)
		if err := app.Process(ctx, p, buf); err != nil {
			t.Fatal(err)
		}
		ctx.Rec.EndPacket()
		h := p.Header()
		want := crc32.ChecksumIEEE(append(h[:], p.Payload...))
		obs := ctx.Rec.Packet(i)
		got := obs[len(obs)-1]
		if got.Name != "crc-accumulator" || uint32(got.Value) != want {
			t.Fatalf("packet %d crc = %#x (%s), want %#x", i, got.Value, got.Name, want)
		}
	}
}

func TestMD5MatchesStdlib(t *testing.T) {
	app, _ := New("md5")
	ctx, _ := testCtx(t)
	tr := packet.MustGenerate(app.TraceConfig(4, 9))
	if err := app.Setup(ctx, tr); err != nil {
		t.Fatal(err)
	}
	ctx.Rec.BeginPackets()
	for i := range tr.Packets {
		p := &tr.Packets[i]
		buf := dma(t, ctx, p)
		if err := app.Process(ctx, p, buf); err != nil {
			t.Fatal(err)
		}
		ctx.Rec.EndPacket()
		h := p.Header()
		want := md5Reference(append(h[:], p.Payload...))
		obs := ctx.Rec.Packet(i)
		if len(obs) < 4 {
			t.Fatalf("packet %d: %d observations", i, len(obs))
		}
		for w := 0; w < 4; w++ {
			o := obs[len(obs)-4+w]
			if o.Name != "md5-digest" || uint32(o.Value) != want[w] {
				t.Fatalf("packet %d digest word %d = %#x, want %#x", i, w, o.Value, want[w])
			}
		}
	}
}

func TestRouteChecksumAndTTL(t *testing.T) {
	app, _ := New("route")
	ctx, _ := testCtx(t)
	tr := packet.MustGenerate(app.TraceConfig(30, 3))
	if err := app.Setup(ctx, tr); err != nil {
		t.Fatal(err)
	}
	ctx.Rec.BeginPackets()
	for i := range tr.Packets {
		p := &tr.Packets[i]
		buf := dma(t, ctx, p)
		if err := app.Process(ctx, p, buf); err != nil {
			t.Fatal(err)
		}
		ctx.Rec.EndPacket()
		obs := ctx.Rec.Packet(i)
		if obs[0].Name != "checksum" || obs[0].Value != 0xffff {
			t.Fatalf("packet %d: incoming checksum observation %v, want folded 0xffff", i, obs[0])
		}
		if obs[1].Name != "ttl" || uint8(obs[1].Value) != p.TTL-1 {
			t.Fatalf("packet %d: ttl obs %v, want %d", i, obs[1], p.TTL-1)
		}
		// The rewritten header in memory must checksum to 0xffff again.
		hdr := make([]byte, packet.HeaderLen)
		if err := ctx.Space.ReadBlock(buf, hdr); err != nil {
			t.Fatal(err)
		}
		var sum uint32
		for off := 0; off < len(hdr); off += 2 {
			sum += uint32(hdr[off])<<8 | uint32(hdr[off+1])
		}
		for sum>>16 != 0 {
			sum = sum&0xffff + sum>>16
		}
		if uint16(sum) != 0xffff {
			t.Fatalf("packet %d: rewritten header does not verify", i)
		}
		if hdr[8] != p.TTL-1 {
			t.Fatalf("packet %d: TTL in memory %d, want %d", i, hdr[8], p.TTL-1)
		}
	}
}

func TestRouteFindsRoutes(t *testing.T) {
	rec := runApp(t, "route", 60)
	misses := 0
	for i := range rec.Packets() {
		for _, o := range rec.Packet(i) {
			if o.Name == "route-entry" && o.Value == 0 {
				misses++
			}
		}
	}
	// Destinations are drawn from the table's prefixes: lookups resolve
	// except for the rare TTL-expired drops.
	if misses > 5 {
		t.Fatalf("%d of 60 packets failed to route", misses)
	}
}

func TestNATTranslates(t *testing.T) {
	rec := runApp(t, "nat", 50)
	for i := range rec.Packets() {
		var init, trans uint64
		ok := false
		for _, o := range rec.Packet(i) {
			switch o.Name {
			case "initial-src":
				init = o.Value
			case "translated-src":
				trans = o.Value
				ok = true
			}
		}
		if !ok {
			t.Fatalf("packet %d: no translation observed", i)
		}
		if trans == 0 {
			t.Fatalf("packet %d: untranslated (src %#x)", i, init)
		}
		if trans>>24 != 0x05 {
			t.Fatalf("packet %d: translated src %#x outside the public pool", i, trans)
		}
		if trans&0x00ffffff != init&0x00ffffff {
			t.Fatalf("packet %d: translation %#x does not preserve host bits of %#x", i, trans, init)
		}
	}
}

func TestDRRConservesPackets(t *testing.T) {
	// Every enqueued byte is eventually dequeued or still queued: the
	// deficit observations must be internally consistent (non-negative,
	// bounded by quantum + max packet size).
	rec := runApp(t, "drr", 200)
	for i := range rec.Packets() {
		for _, o := range rec.Packet(i) {
			if o.Name == "deficit-value" && o.Value > 4096 {
				t.Fatalf("packet %d: runaway deficit %d", i, o.Value)
			}
		}
	}
}

func TestURLMatchesAndRewrites(t *testing.T) {
	rec := runApp(t, "url", 40)
	matched := 0
	for i := range rec.Packets() {
		for _, o := range rec.Packet(i) {
			if o.Name == "url-entry" {
				if int32(o.Value) >= 0 {
					matched++
				}
			}
			if o.Name == "final-dst" && o.Value != 0 {
				if int32(o.Value>>40) < 0 {
					t.Fatalf("packet %d: negative destination", i)
				}
			}
		}
	}
	if matched < 35 {
		t.Fatalf("only %d of 40 HTTP requests matched the URL table", matched)
	}
}

func TestTLWalksTable(t *testing.T) {
	rec := runApp(t, "tl", 60)
	for i := range rec.Packets() {
		var steps uint64
		for _, o := range rec.Packet(i) {
			if o.Name == "radix-walk" {
				steps = o.Value >> 8
			}
		}
		if steps < 1 || steps > 33 {
			t.Fatalf("packet %d: %d radix steps", i, steps)
		}
	}
}

func TestWatchdogPropagates(t *testing.T) {
	// An execution budget exceeded inside Step aborts processing.
	app, _ := New("crc")
	ctx, e := testCtx(t)
	tr := packet.MustGenerate(app.TraceConfig(1, 1))
	if err := app.Setup(ctx, tr); err != nil {
		t.Fatal(err)
	}
	e.limit = e.instrs + 10 // allow almost nothing for the packet
	buf := dma(t, ctx, &tr.Packets[0])
	if err := app.Process(ctx, &tr.Packets[0], buf); err == nil {
		t.Fatal("budget exhaustion should propagate out of Process")
	}
}

func TestDeterministicObservations(t *testing.T) {
	for _, name := range []string{"route", "nat", "url"} {
		a := runApp(t, name, 20)
		b := runApp(t, name, 20)
		if a.Packets() != b.Packets() {
			t.Fatalf("%s: packet counts differ", name)
		}
		for i := range a.Packets() {
			ao, bo := a.Packet(i), b.Packet(i)
			if len(ao) != len(bo) {
				t.Fatalf("%s packet %d: observation counts differ", name, i)
			}
			for j := range ao {
				if ao[j] != bo[j] {
					t.Fatalf("%s packet %d obs %d: %v != %v", name, i, j, ao[j], bo[j])
				}
			}
		}
	}
}

// md5Reference computes the RFC 1321 digest as four little-endian words
// using an independent implementation (table-free, computed constants).
func md5Reference(msg []byte) [4]uint32 {
	s := [64]uint32{
		7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
		5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20,
		4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
		6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
	}
	st := [4]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476}
	ml := len(msg)
	padded := append(append([]byte{}, msg...), 0x80)
	for len(padded)%64 != 56 {
		padded = append(padded, 0)
	}
	for i := 0; i < 8; i++ {
		padded = append(padded, byte(uint64(ml*8)>>(8*i)))
	}
	for base := 0; base < len(padded); base += 64 {
		var m [16]uint32
		for w := 0; w < 16; w++ {
			for b := 0; b < 4; b++ {
				m[w] |= uint32(padded[base+w*4+b]) << (8 * b)
			}
		}
		a, b, c, d := st[0], st[1], st[2], st[3]
		for i := 0; i < 64; i++ {
			var f uint32
			var g int
			switch {
			case i < 16:
				f, g = b&c|^b&d, i
			case i < 32:
				f, g = d&b|^d&c, (5*i+1)&15
			case i < 48:
				f, g = b^c^d, (3*i+5)&15
			default:
				f, g = c^(b|^d), (7*i)&15
			}
			f += a + md5K[i] + m[g]
			a, d, c = d, c, b
			b += f<<(s[i]&31) | f>>((32-s[i])&31)
		}
		st[0] += a
		st[1] += b
		st[2] += c
		st[3] += d
	}
	return st
}
