package apps

import (
	"testing"

	"clumsy/internal/metrics"
	"clumsy/internal/packet"
)

// setupOn prepares an app over a default trace and returns its context.
func setupOn(t *testing.T, name string, packets int) (App, *Context, *packet.Trace) {
	t.Helper()
	app, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := testCtx(t)
	tr := packet.MustGenerate(app.TraceConfig(packets, 77))
	if err := app.Setup(ctx, tr); err != nil {
		t.Fatal(err)
	}
	ctx.Rec.BeginPackets()
	return app, ctx, tr
}

// process pushes one custom packet through the app.
func process(t *testing.T, app App, ctx *Context, p *packet.Packet) []metrics.Observation {
	t.Helper()
	buf := dma(t, ctx, p)
	if err := app.Process(ctx, p, buf); err != nil {
		t.Fatal(err)
	}
	ctx.Rec.EndPacket()
	return ctx.Rec.Packet(ctx.Rec.Packets() - 1)
}

func obsValue(t *testing.T, obs []metrics.Observation, name string) (uint64, bool) {
	t.Helper()
	for _, o := range obs {
		if o.Name == name {
			return o.Value, true
		}
	}
	return 0, false
}

func TestRouteDropsExpiredTTL(t *testing.T) {
	app, ctx, tr := setupOn(t, "route", 2)
	p := tr.Packets[0]
	p.TTL = 1
	obs := process(t, app, ctx, &p)
	ttl, ok := obsValue(t, obs, "ttl")
	if !ok || ttl != 1 {
		t.Fatalf("ttl observation = %v, %v", ttl, ok)
	}
	entry, ok := obsValue(t, obs, "route-entry")
	if !ok || entry != 0 {
		t.Fatalf("expired packet should be dropped, route-entry = %v", entry)
	}
}

func TestRouteZeroTTL(t *testing.T) {
	app, ctx, tr := setupOn(t, "route", 2)
	p := tr.Packets[0]
	p.TTL = 0
	obs := process(t, app, ctx, &p)
	if entry, _ := obsValue(t, obs, "route-entry"); entry != 0 {
		t.Fatal("TTL 0 must not be forwarded")
	}
}

func TestURLIgnoresNonHTTPPayload(t *testing.T) {
	app, ctx, tr := setupOn(t, "url", 2)
	p := tr.Packets[0]
	p.Payload = []byte("POST /unsupported HTTP/1.0\r\n\r\n")
	obs := process(t, app, ctx, &p)
	entry, ok := obsValue(t, obs, "url-entry")
	if !ok || entry != ^uint64(0) {
		t.Fatalf("non-GET payload should not match: %v", entry)
	}
	if dst, _ := obsValue(t, obs, "final-dst"); dst != 0 {
		t.Fatal("unmatched packet must not be rewritten")
	}
}

func TestURLUnknownPathMisses(t *testing.T) {
	app, ctx, tr := setupOn(t, "url", 2)
	p := tr.Packets[0]
	p.Payload = []byte("GET /no/such/path HTTP/1.0\r\nHost: x\r\n\r\n")
	obs := process(t, app, ctx, &p)
	entry, _ := obsValue(t, obs, "url-entry")
	if int32(uint32(entry)) >= 0 {
		t.Fatalf("unknown path matched entry %d", int32(uint32(entry)))
	}
}

func TestURLEmptyPayload(t *testing.T) {
	app, ctx, tr := setupOn(t, "url", 2)
	p := tr.Packets[0]
	p.Payload = nil
	obs := process(t, app, ctx, &p)
	if entry, ok := obsValue(t, obs, "url-entry"); !ok || entry != ^uint64(0) {
		t.Fatalf("empty payload should be a parse miss, got %v", entry)
	}
}

func TestNATUnknownSourceDropped(t *testing.T) {
	app, ctx, tr := setupOn(t, "nat", 2)
	p := tr.Packets[0]
	p.Src = 0xfefefefe // never inserted in the NAT table
	obs := process(t, app, ctx, &p)
	if trans, ok := obsValue(t, obs, "translated-src"); !ok || trans != 0 {
		t.Fatalf("unknown source should be dropped, translated = %v", trans)
	}
}

func TestDRRRingOverflowDrops(t *testing.T) {
	// Saturate one queue: drr drops rather than corrupting its ring.
	app, ctx, tr := setupOn(t, "drr", 2)
	p := tr.Packets[0]
	p.Payload = make([]byte, 1500) // bigger than the 512-byte quantum
	for i := 0; i < 80; i++ {      // ring capacity is 32
		buf := dma(t, ctx, &p)
		if err := app.Process(ctx, &p, buf); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		ctx.Rec.EndPacket()
	}
	// All observations must be well-formed; no runaway deficit.
	for i := range ctx.Rec.Packets() {
		if v, ok := obsValue(t, ctx.Rec.Packet(i), "deficit-value"); ok && v > 1<<20 {
			t.Fatalf("packet %d: deficit %d exploded", i, v)
		}
	}
}

func TestCRCEmptyPayload(t *testing.T) {
	app, ctx, tr := setupOn(t, "crc", 2)
	p := tr.Packets[0]
	p.Payload = nil
	obs := process(t, app, ctx, &p)
	if _, ok := obsValue(t, obs, "crc-accumulator"); !ok {
		t.Fatal("crc of header-only packet missing")
	}
}

func TestMD5PaddingBoundaries(t *testing.T) {
	// Message lengths that straddle the RFC 1321 padding edge cases:
	// 35 and 36 bytes of payload put the total at 55/56 bytes, around the
	// one-block/two-block boundary; 44 makes exactly 64.
	app, ctx, tr := setupOn(t, "md5", 2)
	for _, n := range []int{35, 36, 44, 108} {
		p := tr.Packets[0]
		p.Payload = make([]byte, n)
		for i := range p.Payload {
			p.Payload[i] = byte(i)
		}
		obs := process(t, app, ctx, &p)
		h := p.Header()
		want := md5Reference(append(h[:], p.Payload...))
		got := make([]uint32, 0, 4)
		for _, o := range obs {
			if o.Name == "md5-digest" {
				got = append(got, uint32(o.Value))
			}
		}
		if len(got) != 4 {
			t.Fatalf("payload %d: %d digest words", n, len(got))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("payload %d: digest word %d = %#x, want %#x", n, i, got[i], want[i])
			}
		}
	}
}

func TestTLUnroutableDestination(t *testing.T) {
	app, ctx, tr := setupOn(t, "tl", 2)
	p := tr.Packets[0]
	p.Dst = 0 // 0.0.0.0 matches no prefix (lengths are >= 8)
	obs := process(t, app, ctx, &p)
	entry, ok := obsValue(t, obs, "route-entry")
	if !ok {
		t.Fatal("route-entry observation missing")
	}
	if entry>>8 != 0 {
		t.Fatalf("unroutable destination resolved to %d", entry>>8)
	}
}

func TestExtrasListsADPCM(t *testing.T) {
	extras := Extras()
	found := false
	for _, n := range extras {
		if n == "adpcm" {
			found = true
		}
		for _, p := range Names() {
			if p == n {
				t.Fatalf("extra %q also in the paper set", n)
			}
		}
	}
	if !found {
		t.Fatalf("adpcm missing from extras: %v", extras)
	}
}

func TestADPCMEncodesAgainstReference(t *testing.T) {
	app, ctx, tr := setupOn(t, "adpcm", 3)
	for i := range tr.Packets {
		p := &tr.Packets[i]
		obs := process(t, app, ctx, p)
		stream, ok := obsValue(t, obs, "adpcm-stream")
		if !ok {
			t.Fatal("stream digest missing")
		}
		pred, ok := obsValue(t, obs, "adpcm-predictor")
		if !ok {
			t.Fatal("predictor missing")
		}
		wantStream, wantPred := adpcmReference(p.Payload)
		if stream != wantStream {
			t.Fatalf("packet %d: stream digest %#x, want %#x", i, stream, wantStream)
		}
		if uint32(pred) != wantPred {
			t.Fatalf("packet %d: predictor %#x, want %#x", i, pred, wantPred)
		}
	}
}

// adpcmReference is an independent host-side IMA ADPCM encoder producing
// the same digest the app observes.
func adpcmReference(payload []byte) (uint64, uint32) {
	pred, idx := int32(0), int32(0)
	var digest uint64
	for s := 0; s+1 < len(payload); s += 2 {
		sample := int32(int16(uint16(payload[s]) | uint16(payload[s+1])<<8))
		step := int32(imaStepTable[idx])
		diff := sample - pred
		var code int32
		if diff < 0 {
			code = 8
			diff = -diff
		}
		var delta int32
		if diff >= step {
			code |= 4
			diff -= step
			delta += step
		}
		if diff >= step/2 {
			code |= 2
			diff -= step / 2
			delta += step / 2
		}
		if diff >= step/4 {
			code |= 1
			delta += step / 4
		}
		delta += step / 8
		if code&8 != 0 {
			delta = -delta
		}
		pred = clamp32(pred+delta, -32768, 32767)
		idx = clamp32(idx+imaIndexTable[code&15], 0, int32(len(imaStepTable)-1))
		digest = digest*31 + uint64(code&15)
	}
	return digest, uint32(pred)
}

func TestADPCMRunsOnClumsyProcessor(t *testing.T) {
	// The extension workload must run end-to-end through the processor
	// harness like the paper's seven.
	rec := runApp(t, "adpcm", 30)
	if rec.Packets() != 30 {
		t.Fatalf("processed %d packets", rec.Packets())
	}
}

func TestURLPathAtMaxLength(t *testing.T) {
	// A request path exactly at the parser's register-window limit must
	// parse without error and simply miss the table.
	app, ctx, tr := setupOn(t, "url", 2)
	p := tr.Packets[0]
	long := "GET /"
	for len(long) < 4+urlMaxPath+8 {
		long += "x"
	}
	p.Payload = []byte(long + " HTTP/1.0\r\n\r\n")
	obs := process(t, app, ctx, &p)
	if entry, ok := obsValue(t, obs, "url-entry"); !ok || int32(uint32(entry)) >= 0 {
		t.Fatalf("oversized path should miss, entry = %v", entry)
	}
}

func TestMD5EmptyPayload(t *testing.T) {
	app, ctx, tr := setupOn(t, "md5", 2)
	p := tr.Packets[0]
	p.Payload = nil
	obs := process(t, app, ctx, &p)
	h := p.Header()
	want := md5Reference(h[:])
	got := make([]uint32, 0, 4)
	for _, o := range obs {
		if o.Name == "md5-digest" {
			got = append(got, uint32(o.Value))
		}
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("digest word %d = %#x, want %#x", i, got[i], want[i])
		}
	}
}

func TestADPCMOddPayload(t *testing.T) {
	// An odd-length payload leaves a trailing byte unencoded; the codec
	// must not read past it.
	app, ctx, tr := setupOn(t, "adpcm", 2)
	p := tr.Packets[0]
	p.Payload = []byte{1, 2, 3}
	obs := process(t, app, ctx, &p)
	if _, ok := obsValue(t, obs, "adpcm-stream"); !ok {
		t.Fatal("stream digest missing for odd payload")
	}
}
