package packet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
	"testing/quick"

	"clumsy/internal/fault"
)

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: 0001 f203 f4f5 f6f7 -> checksum 0x220d.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != 0x220d {
		t.Fatalf("Checksum = %#04x, want 0x220d", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	if Checksum([]byte{0xff}) != ^uint16(0xff00) {
		t.Fatal("odd-length checksum mishandled")
	}
}

func TestHeaderChecksumValidates(t *testing.T) {
	p := Packet{Src: 0x0a000001, Dst: 0xc0a80101, TTL: 64, Proto: ProtoTCP, Payload: make([]byte, 100)}
	h := p.Header()
	// Re-summing the header including its checksum yields zero complement.
	var sum uint32
	for i := 0; i < len(h); i += 2 {
		sum += uint32(h[i])<<8 | uint32(h[i+1])
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	if uint16(sum) != 0xffff {
		t.Fatalf("header does not verify: sum = %#x", sum)
	}
	if h[8] != 64 || h[9] != ProtoTCP {
		t.Fatal("TTL/protocol fields misplaced")
	}
	if int(h[2])<<8|int(h[3]) != HeaderLen+100 {
		t.Fatal("total length field wrong")
	}
}

func TestPrefixContains(t *testing.T) {
	p := Prefix{Addr: 0xc0a80000, Len: 16} // 192.168/16
	if !p.Contains(0xc0a81234) {
		t.Fatal("address inside prefix rejected")
	}
	if p.Contains(0xc0a90000) {
		t.Fatal("address outside prefix accepted")
	}
	if p.String() != "192.168.0.0/16" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestPrefixMaskProperty(t *testing.T) {
	f := func(raw uint32, lnRaw uint8) bool {
		ln := 8 + int(lnRaw)%23 // 8..30
		p := Prefix{Addr: raw, Len: ln}
		m := p.Mask()
		// Mask has exactly ln leading ones.
		ones := 0
		for i := 31; i >= 0 && m&(1<<uint(i)) != 0; i-- {
			ones++
		}
		return ones == ln && p.Contains(p.Addr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeneratePrefixesDistinct(t *testing.T) {
	rng := fault.NewRNG(1)
	ps := GeneratePrefixes(200, rng)
	if len(ps) != 200 {
		t.Fatalf("got %d prefixes", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if p.Len < 8 || p.Len > 24 {
			t.Fatalf("prefix length %d out of range", p.Len)
		}
		if p.Addr&^p.Mask() != 0 {
			t.Fatalf("prefix %v has host bits set", p)
		}
		if seen[p.String()] {
			t.Fatalf("duplicate prefix %v", p)
		}
		seen[p.String()] = true
	}
}

func TestTraceDeterminism(t *testing.T) {
	cfg := TraceConfig{Packets: 500, Flows: 40, PayloadMin: 40, PayloadMax: 200, Seed: 7}
	a := MustGenerate(cfg)
	b := MustGenerate(cfg)
	if len(a.Packets) != len(b.Packets) {
		t.Fatal("lengths differ")
	}
	for i := range a.Packets {
		if a.Packets[i].Src != b.Packets[i].Src || !bytes.Equal(a.Packets[i].Payload, b.Packets[i].Payload) {
			t.Fatalf("packet %d differs between identical seeds", i)
		}
	}
	c := MustGenerate(TraceConfig{Packets: 500, Flows: 40, PayloadMin: 40, PayloadMax: 200, Seed: 8})
	same := 0
	for i := range a.Packets {
		if a.Packets[i].Src == c.Packets[i].Src {
			same++
		}
	}
	if same == len(a.Packets) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestTraceFlowLocality(t *testing.T) {
	// Zipf skew: the most popular flow should carry far more than 1/Flows
	// of the traffic.
	tr := MustGenerate(TraceConfig{Packets: 5000, Flows: 100, PayloadMin: 64, PayloadMax: 64, Seed: 3})
	counts := map[uint32]int{}
	for _, p := range tr.Packets {
		counts[p.Src]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 3*len(tr.Packets)/100 {
		t.Fatalf("top flow carries %d of %d packets; expected heavy skew", max, len(tr.Packets))
	}
}

func TestTraceHTTPPayloads(t *testing.T) {
	tr := MustGenerate(TraceConfig{Packets: 1000, Flows: 50, PayloadMin: 64, PayloadMax: 64,
		HTTPFraction: 1.0, Seed: 5})
	for i, p := range tr.Packets {
		if !strings.HasPrefix(string(p.Payload), "GET /") {
			t.Fatalf("packet %d payload %q is not an HTTP GET", i, p.Payload[:16])
		}
		if p.DstPort != 80 || p.Proto != ProtoTCP {
			t.Fatalf("HTTP packet %d has port %d proto %d", i, p.DstPort, p.Proto)
		}
		if len(p.Payload) < 64 {
			t.Fatalf("payload padded to %d, want >= 64", len(p.Payload))
		}
	}
}

func TestTraceDestinationsInPrefixes(t *testing.T) {
	rng := fault.NewRNG(2)
	prefixes := GeneratePrefixes(32, rng)
	tr := MustGenerate(TraceConfig{Packets: 800, Flows: 60, PayloadMin: 40, PayloadMax: 40,
		Prefixes: prefixes, Seed: 11})
	for i, p := range tr.Packets {
		found := false
		for _, pf := range prefixes {
			if pf.Contains(p.Dst) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("packet %d destination %#x outside every prefix", i, p.Dst)
		}
	}
}

func TestTraceValidation(t *testing.T) {
	bad := []TraceConfig{
		{},
		{Packets: 10},                           // no flows
		{Packets: 10, Flows: 5, PayloadMin: -1}, // bad payload
		{Packets: 10, Flows: 5, PayloadMin: 100, PayloadMax: 50},
		{Packets: 10, Flows: 5, HTTPFraction: 2},
		{Packets: 10, Flows: 5, ZipfS: -1},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d should fail: %+v", i, cfg)
		}
	}
}

func TestTraceTTLRange(t *testing.T) {
	tr := MustGenerate(TraceConfig{Packets: 300, Flows: 10, PayloadMin: 40, PayloadMax: 40, Seed: 1})
	for _, p := range tr.Packets {
		if p.TTL < 32 {
			t.Fatalf("TTL %d below minimum", p.TTL)
		}
	}
}

// TestTraceBytesPinned pins every generated header and payload byte of a
// mixed HTTP/binary trace with empty payloads, and of a one-packet trace,
// to digests recorded before payloads moved into per-trace arenas: the
// arena changes where payloads live, never their bytes or the RNG draws.
func TestTraceBytesPinned(t *testing.T) {
	for _, c := range []struct {
		cfg  TraceConfig
		want string
	}{
		{TraceConfig{Packets: 3000, Flows: 64, PayloadMin: 0, PayloadMax: 1500, HTTPFraction: 0.5, Seed: 11},
			"ef25651c9a9bf5aabedaca3740eb28eb4e00b3ecb9c7e7de6842c8394f2d122e"},
		{TraceConfig{Packets: 1, Flows: 4, PayloadMin: 10, PayloadMax: 20, HTTPFraction: 1, Seed: 3},
			"0e0b3e359ee1cc97fc922c84932037e564a388e5dffa5de990f8d9174e18a32f"},
	} {
		h := sha256.New()
		tr := MustGenerate(c.cfg)
		for i := range tr.Packets {
			hdr := tr.Packets[i].Header()
			h.Write(hdr[:])
			h.Write(tr.Packets[i].Payload)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%+v: trace digest %s, want %s", c.cfg, got, c.want)
		}
	}
}

// TestPayloadsCapacityClipped: payloads share arena chunks, so each must
// end at its own length; an append to one then copies it instead of
// writing into its neighbour.
func TestPayloadsCapacityClipped(t *testing.T) {
	tr := MustGenerate(TraceConfig{Packets: 400, Flows: 16, PayloadMin: 0, PayloadMax: 300, HTTPFraction: 0.5, Seed: 2})
	for i := range tr.Packets {
		p := tr.Packets[i].Payload
		if p == nil || cap(p) != len(p) {
			t.Fatalf("packet %d: payload len %d cap %d (nil %v)", i, len(p), cap(p), p == nil)
		}
	}
	next := bytes.Clone(tr.Packets[1].Payload)
	_ = append(tr.Packets[0].Payload, 0xff, 0xff, 0xff, 0xff)
	if !bytes.Equal(tr.Packets[1].Payload, next) {
		t.Fatal("appending to a payload overwrote the next one")
	}
}
