package packet

import (
	"errors"
	"strconv"

	"clumsy/internal/fault"
)

// TraceConfig describes a synthetic workload.
type TraceConfig struct {
	Packets int     // number of packets to generate
	Flows   int     // active flow population
	ZipfS   float64 // flow popularity skew (1.0 ~ typical internet mix)

	PayloadMin, PayloadMax int // payload size range in bytes

	// HTTPFraction of packets carry an HTTP GET request as payload (used
	// by the url application; others ignore payload semantics).
	HTTPFraction float64
	// URLPaths is the set of request paths HTTP payloads draw from. When
	// empty, DefaultURLPaths is used.
	URLPaths []string

	// Prefixes are the routable destination prefixes; flow destinations
	// are drawn from them so that lookups resolve. When empty, destinations
	// are uniformly random.
	Prefixes []Prefix

	Seed uint64
}

// Validate reports configuration problems.
func (c TraceConfig) Validate() error {
	switch {
	case c.Packets <= 0:
		return errors.New("packet: non-positive packet count")
	case c.Flows <= 0:
		return errors.New("packet: non-positive flow count")
	case c.PayloadMin < 0 || c.PayloadMax < c.PayloadMin:
		return errors.New("packet: bad payload size range")
	case c.HTTPFraction < 0 || c.HTTPFraction > 1:
		return errors.New("packet: HTTP fraction out of [0,1]")
	case c.ZipfS < 0:
		return errors.New("packet: negative Zipf skew")
	}
	return nil
}

// DefaultURLPaths is the path population for URL-switching workloads.
var DefaultURLPaths = []string{
	"/index.html", "/images/logo.gif", "/cgi-bin/query", "/news/today",
	"/static/app.js", "/api/v1/items", "/video/stream", "/download/file.bin",
	"/sports/scores", "/weather/map",
}

// flow is one generated five-tuple with a fixed payload style.
type flow struct {
	src, dst         uint32
	srcPort, dstPort uint16
	proto            uint8
	http             bool
	urlIdx           int
}

// Trace is a reproducible packet sequence.
type Trace struct {
	Packets []Packet
}

// Generate builds the trace deterministically from the seed.
func Generate(cfg TraceConfig) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := fault.NewRNG(cfg.Seed).Fork(0x7ace)
	paths := cfg.URLPaths
	if len(paths) == 0 {
		paths = DefaultURLPaths
	}
	s := cfg.ZipfS
	if s == 0 {
		s = 1.0
	}

	flows := make([]flow, cfg.Flows)
	for i := range flows {
		f := flow{
			src:     rng.Uint32(),
			srcPort: uint16(1024 + rng.Intn(60000)),
			proto:   ProtoUDP,
		}
		if len(cfg.Prefixes) > 0 {
			p := cfg.Prefixes[rng.Intn(len(cfg.Prefixes))]
			f.dst = p.Addr&p.Mask() | rng.Uint32()&^p.Mask()
		} else {
			f.dst = rng.Uint32()
		}
		if rng.Float64() < cfg.HTTPFraction {
			f.http = true
			f.proto = ProtoTCP
			f.dstPort = 80
			f.urlIdx = rng.Intn(len(paths))
		} else {
			f.dstPort = uint16(rng.Intn(1024))
		}
		flows[i] = f
	}

	z := newZipf(cfg.Flows, s)
	tr := &Trace{Packets: make([]Packet, cfg.Packets)}
	var a arena
	var req []byte // the current HTTP request line and Host header
	meanSize := (cfg.PayloadMin + cfg.PayloadMax + 1) / 2
	for i := 0; i < cfg.Packets; i++ {
		f := flows[z.sample(rng)]
		size := cfg.PayloadMin
		if cfg.PayloadMax > cfg.PayloadMin {
			size += rng.Intn(cfg.PayloadMax - cfg.PayloadMin + 1)
		}
		rest := (cfg.Packets - i) * meanSize
		var payload []byte
		if f.http {
			req = append(req[:0], "GET "...)
			req = append(req, paths[f.urlIdx]...)
			req = append(req, " HTTP/1.0\r\nHost: sw"...)
			req = strconv.AppendUint(req, uint64(f.dst&0xff), 10)
			req = append(req, ".example\r\n\r\n"...)
			payload = a.alloc(max(len(req), size), rest)
			n := copy(payload, req)
			for j := n; j < len(payload); j++ {
				payload[j] = byte('a' + j%26)
			}
		} else {
			payload = a.alloc(size, rest)
			for j := range payload {
				payload[j] = byte(rng.Uint32())
			}
		}
		tr.Packets[i] = Packet{
			Src:     f.src,
			Dst:     f.dst,
			SrcPort: f.srcPort,
			DstPort: f.dstPort,
			Proto:   f.proto,
			TTL:     uint8(32 + rng.Intn(96)),
			Payload: payload,
		}
	}
	return tr, nil
}

// arenaChunk is the largest payload arena chunk Generate allocates.
const arenaChunk = 64 << 10

// arena carves a trace's payloads out of a few large chunks instead of one
// allocation each. Chunks are sized to what the rest of the trace is
// expected to need, up to arenaChunk, so a short trace allocates about
// its payload bytes.
type arena struct{ buf []byte }

// alloc returns n zeroed bytes whose capacity is clipped to n, so that an
// append to one payload copies it rather than writing into the next. rest
// is the expected size of this payload and every later one.
func (a *arena) alloc(n, rest int) []byte {
	if a.buf == nil || len(a.buf) < n {
		a.buf = make([]byte, max(n, min(rest, arenaChunk)))
	}
	p := a.buf[:n:n]
	a.buf = a.buf[n:]
	return p
}

// MustGenerate is Generate for static configurations.
func MustGenerate(cfg TraceConfig) *Trace {
	tr, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return tr
}
