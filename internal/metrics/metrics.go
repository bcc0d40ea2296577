// Package metrics implements the paper's application-level error
// measurement (Section 2) and comparison metric (Section 4.1). Each
// application marks the values of its important data structures as it
// processes packets; a fault-free golden execution and a fault-injected
// execution of the same trace are compared observation by observation. The
// fraction of packets with any mismatch is the fallibility, fatal errors
// (executions that cannot complete) are tracked separately, and the
// energy–delay^m–fallibility^n product combines energy, per-packet delay,
// and error probability into a single figure of merit.
//
// The golden execution records its observations as a compact stream: each
// is a one-byte id into the recorder's interned structure names plus its
// value, in flat arrays with one end offset per packet. The faulty
// execution does not record: a checker (NewChecker) compares each
// observation with the golden one at its cursor as the application makes
// it, stages the packet's tallies until EndPacket (a contained drop
// discards them) and folds the Report on the way, so its memory does not
// grow with the trace. Compare, over two recorded streams, is the
// reference the streaming check is tested against.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Observation is one named data-structure value recorded during execution,
// e.g. the checksum of the packet being routed or a traversed radix-tree
// node. It is a read view of a recorded stream (Recorder.Init,
// Recorder.Packet); the stream itself stores a name id and a value.
type Observation struct {
	Name  string
	Value uint64
}

// A Recorder is an application's observation sink. How it treats an
// observation is fixed when it is made:
//
//   - NewRecorder records the stream: each observation is a one-byte id
//     into the recorder's interned structure names plus its value, in
//     flat arrays with per-packet end offsets. The golden pass records.
//   - NewChecker checks each observation against a recorded golden
//     stream as the application makes it and folds the Report on the
//     way; it stores no observations. The faulty pass checks.
//   - A nil *Recorder records nothing: a machine with no golden stream
//     to check against (a serving node) has no use for its observations.
type Recorder struct {
	// The recorded stream. Observation k is (names[ids[k]], vals[k]).
	// The control plane's observations are [0, initEnd); packet p's end
	// at ends[p] and start where packet p-1's end (initEnd for p = 0).
	names   []string
	ids     []uint8
	vals    []uint64
	initEnd int
	ends    []uint32
	dropped []uint32 // packets discarded by DropPacket, ascending
	inInit  bool

	chk check // the streaming check; chk.golden is nil when recording
}

// NewRecorder returns a recorder in the control-plane phase: observations
// recorded before the first BeginPackets call are initialisation values.
func NewRecorder() *Recorder {
	return &Recorder{inInit: true}
}

// NewChecker returns a recorder, in the control-plane phase, that checks
// every observation against golden, a stream recorded by NewRecorder that
// it only reads: one golden stream may serve many concurrent checkers.
// Its Report equals Compare of golden and a recording of the same calls.
func NewChecker(golden *Recorder) *Recorder {
	return &Recorder{inInit: true, chk: check{
		golden: golden,
		stage:  make([]StructCount, len(golden.names)),
		tally:  make([]StructCount, len(golden.names)),
		want:   -1,
	}}
}

// Observe records, or checks, a named value in the current phase.
func (r *Recorder) Observe(name string, v uint64) {
	switch {
	case r == nil:
	case r.chk.golden != nil:
		if r.inInit {
			r.chk.observeInit(name, v)
		} else {
			r.chk.observe(name, v)
		}
	default:
		r.ids = append(r.ids, r.intern(name))
		r.vals = append(r.vals, v)
	}
}

// intern returns the id of a structure name, adding it on first use. An
// application observes a handful of structures, so a scan beats a map.
func (r *Recorder) intern(name string) uint8 {
	for id, n := range r.names {
		if n == name {
			return uint8(id)
		}
	}
	if len(r.names) > math.MaxUint8 {
		panic(fmt.Sprintf("metrics: more than %d structure names", math.MaxUint8+1))
	}
	r.names = append(r.names, name)
	return uint8(len(r.names) - 1)
}

// BeginPackets ends the control-plane phase.
func (r *Recorder) BeginPackets() {
	if r == nil || !r.inInit {
		return
	}
	r.inInit = false
	if r.chk.golden != nil {
		r.chk.seek(0)
		return
	}
	r.initEnd = len(r.ids)
}

// EndPacket finalises the current packet's observations.
func (r *Recorder) EndPacket() {
	switch {
	case r == nil:
	case r.chk.golden != nil:
		r.chk.endPacket()
	default:
		r.ends = append(r.ends, uint32(len(r.ids)))
	}
}

// DropPacket records the current packet as dropped by fault containment:
// its partial observations are discarded (the packet never completed, so
// they are not comparable) and the dropped packet keeps its slot in the
// sequence, so later packets still line up with the golden run.
func (r *Recorder) DropPacket() {
	switch {
	case r == nil:
	case r.chk.golden != nil:
		r.chk.dropPacket()
	default:
		start := r.start(len(r.ends))
		r.ids, r.vals = r.ids[:start], r.vals[:start]
		r.dropped = append(r.dropped, uint32(len(r.ends)))
		r.ends = append(r.ends, uint32(start))
	}
}

// Reset clears everything recorded, or checked, for a fresh run; a
// checker keeps its golden stream.
func (r *Recorder) Reset() {
	if g := r.chk.golden; g != nil {
		*r = *NewChecker(g)
		return
	}
	*r = Recorder{inInit: true}
}

// Packets returns the number of packets recorded, completed or dropped.
func (r *Recorder) Packets() int { return len(r.ends) }

// Init returns the recorded control-plane observations.
func (r *Recorder) Init() []Observation { return r.view(0, r.initLen()) }

// Packet returns the recorded observations of packet p; a dropped packet
// has none.
func (r *Recorder) Packet(p int) []Observation { return r.view(r.start(p), int(r.ends[p])) }

func (r *Recorder) view(from, to int) []Observation {
	obs := make([]Observation, 0, to-from)
	for k := from; k < to; k++ {
		obs = append(obs, Observation{r.names[r.ids[k]], r.vals[k]})
	}
	return obs
}

// initLen is the number of recorded control-plane observations: all of
// them while the control plane is still running.
func (r *Recorder) initLen() int {
	if r.inInit {
		return len(r.ids)
	}
	return r.initEnd
}

// start is the offset of packet p's first recorded observation.
func (r *Recorder) start(p int) int {
	if p == 0 {
		return r.initLen()
	}
	return int(r.ends[p-1])
}

// check is the state of a checker: a cursor into the golden stream, the
// current packet's tallies, staged until the packet ends because a drop
// discards them, and the Report folded so far.
type check struct {
	golden *Recorder

	initSeen int // control-plane observations made
	initBad  bool
	init     StructCount

	pkt      int           // packets ended or dropped so far
	pos, end int           // the golden observations of packet pkt still unmatched
	want     int           // golden observations of packet pkt; -1 past the golden stream
	seen     int           // observations packet pkt has made
	shapeBad bool          // a name diverged: packet pkt's comparison stopped there
	valueBad bool          // a compared value mismatched
	stage    []StructCount // packet pkt's tallies, by golden name id

	tally                           []StructCount // completed packets' tallies, by golden name id
	shape                           StructCount
	processed, dropped, packetsWith int
}

// observeInit compares control-plane observation initSeen with the
// golden one; a surplus one only counts towards the length mismatch.
//
//lint:hot-path
func (c *check) observeInit(name string, v uint64) {
	g, i := c.golden, c.initSeen
	c.initSeen++
	if i >= g.initLen() {
		return
	}
	c.init.Total++
	if g.names[g.ids[i]] != name || g.vals[i] != v {
		c.init.Errors++
		c.initBad = true
	}
}

// observe compares one data-plane observation with the golden one at the
// cursor. A diverging name ends the packet's comparison, and an
// observation past the golden packet's last is only counted.
//
//lint:hot-path
func (c *check) observe(name string, v uint64) {
	c.seen++
	if c.shapeBad || c.pos >= c.end {
		return
	}
	g, k := c.golden, c.pos
	id := g.ids[k]
	if g.names[id] != name {
		c.shapeBad = true
		return
	}
	c.pos++
	c.stage[id].Total++
	if g.vals[k] != v {
		c.stage[id].Errors++
		c.valueBad = true
	}
}

// endPacket folds the completed packet: its staged tallies, its
// control-flow tally (a name diverged, or the observation counts differ)
// and whether it carried any error.
//
//lint:hot-path
func (c *check) endPacket() {
	if c.want >= 0 {
		for id, s := range c.stage {
			c.tally[id].Errors += s.Errors
			c.tally[id].Total += s.Total
		}
		shapeBad := c.shapeBad || c.seen != c.want
		c.shape.Total++
		if shapeBad {
			c.shape.Errors++
		}
		if shapeBad || c.valueBad {
			c.packetsWith++
		}
	}
	c.processed++
	c.seek(c.pkt + 1)
}

// dropPacket discards the dropped packet's staged tallies: a contained
// drop is accounted by Fallibility and DropRate, not by comparison.
//
//lint:hot-path
func (c *check) dropPacket() {
	c.dropped++
	c.seek(c.pkt + 1)
}

// seek starts packet p: its golden observations and empty tallies.
//
//lint:hot-path
func (c *check) seek(p int) {
	g := c.golden
	c.pkt, c.seen, c.shapeBad, c.valueBad = p, 0, false, false
	clear(c.stage)
	if p < len(g.ends) {
		c.pos, c.end = g.start(p), int(g.ends[p])
		c.want = c.end - c.pos
	} else {
		c.pos, c.end, c.want = 0, 0, -1
	}
}

// Report returns the comparison folded so far by a checker (see
// NewChecker). It panics on a recorder that checks nothing.
func (r *Recorder) Report() Report {
	c := &r.chk
	g := c.golden
	if g == nil {
		panic("metrics: Report of a recorder that checks nothing")
	}
	rep := Report{
		GoldenPackets: len(g.ends),
		Processed:     c.processed,
		Dropped:       c.dropped,
		Fatal:         c.processed+c.dropped < len(g.ends),
		PacketsWith:   c.packetsWith,
		InitMismatch:  c.initBad || c.initSeen != g.initLen(),
		PerStructure:  make(map[string]StructCount),
	}
	// An application may name a structure like a synthetic series; its
	// tallies then merge, as Compare's do.
	add := func(name string, s StructCount) {
		if s.Total == 0 {
			return
		}
		t := rep.PerStructure[name]
		t.Errors += s.Errors
		t.Total += s.Total
		rep.PerStructure[name] = t
	}
	add(InitErrorName, c.init)
	add(ShapeErrorName, c.shape)
	for id, s := range c.tally {
		add(g.names[id], s)
	}
	return rep
}

// InitErrorName is the synthetic structure name under which initialisation
// (control-plane) mismatches are reported, matching the "Initialization
// Error" series of Figures 6 and 7.
const InitErrorName = "initialization"

// ShapeErrorName is the synthetic structure name under which divergent
// observation sequences (the faulty run recorded more, fewer, or
// differently named values for a packet — corrupted control flow) are
// reported.
const ShapeErrorName = "control-flow"

// StructCount accumulates mismatches for one observed structure.
type StructCount struct {
	Errors int // mismatching observations
	Total  int // compared observations
}

// Report is the outcome of comparing a faulty run against its golden run.
type Report struct {
	GoldenPackets int  // packets in the golden execution
	Processed     int  // packets the faulty execution completed
	Dropped       int  // packets dropped (fatal errors contained) mid-trace
	Fatal         bool // the faulty execution was cut short
	PacketsWith   int  // packets with at least one mismatch
	InitMismatch  bool // control-plane observations diverged
	PerStructure  map[string]StructCount
}

// Compare matches two recorded streams (both made by NewRecorder) after
// the fact. It is the reference a checker's streaming Report is tested
// against.
func Compare(golden, faulty *Recorder) Report {
	rep := Report{
		GoldenPackets: golden.Packets(),
		Processed:     faulty.Packets() - len(faulty.dropped),
		Dropped:       len(faulty.dropped),
		Fatal:         faulty.Packets() < golden.Packets(),
		PerStructure:  make(map[string]StructCount),
	}
	bump := func(name string, mismatch bool) {
		c := rep.PerStructure[name]
		c.Total++
		if mismatch {
			c.Errors++
		}
		rep.PerStructure[name] = c
	}
	name := func(r *Recorder, k int) string { return r.names[r.ids[k]] }

	initBad := false
	n := golden.initLen()
	if faulty.initLen() != n {
		initBad = true
		n = min(n, faulty.initLen())
	}
	for i := 0; i < n; i++ {
		bad := name(golden, i) != name(faulty, i) || golden.vals[i] != faulty.vals[i]
		bump(InitErrorName, bad)
		if bad {
			initBad = true
		}
	}
	rep.InitMismatch = initBad

	dropped := faulty.dropped
	for p := 0; p < faulty.Packets() && p < rep.GoldenPackets; p++ {
		if len(dropped) > 0 && int(dropped[0]) == p {
			// A contained fatal error: no observations to compare; the drop
			// itself is accounted by Fallibility and DropRate.
			dropped = dropped[1:]
			continue
		}
		g, f := golden.start(p), faulty.start(p)
		gn, fn := int(golden.ends[p])-g, int(faulty.ends[p])-f
		pktBad := false
		shapeBad := false
		m := gn
		if fn != m {
			shapeBad = true
			m = min(m, fn)
		}
		for i := 0; i < m; i++ {
			gName := name(golden, g+i)
			if gName != name(faulty, f+i) {
				shapeBad = true
				break
			}
			bad := golden.vals[g+i] != faulty.vals[f+i]
			bump(gName, bad)
			if bad {
				pktBad = true
			}
		}
		// Shape divergence is tracked per packet so its probability is
		// comparable with the per-structure series.
		bump(ShapeErrorName, shapeBad)
		if pktBad || shapeBad {
			rep.PacketsWith++
		}
	}
	return rep
}

// Fallibility returns the paper's fallibility factor: one plus the
// fraction of attempted packets that carried any error (Table I presents
// factors such as 1.055 and 1.261). A packet dropped by fault containment
// is maximally erroneous — it was never delivered — so it counts in both
// numerator and denominator; with no drops (the abort policy) the formula
// reduces to the paper's processed-packet fraction exactly.
func (r Report) Fallibility() float64 {
	attempted := r.Processed + r.Dropped
	if attempted == 0 {
		// Nothing completed: the run is maximally fallible.
		return 2
	}
	return 1 + float64(r.PacketsWith+r.Dropped)/float64(attempted)
}

// DropRate returns the fraction of attempted packets that were dropped by
// fault containment (zero under the abort policy).
func (r Report) DropRate() float64 {
	attempted := r.Processed + r.Dropped
	if attempted == 0 {
		return 0
	}
	return float64(r.Dropped) / float64(attempted)
}

// FatalProbability returns the per-packet probability of a fatal error
// implied by this run: for an aborted run, one over the number of packets
// attempted before the execution died (the paper's estimator); for a
// contained run that completed the trace, the observed drop rate; zero for
// a clean run.
func (r Report) FatalProbability() float64 {
	if r.Fatal {
		return 1 / float64(r.Processed+r.Dropped+1)
	}
	if r.Dropped > 0 {
		return r.DropRate()
	}
	return 0
}

// ErrorProbability returns the per-packet mismatch probability of one
// observed structure.
func (r Report) ErrorProbability(name string) float64 {
	c, ok := r.PerStructure[name]
	if !ok || c.Total == 0 {
		return 0
	}
	return float64(c.Errors) / float64(c.Total)
}

// StructureNames returns the observed structure names in sorted order.
func (r Report) StructureNames() []string {
	names := make([]string, 0, len(r.PerStructure))
	for n := range r.PerStructure { //lint:det-ok — iteration order irrelevant: names are sorted before return
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// EDFExponents are the weights of the comparison metric. The paper uses
// k=1, m=2, n=2: delay and fallibility matter more than energy
// (Section 4.1).
type EDFExponents struct{ K, M, N float64 }

// DefaultExponents returns the paper's energy¹-delay²-fallibility² weights.
func DefaultExponents() EDFExponents { return EDFExponents{K: 1, M: 2, N: 2} }

// EDF computes energy^k · delay^m · fallibility^n.
func (e EDFExponents) EDF(energy, delay, fallibility float64) float64 {
	if energy < 0 || delay < 0 || fallibility < 0 {
		panic(fmt.Sprintf("metrics: negative EDF input (%v, %v, %v)", energy, delay, fallibility))
	}
	return math.Pow(energy, e.K) * math.Pow(delay, e.M) * math.Pow(fallibility, e.N)
}
