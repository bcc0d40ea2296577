package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a module of the program.
// Spans of one batch (a group of runs, or a campaign batch) share Group.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for a root span
	Group  int           `json:"group"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the tracer was created
	End    time.Duration `json:"end_ns"`
	Ops    int           `json:"ops,omitempty"` // iterations a layer probe ran inside the span
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the benchmark ends. A nil *tracer is
// the untraced mode: every method is a no-op, so untraced and traced runs
// make the same calls into the program.
type tracer struct {
	origin time.Time
	spans  []span
	stack  []int // indices of the open spans, innermost last
	group  int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Group: t.group, Name: name, Start: time.Since(t.origin)})
	t.stack = append(t.stack, len(t.spans)-1)
}

// end closes the innermost open span, recording how many iterations ran
// inside it, and returns the span's duration.
func (t *tracer) end(ops int) time.Duration {
	if t == nil {
		return 0
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].End = time.Since(t.origin)
	t.spans[i].Ops = ops
	return t.spans[i].dur()
}

// newGroup starts a new group id for the spans that follow.
func (t *tracer) newGroup() {
	if t != nil {
		t.group++
	}
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns each span's self time, indexed like spans: its duration
// minus the part of its interval that its children cover. Children that
// overlap each other are counted once, and a child sticking out of its
// parent is clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	byID := make(map[int]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	children := make([][]span, len(spans))
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s.Start, s.End, children[i])
	}
	return out
}

// covered returns the length of the union of the intervals of kids,
// clipped to [start, end].
func covered(start, end time.Duration, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// layerTime sums the self time of the spans of one name.
type layerTime struct {
	self time.Duration
	n    int
}

// byName aggregates self times per span name.
func byName(spans []span) map[string]layerTime {
	self := selfTimes(spans)
	out := make(map[string]layerTime)
	for i, s := range spans {
		lt := out[s.Name]
		lt.self += self[i]
		lt.n++
		out[s.Name] = lt
	}
	return out
}
