package main

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeNested(t *testing.T) {
	// root [0,100) > a [10,40) > a1 [15,25); root > b [50,90).
	spans := []span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 2, Name: "a1", Start: ms(15), End: ms(25)},
		{ID: 4, Parent: 1, Name: "b", Start: ms(50), End: ms(90)},
	}
	got := selfTimes(spans)
	want := []time.Duration{ms(30), ms(20), ms(10), ms(40)}
	var sum time.Duration
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s self = %v, want %v", spans[i].Name, got[i], want[i])
		}
		sum += got[i]
	}
	if sum != spans[0].dur() {
		t.Errorf("self times sum to %v, want the root's %v", sum, spans[0].dur())
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Two children overlapping each other cover [10,60) once, and a
	// child running past its parent's end counts only inside the parent.
	spans := []span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "x", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "y", Start: ms(30), End: ms(60)},
		{ID: 4, Parent: 1, Name: "late", Start: ms(90), End: ms(120)},
	}
	got := selfTimes(spans)
	if want := ms(100 - 50 - 10); got[0] != want {
		t.Errorf("root self = %v, want %v", got[0], want)
	}
	if got[3] != ms(30) {
		t.Errorf("a leaf's self time is its duration: got %v", got[3])
	}
}

func TestSelfTimeDisjointAndContainedChildren(t *testing.T) {
	// A child inside another child's interval adds nothing to the union.
	spans := []span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(10)},
		{ID: 2, Parent: 1, Start: ms(1), End: ms(8)},
		{ID: 3, Parent: 1, Start: ms(2), End: ms(3)},
	}
	if got := selfTimes(spans)[0]; got != ms(3) {
		t.Errorf("root self = %v, want 3ms", got)
	}
}

func TestTracerRecordsNesting(t *testing.T) {
	tr := newTracer()
	tr.begin("outer")
	tr.newGroup()
	tr.begin("inner")
	tr.end(5)
	tr.end(0)
	if len(tr.spans) != 2 {
		t.Fatalf("got %d spans", len(tr.spans))
	}
	outer, inner := tr.spans[0], tr.spans[1]
	if inner.Parent != outer.ID || outer.Parent != 0 || inner.Ops != 5 || inner.Group != 1 {
		t.Errorf("unexpected spans %+v %+v", outer, inner)
	}
	if inner.Start < outer.Start || inner.End > outer.End {
		t.Errorf("inner span %v..%v outside outer %v..%v", inner.Start, inner.End, outer.Start, outer.End)
	}

	var nilTracer *tracer // the untraced mode
	nilTracer.begin("x")
	if d := nilTracer.end(1); d != 0 {
		t.Errorf("nil tracer returned %v", d)
	}
}
