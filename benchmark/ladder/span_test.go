package main

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeIsSpanMinusChildCoverage(t *testing.T) {
	spans := []Span{
		// request 0: real nesting, with two children that overlap
		{Name: "top", Request: 0, StartNS: 0, EndNS: 100},
		{Name: "a", Parent: "top", Request: 0, StartNS: 10, EndNS: 40},
		{Name: "b", Parent: "top", Request: 0, StartNS: 30, EndNS: 60}, // overlaps a: union is 10..60
		{Name: "leaf", Parent: "a", Request: 0, StartNS: 15, EndNS: 20},
		// request 1: the ladder's shape, children measured after the parent
		{Name: "top", Request: 1, StartNS: 1000, EndNS: 1100},
		{Name: "a", Parent: "top", Request: 1, StartNS: 2000, EndNS: 2060},
		{Name: "b", Parent: "top", Request: 1, StartNS: 3000, EndNS: 3030},
		// a span of request 1 must not count as a child in request 0
	}
	want := []int64{
		50, // top(0): 100 - union(10..60)
		25, // a(0): 30 - leaf 5
		30, // b(0)
		5,  // leaf
		10, // top(1): 100 - (60 + 30)
		60, // a(1)
		30, // b(1)
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s (request %d) = %d, want %d", spans[i].Name, spans[i].Request, got[i], want[i])
		}
	}
}

func TestSelfTimeCanBeNegative(t *testing.T) {
	// children measured on their own may add up to more than the parent
	spans := []Span{
		{Name: "top", Request: 0, StartNS: 0, EndNS: 10},
		{Name: "a", Parent: "top", Request: 0, StartNS: 20, EndNS: 32},
	}
	if got := selfTimes(spans)[0]; got != -2 {
		t.Errorf("self = %d, want -2: noise is reported, not clamped", got)
	}
}

func TestCoveredMergesNestedAndDisjointIntervals(t *testing.T) {
	spans := []Span{{StartNS: 50, EndNS: 60}, {StartNS: 0, EndNS: 30}, {StartNS: 5, EndNS: 10}, {StartNS: 30, EndNS: 35}}
	if got := covered(spans); got != 45 { // 0..35 and 50..60
		t.Errorf("covered = %d, want 45", got)
	}
	if got := covered(nil); got != 0 {
		t.Errorf("covered(nil) = %d", got)
	}
}

func TestClimbInterleavesRungsPerChunk(t *testing.T) {
	tr := tracer{t0: time.Now()}
	var order []string
	tr.add("top", "", func(i int) { order = append(order, fmt.Sprint("top", i)) })
	tr.add("low", "top", func(i int) { order = append(order, fmt.Sprint("low", i)) })
	tr.climb(5, 2)
	want := "top0 top1 low0 low1 top2 top3 low2 low3 top4 low4"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("execution order %q, want %q", got, want)
	}
	if len(tr.spans) != 6 || len(tr.pending) != 0 {
		t.Fatalf("%d spans, %d rungs still queued; want 6 and 0", len(tr.spans), len(tr.pending))
	}
	for i, want := range []Span{
		{Name: "top", Request: 0, Ops: 2}, {Name: "low", Parent: "top", Request: 0, Ops: 2},
		{Name: "top", Request: 1, Ops: 2}, {Name: "low", Parent: "top", Request: 1, Ops: 2},
		{Name: "top", Request: 2, Ops: 1}, {Name: "low", Parent: "top", Request: 2, Ops: 1},
	} {
		s := tr.spans[i]
		if s.Name != want.Name || s.Parent != want.Parent || s.Request != want.Request || s.Ops != want.Ops || s.EndNS < s.StartNS {
			t.Errorf("span %d = %+v, want %+v", i, s, want)
		}
		if i > 0 && s.StartNS < tr.spans[i-1].EndNS {
			t.Errorf("span %d starts before span %d ends", i, i-1)
		}
	}
}

func TestPerOpIsMedianOverChunks(t *testing.T) {

	spans := []Span{
		{Name: "r", Request: 0, StartNS: 0, EndNS: 1000, Ops: 100}, // 10 ns/op
		{Name: "r", Request: 1, StartNS: 0, EndNS: 3000, Ops: 100}, // 30
		{Name: "r", Request: 2, StartNS: 0, EndNS: 1000, Ops: 50},  // 20
		{Name: "other", Request: 0, StartNS: 0, EndNS: 99, Ops: 1}, // ignored
		{Name: "c", Parent: "r", Request: 1, StartNS: 0, EndNS: 1000, Ops: 100},
	}
	self := selfTimes(spans)
	if got := perOp(spans, self, "r", false); got != 20 {
		t.Errorf("median ns/op = %v, want 20", got)
	}
	if got := perOp(spans, self, "r", true); got != 20 { // selfs per op: 10, 20, 20
		t.Errorf("median self ns/op = %v, want 20", got)
	}
	if got := perOp(spans, self, "absent", false); got != 0 {
		t.Errorf("a rung that did not run = %v, want 0", got)
	}
}
