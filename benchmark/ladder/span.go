package main

import (
	"sort"
	"time"
)

// Span is one timed call into a layer's public functions, made from the
// benchmark's own code. The ladder executes the same operations at every
// layer boundary, one rung after another, so a span's parent is logical —
// the rung that would have made this call inside a real request — and the
// child's interval lies after the parent's, not inside it. Request ties
// together the spans that executed the same chunk of operations; Ops is
// how many operations the chunk holds.
type Span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Request int    `json:"request"`
	StartNS int64  `json:"start_ns"` // since the ladder started
	EndNS   int64  `json:"end_ns"`
	Ops     int    `json:"ops"`
}

func (s Span) duration() int64 { return s.EndNS - s.StartNS }

// tracer keeps spans in memory until the ladder ends.
type tracer struct {
	t0      time.Time
	spans   []Span
	pending []rung
}

// rung is one layer boundary: fn executes operation i there.
type rung struct {
	name, parent string
	fn           func(i int)
}

// add queues a rung for the next climb.
func (t *tracer) add(name, parent string, fn func(i int)) {
	t.pending = append(t.pending, rung{name, parent, fn})
}

// climb executes operations 0..n-1 at every queued rung, in the order the
// rungs were added, and empties the queue. The operations are taken in
// chunks, and on each chunk all rungs run back to back, one span per rung
// and chunk: the host's speed changes by the second, so rungs that are
// subtracted from each other must be measured within the same
// milliseconds. Timing a chunk rather than a call keeps the two clock
// reads small against rungs that take well under a microsecond.
func (t *tracer) climb(n, chunk int) {
	for req, lo := 0, 0; lo < n; req, lo = req+1, lo+chunk {
		hi := min(lo+chunk, n)
		for _, r := range t.pending {
			start := time.Since(t.t0)
			for i := lo; i < hi; i++ {
				r.fn(i)
			}
			end := time.Since(t.t0)
			t.spans = append(t.spans, Span{r.name, r.parent, req, start.Nanoseconds(), end.Nanoseconds(), hi - lo})
		}
	}
	t.pending = nil
}

// selfTimes returns, for each span, its duration minus the part of the
// timeline its direct children cover: children are the spans of the same
// request whose Parent is this span's name, and what they cover is the
// union of their intervals, so overlapping children are not counted
// twice. A negative result means the children, measured on their own,
// took longer than the call that contains them — measurement noise, or
// work the parent runs in parallel.
func selfTimes(spans []Span) []int64 {
	type key struct {
		request int
		parent  string
	}
	children := map[key][]Span{}
	for _, s := range spans {
		if s.Parent != "" {
			k := key{s.Request, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.duration() - covered(children[key{s.Request, s.Name}])
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(spans []Span) int64 {
	sorted := append([]Span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].StartNS < sorted[j].StartNS })
	var total, end int64
	for i, s := range sorted {
		if i == 0 || s.StartNS > end {
			total += s.duration()
			end = s.EndNS
		} else if s.EndNS > end {
			total += s.EndNS - end
			end = s.EndNS
		}
	}
	return total
}

// perOp is the median over a rung's chunks of value/ops, where value is
// each span's duration (self false) or self time (self true), in
// nanoseconds per operation; 0 when the rung did not run.
func perOp(spans []Span, self []int64, name string, useSelf bool) float64 {
	var v []float64
	for i, s := range spans {
		if s.Name != name || s.Ops == 0 {
			continue
		}
		x := s.duration()
		if useSelf {
			x = self[i]
		}
		v = append(v, float64(x)/float64(s.Ops))
	}
	return median(v)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
