package ptree

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/partition"
	"repro/internal/stats"
)

// refWalk is the recursive MCF the iterative walk replaced, kept as its
// reference: same classification rules, ids appended on the way down.
func refWalk(t *Tree, id int32, qlo, qhi float64, zeroVar bool, f *FrontierIDs) {
	f.Visited++
	lo, hi := t.bounds[2*id], t.bounds[2*id+1]
	if hi < qlo || lo > qhi {
		return
	}
	if (qlo <= lo && hi <= qhi) || (zeroVar && t.aggs[id].ZeroVariance()) {
		f.Cover = append(f.Cover, id)
		return
	}
	if t.leafOf[id] >= 0 {
		f.Partial = append(f.Partial, id)
		return
	}
	for _, c := range t.children(int(id)) {
		refWalk(t, c, qlo, qhi, zeroVar, f)
	}
}

// TestWalkMatchesRecursiveReference holds the iterative walk to the
// recursive one — same ids, same depth-first order, same visit count — on
// binary and wider trees (whose last group may promote a lone node), with
// and without the 0-variance rule, on one reused FrontierIDs; and Frontier
// to the expansion of those ids.
func TestWalkMatchesRecursiveReference(t *testing.T) {
	d := dataset.GenUniform(3000, 1, 100, 19)
	for i := 600; i < 900; i++ {
		d.Agg[i] = 7 // a constant stretch, so the 0-variance rule has nodes to fire on
	}
	rng := stats.NewRNG(23)
	var got FrontierIDs
	for _, fanout := range []int{2, 3, 5} {
		tr, err := BuildFanout(d, partition.EqualDepth(d.N(), 37), fanout)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 300; trial++ {
			a, b := rng.Float64(), rng.Float64()
			q := dataset.Rect1(math.Min(a, b), math.Max(a, b))
			if trial%11 == 0 {
				q.Lo[0] = math.Inf(-1)
			}
			zeroVar := trial%2 == 1
			var want FrontierIDs
			refWalk(tr, int32(tr.root), q.Lo[0], q.Hi[0], zeroVar, &want)
			tr.Walk(q, zeroVar, &got)
			if !slices.Equal(got.Cover, want.Cover) || !slices.Equal(got.Partial, want.Partial) || got.Visited != want.Visited {
				t.Fatalf("fanout %d %v: walk (%v, %v, %d visited), recursive reference (%v, %v, %d visited)",
					fanout, q, got.Cover, got.Partial, got.Visited, want.Cover, want.Partial, want.Visited)
			}
			if len(got.Stack) != 0 {
				t.Fatalf("fanout %d: walk left %d ids on its stack", fanout, len(got.Stack))
			}
			f := tr.Frontier(q, zeroVar)
			if f.Visited != got.Visited || len(f.Cover) != len(got.Cover) || len(f.Partial) != len(got.Partial) {
				t.Fatalf("fanout %d: Frontier has %d+%d entries over %d nodes, Walk %d+%d over %d",
					fanout, len(f.Cover), len(f.Partial), f.Visited, len(got.Cover), len(got.Partial), got.Visited)
			}
			for i, id := range got.Cover {
				if c := f.Cover[i]; c.Node != int(id) || c.Agg != tr.Aggs()[id] || c.Rect.Lo[0] != tr.bounds[2*id] || c.Rect.Hi[0] != tr.bounds[2*id+1] {
					t.Fatalf("fanout %d: cover entry %d is %+v, want node %d", fanout, i, c, id)
				}
			}
			for i, id := range got.Partial {
				leaf := int(tr.LeafIDs()[id])
				lo, hi := tr.LeafValueRange(leaf)
				if p := f.Partial[i]; p.Leaf != leaf || p.Agg != tr.LeafAgg(leaf) || p.Rect.Lo[0] != lo || p.Rect.Hi[0] != hi {
					t.Fatalf("fanout %d: partial entry %d is %+v, want leaf %d", fanout, i, p, leaf)
				}
			}
		}
	}
}
