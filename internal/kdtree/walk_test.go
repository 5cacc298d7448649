package kdtree

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ptree"
	"repro/internal/stats"
)

// refWalk is the recursive MCF the iterative walk replaced, kept as its
// reference: same classification rules, ids appended on the way down.
func refWalk(t *Tree, id int, q dataset.Rect, extra, zeroVar bool, f *ptree.FrontierIDs) {
	f.Visited++
	r := t.rect(id)
	shared := min(t.dims, q.Dims())
	disjoint, covered := false, true
	for c := 0; c < shared; c++ {
		if r.Hi[c] < q.Lo[c] || r.Lo[c] > q.Hi[c] {
			disjoint = true
			break
		}
		if r.Lo[c] < q.Lo[c] || r.Hi[c] > q.Hi[c] {
			covered = false
		}
	}
	if disjoint {
		return
	}
	if !extra && (covered || (zeroVar && t.aggs[id].ZeroVariance())) {
		f.Cover = append(f.Cover, int32(id))
		return
	}
	if t.numKids[id] == 0 {
		f.Partial = append(f.Partial, int32(id))
		return
	}
	for ch := int(t.firstKid[id]); ch < int(t.firstKid[id]+t.numKids[id]); ch++ {
		refWalk(t, ch, q, extra, zeroVar, f)
	}
}

// TestWalkMatchesRecursiveReference holds the iterative walk to the
// recursive one — same ids, same depth-first order, same visit count —
// over full, narrower (workload shift) and wider queries, with and without
// the 0-variance rule and the forced-partial flag, on one reused
// FrontierIDs; and Frontier to the expansion of those ids.
func TestWalkMatchesRecursiveReference(t *testing.T) {
	_, tr, _ := buildTaxi(t, 3, 64, PolicyPASS)
	rng := stats.NewRNG(17)
	var got ptree.FrontierIDs
	for trial := 0; trial < 400; trial++ {
		q := randomRect(rng, 1+trial%4) // 1–4 query dimensions against a 3-D tree
		if trial%7 == 0 {
			q.Lo[0], q.Hi[0] = math.Inf(-1), math.Inf(1)
		}
		zeroVar, force := trial%2 == 1, trial%5 == 0
		var want ptree.FrontierIDs
		refWalk(tr, tr.root, q, force, zeroVar, &want)
		tr.WalkProjected(q, force, zeroVar, &got)
		if !slices.Equal(got.Cover, want.Cover) || !slices.Equal(got.Partial, want.Partial) || got.Visited != want.Visited {
			t.Fatalf("trial %d %v: walk (%v, %v, %d visited), recursive reference (%v, %v, %d visited)",
				trial, q, got.Cover, got.Partial, got.Visited, want.Cover, want.Partial, want.Visited)
		}
		if len(got.Stack) != 0 {
			t.Fatalf("trial %d: walk left %d ids on its stack", trial, len(got.Stack))
		}
		tr.Walk(q, zeroVar, &got)
		f := tr.Frontier(q, zeroVar)
		if f.Visited != got.Visited || len(f.Cover) != len(got.Cover) || len(f.Partial) != len(got.Partial) {
			t.Fatalf("trial %d: Frontier has %d+%d entries over %d nodes, Walk %d+%d over %d",
				trial, len(f.Cover), len(f.Partial), f.Visited, len(got.Cover), len(got.Partial), got.Visited)
		}
		for i, id := range got.Cover {
			if c := f.Cover[i]; c.Node != int(id) || c.Agg != tr.Aggs()[id] || !slices.Equal(c.Rect.Lo, tr.rect(int(id)).Lo) {
				t.Fatalf("trial %d: cover entry %d is %+v, want node %d", trial, i, c, id)
			}
		}
		for i, id := range got.Partial {
			leaf := int(tr.LeafIDs()[id])
			if p := f.Partial[i]; p.Leaf != leaf || p.Agg != tr.LeafAgg(leaf) || !slices.Equal(p.Rect.Hi, tr.LeafRect(leaf).Hi) {
				t.Fatalf("trial %d: partial entry %d is %+v, want leaf %d", trial, i, p, leaf)
			}
		}
	}
}
