// Package ptree implements the PASS partition tree for one predicate
// dimension: a balanced binary tree built bottom-up over an optimised leaf
// partitioning, with SUM/COUNT/MIN/MAX aggregates at every node
// (Section 3.2 of the paper), the Minimal Coverage Frontier algorithm
// (Algorithm 1), the 0-variance rule, and O(height) statistics maintenance
// under inserts and deletes.
//
// The shared Agg and Frontier types defined here are also used by the
// multi-dimensional trees in package kdtree and by the query engine in
// package core.
package ptree

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/parallel"
	"repro/internal/partition"
)

// Agg is the per-partition aggregate record: the four statistics PASS
// precomputes for every node, plus the sum of squares (used by the
// 0-variance rule and by delta-encoded sample compression).
type Agg struct {
	N          int
	Sum, SumSq float64
	Min, Max   float64
}

// Add folds one value into the record.
func (a *Agg) Add(v float64) {
	a.N++
	a.Sum += v
	a.SumSq += v * v
	if a.N == 1 {
		a.Min, a.Max = v, v
		return
	}
	if v < a.Min {
		a.Min = v
	}
	if v > a.Max {
		a.Max = v
	}
}

// Merge folds other into a (mergeable-summary property).
func (a *Agg) Merge(other Agg) {
	if other.N == 0 {
		return
	}
	if a.N == 0 {
		*a = other
		return
	}
	a.N += other.N
	a.Sum += other.Sum
	a.SumSq += other.SumSq
	if other.Min < a.Min {
		a.Min = other.Min
	}
	if other.Max > a.Max {
		a.Max = other.Max
	}
}

// Avg returns Sum/N, or 0 for an empty record.
func (a Agg) Avg() float64 {
	if a.N == 0 {
		return 0
	}
	return a.Sum / float64(a.N)
}

// Var returns the population variance implied by the record.
func (a Agg) Var() float64 {
	if a.N < 2 {
		return 0
	}
	mean := a.Sum / float64(a.N)
	v := a.SumSq/float64(a.N) - mean*mean
	if v < 0 {
		return 0
	}
	return v
}

// ZeroVariance reports whether every value in the partition is identical
// (min == max), the trigger of the paper's 0-variance rule.
func (a Agg) ZeroVariance() bool { return a.N > 0 && a.Min == a.Max }

// CoverEntry is one fully covered node returned by the MCF: its aggregates
// can be used directly.
type CoverEntry struct {
	// Node is the node id inside the owning tree.
	Node int
	Agg  Agg
	// Rect is the node's bounding rectangle in predicate space.
	Rect dataset.Rect
}

// PartialEntry is one partially covered leaf returned by the MCF: its
// stratified sample must be consulted.
type PartialEntry struct {
	// Leaf is the leaf id (dense, 0..NumLeaves-1).
	Leaf int
	Agg  Agg
	// Rect is the leaf's bounding rectangle in predicate space.
	Rect dataset.Rect
}

// Frontier is the result of the Minimal Coverage Frontier search.
type Frontier struct {
	Cover   []CoverEntry
	Partial []PartialEntry
	// Visited counts tree nodes touched, for latency accounting.
	Visited int
}

// CoverAgg merges the aggregates of all fully covered nodes.
func (f Frontier) CoverAgg() Agg {
	var a Agg
	for _, c := range f.Cover {
		a.Merge(c.Agg)
	}
	return a
}

// FrontierIDs is the Minimal Coverage Frontier at node-id level: the ids
// of the fully covered nodes and of the partially overlapped leaves, each
// in depth-first order, as one iterative walk appends them. Walk resets
// it, so a caller that keeps one across queries (the query scratch of
// package core) walks without allocating once the slices have grown; the
// zero value is ready to use. Ids index the owning tree's Aggs and LeafIDs.
type FrontierIDs struct {
	Cover, Partial []int32
	// Visited counts tree nodes touched, for latency accounting.
	Visited int
	// Stack is the walk's explicit stack (empty between walks).
	Stack []int32
}

// node holds the per-node fields no query reads: the index range in the
// sorted dataset and the parent link of the update path.
type node struct {
	iLo, iHi int
	parent   int
}

// Tree is a 1D PASS partition tree. What the MCF walk reads lives in flat
// node-indexed arrays, so a walk touches no per-node pointer.
type Tree struct {
	nodes  []node
	bounds []float64 // node i spans the values [bounds[2i], bounds[2i+1]]
	aggs   []Agg
	leafOf []int32 // dense leaf id, -1 for internal nodes
	// node i's children are kids[kidOff[i]:kidOff[i+1]] (none for a leaf)
	kids   []int32
	kidOff []int32
	root   int
	leaves []int // leaf id -> node id
}

func newTree() *Tree { return &Tree{kidOff: []int32{0}} }

// addNode appends one node with the given children and returns its id.
func (t *Tree) addNode(lo, hi float64, iLo, iHi int, agg Agg, children []int) int {
	id := len(t.nodes)
	leaf := int32(-1)
	if len(children) == 0 {
		leaf = int32(len(t.leaves))
		t.leaves = append(t.leaves, id)
	}
	for _, c := range children {
		t.kids = append(t.kids, int32(c))
		t.nodes[c].parent = id
	}
	t.nodes = append(t.nodes, node{iLo: iLo, iHi: iHi, parent: -1})
	t.bounds = append(t.bounds, lo, hi)
	t.aggs = append(t.aggs, agg)
	t.leafOf = append(t.leafOf, leaf)
	t.kidOff = append(t.kidOff, int32(len(t.kids)))
	return id
}

func (t *Tree) children(id int) []int32 { return t.kids[t.kidOff[id]:t.kidOff[id+1]] }

// Build constructs the tree over d (which must be sorted by predicate
// column 0) using the given leaf partitioning. Empty partitions are
// dropped. The tree is built bottom-up by pairing adjacent nodes, so its
// height is ceil(log2(k)).
func Build(d *dataset.Dataset, p partition.Partitioning) (*Tree, error) {
	return BuildFanout(d, p, 2)
}

// BuildFanout builds the tree with the given fanout (children per
// internal node). Per Section 4.1 of the paper, the leaf partitioning
// alone governs estimation error; fanout trades tree height (MCF node
// visits per query) against per-level branching, so it only moves
// construction time and query latency — the fanout ablation bench
// measures exactly that.
func BuildFanout(d *dataset.Dataset, p partition.Partitioning, fanout int) (*Tree, error) {
	if fanout < 2 {
		return nil, fmt.Errorf("ptree: fanout must be at least 2, got %d", fanout)
	}
	if err := p.Validate(d.N()); err != nil {
		return nil, err
	}
	if d.Dims() < 1 {
		return nil, fmt.Errorf("ptree: dataset has no predicate column")
	}
	t := newTree()
	col := d.Pred[0]
	// leaf layer: partition aggregates are independent, so they are
	// computed by the worker pool before the nodes are assembled in order
	type span struct{ lo, hi int }
	spans := make([]span, 0, p.K())
	for i := 0; i < p.K(); i++ {
		lo, hi := p.Bounds(i)
		if lo == hi {
			continue
		}
		spans = append(spans, span{lo, hi})
	}
	aggs := make([]Agg, len(spans))
	parallel.For(len(spans), func(i int) {
		var a Agg
		for j := spans[i].lo; j < spans[i].hi; j++ {
			a.Add(d.Agg[j])
		}
		aggs[i] = a
	})
	var layer []int
	for i, sp := range spans {
		layer = append(layer, t.addNode(col[sp.lo], col[sp.hi-1], sp.lo, sp.hi, aggs[i], nil))
	}
	if len(layer) == 0 {
		return nil, fmt.Errorf("ptree: empty dataset")
	}
	t.buildUp(layer, fanout)
	return t, nil
}

// buildUp assembles internal levels bottom-up, grouping fanout adjacent
// nodes per parent; a trailing group of one is promoted unchanged.
func (t *Tree) buildUp(layer []int, fanout int) {
	for len(layer) > 1 {
		var next []int
		for i := 0; i < len(layer); i += fanout {
			end := i + fanout
			if end > len(layer) {
				end = len(layer)
			}
			if end-i == 1 {
				next = append(next, layer[i])
				continue
			}
			group := layer[i:end]
			var a Agg
			for _, c := range group {
				a.Merge(t.aggs[c])
			}
			first, last := group[0], group[len(group)-1]
			next = append(next, t.addNode(t.bounds[2*first], t.bounds[2*last+1],
				t.nodes[first].iLo, t.nodes[last].iHi, a, group))
		}
		layer = next
	}
	t.root = layer[0]
}

// NumLeaves returns the number of leaf partitions.
func (t *Tree) NumLeaves() int { return len(t.leaves) }

// NumNodes returns the total node count.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// Height returns the tree height (root = 0 for a single-node tree).
func (t *Tree) Height() int {
	h := 0
	id := t.root
	for t.leafOf[id] < 0 {
		id = int(t.children(id)[0])
		h++
	}
	return h
}

// Root returns the aggregates of the whole dataset.
func (t *Tree) Root() Agg { return t.aggs[t.root] }

// LeafAgg returns the aggregates of leaf id.
func (t *Tree) LeafAgg(leaf int) Agg { return t.aggs[t.leaves[leaf]] }

// Aggs returns every node's aggregates, indexed by node id — what the ids
// of a FrontierIDs resolve against. The slice is the tree's own: read-only
// for callers, and updated in place by ApplyInsert/ApplyDelete.
func (t *Tree) Aggs() []Agg { return t.aggs }

// LeafIDs maps node id to dense leaf id (-1 for internal nodes); read-only.
func (t *Tree) LeafIDs() []int32 { return t.leafOf }

// LeafIndexRange returns the sorted-data index range [lo, hi) of leaf id.
func (t *Tree) LeafIndexRange(leaf int) (lo, hi int) {
	n := t.nodes[t.leaves[leaf]]
	return n.iLo, n.iHi
}

// LeafValueRange returns the predicate-value range [lo, hi] of leaf id.
func (t *Tree) LeafValueRange(leaf int) (lo, hi float64) {
	id := t.leaves[leaf]
	return t.bounds[2*id], t.bounds[2*id+1]
}

// MemoryBytes estimates the resident size of the tree's aggregates: the
// synopsis storage attributable to precomputation.
func (t *Tree) MemoryBytes() int {
	// per node: 6 float64/int fields of 8 bytes that constitute the
	// synopsis payload (ranges + aggregates)
	return len(t.nodes) * 10 * 8
}

// Walk runs the Minimal Coverage Frontier search (Algorithm 1) for the
// interval query [q.Lo[0], q.Hi[0]] and leaves its result in f: the ids of
// the fully covered nodes and of the partially overlapped leaves, in
// depth-first order. When zeroVarAsCovered is true, the 0-variance rule is
// applied: partially covered nodes whose values are all identical are
// classified as covered (valid for AVG queries; also valid for SUM when
// the constant is 0). The walk is iterative over an explicit stack, so its
// goroutine's stack never grows with the tree.
func (t *Tree) Walk(q dataset.Rect, zeroVarAsCovered bool, f *FrontierIDs) {
	qlo, qhi := q.Lo[0], q.Hi[0]
	f.Cover, f.Partial = f.Cover[:0], f.Partial[:0]
	visited := 0
	stack := append(f.Stack[:0], int32(t.root))
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visited++
		lo, hi := t.bounds[2*id], t.bounds[2*id+1]
		if hi < qlo || lo > qhi {
			continue // R_none
		}
		// fully covered nodes contribute their exact partial aggregate; by
		// the 0-variance rule (Section 3.4) a node whose values are all
		// identical behaves as covered for AVG — leaves (skipping their
		// sample scan) and internal nodes alike
		if (qlo <= lo && hi <= qhi) || (zeroVarAsCovered && t.aggs[id].ZeroVariance()) {
			f.Cover = append(f.Cover, id)
			continue
		}
		if t.leafOf[id] >= 0 { // leaf with partial overlap
			f.Partial = append(f.Partial, id)
			continue
		}
		// pushed last-to-first, so children pop in order: depth-first
		kids := t.children(int(id))
		for k := len(kids) - 1; k >= 0; k-- {
			stack = append(stack, kids[k])
		}
	}
	f.Visited, f.Stack = visited, stack
}

// Frontier materializes the result of Walk: one entry per id, carrying the
// node's aggregates and value range.
func (t *Tree) Frontier(q dataset.Rect, zeroVarAsCovered bool) Frontier {
	var ids FrontierIDs
	t.Walk(q, zeroVarAsCovered, &ids)
	f := Frontier{Visited: ids.Visited}
	for _, id := range ids.Cover {
		f.Cover = append(f.Cover, CoverEntry{Node: int(id), Agg: t.aggs[id], Rect: t.span(id)})
	}
	for _, id := range ids.Partial {
		f.Partial = append(f.Partial, PartialEntry{Leaf: int(t.leafOf[id]), Agg: t.aggs[id], Rect: t.span(id)})
	}
	return f
}

// span returns node id's value range as a fresh 1-D rectangle.
func (t *Tree) span(id int32) dataset.Rect { return dataset.Rect1(t.bounds[2*id], t.bounds[2*id+1]) }

// LocateLeaf returns the leaf whose value range contains v, or the nearest
// leaf when v falls outside all ranges (for dynamic inserts).
func (t *Tree) LocateLeaf(v float64) int {
	id := int32(t.root)
	for t.leafOf[id] < 0 {
		children := t.children(int(id))
		next := children[len(children)-1]
		for _, c := range children {
			if v <= t.bounds[2*c+1] {
				next = c
				break
			}
		}
		id = next
	}
	return int(t.leafOf[id])
}

// ApplyInsert records a new tuple with predicate key and aggregate value
// landing in leaf, updating SUM/COUNT/MIN/MAX/SUMSQ along the
// leaf-to-root path in O(height) (Section 4.5, dynamic updates). Each
// node on the path widens its value range to take key: Walk classifies
// nodes by those ranges, so a key outside them would be missed by a query
// that reaches only it and counted by one that covers the node without
// covering the key. Siblings stay disjoint, since LocateLeaf sends a key
// between two leaves to the right-hand one, whose low end then moves.
func (t *Tree) ApplyInsert(leaf int, key, value float64) {
	id := t.leaves[leaf]
	for id >= 0 {
		t.aggs[id].Add(value)
		t.bounds[2*id] = min(t.bounds[2*id], key)
		t.bounds[2*id+1] = max(t.bounds[2*id+1], key)
		id = t.nodes[id].parent
	}
}

// ApplyDelete removes one tuple with the given value from leaf. SUM, COUNT
// and SUMSQ are updated exactly; MIN/MAX are left untouched, which keeps
// them conservative (hard bounds remain supersets of the truth).
func (t *Tree) ApplyDelete(leaf int, value float64) error {
	id := t.leaves[leaf]
	if t.aggs[id].N == 0 {
		return fmt.Errorf("ptree: delete from empty leaf %d", leaf)
	}
	for id >= 0 {
		a := &t.aggs[id]
		a.N--
		a.Sum -= value
		a.SumSq -= value * value
		if a.SumSq < 0 {
			a.SumSq = 0
		}
		id = t.nodes[id].parent
	}
	return nil
}

// CheckInvariants verifies the partition-tree definition (Definition 3.1):
// children contained in and spanning their parent, siblings disjoint by
// index range, and aggregates consistent with the merge of the children.
// It returns the first violation found, or nil.
func (t *Tree) CheckInvariants() error {
	for id, n := range t.nodes {
		children := t.children(id)
		if len(children) == 0 {
			continue
		}
		first := t.nodes[children[0]]
		last := t.nodes[children[len(children)-1]]
		if first.iLo != n.iLo || last.iHi != n.iHi {
			return fmt.Errorf("ptree: node %d children do not span parent", id)
		}
		var merged Agg
		prevHi := first.iLo
		for _, cid := range children {
			c := t.nodes[cid]
			if c.iLo != prevHi {
				return fmt.Errorf("ptree: node %d children not contiguous", id)
			}
			if c.iHi <= c.iLo {
				return fmt.Errorf("ptree: node %d has an empty child", id)
			}
			prevHi = c.iHi
			merged.Merge(t.aggs[cid])
		}
		agg := t.aggs[id]
		if merged.N != agg.N ||
			math.Abs(merged.Sum-agg.Sum) > 1e-6*(1+math.Abs(agg.Sum)) ||
			merged.Min != agg.Min || merged.Max != agg.Max {
			return fmt.Errorf("ptree: node %d aggregates inconsistent with children", id)
		}
	}
	return nil
}
