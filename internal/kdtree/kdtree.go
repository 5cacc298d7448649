// Package kdtree implements the multi-dimensional PASS partition trees of
// Section 4.4 / 5.4 of the paper: k-d trees with fanout 2^d whose leaves
// form the strata of the stratified sample.
//
// Build takes one of two construction policies:
//
//   - PolicyPASS (KD-PASS): greedy expansion — repeatedly split the leaf
//     whose approximate maximum query variance is largest, until the leaf
//     budget is exhausted, keeping leaf depths within a band of 2 as in the
//     paper's experiments.
//   - PolicyUniform (KD-US): the paper's baseline — always expand the
//     shallowest leaf (ties broken pseudo-randomly), producing a balanced
//     partitioning with no variance awareness.
//
// The max-variance score of a node uses the discretized estimators of
// Appendix A: for SUM/COUNT the half-split bound, for AVG the best
// δ-fraction chunk by sum of squares (the "second algorithm" of A.4).
package kdtree

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/ptree"
	"repro/internal/stats"
)

// Tree is a multi-dimensional PASS partition tree. It holds only the
// synopsis: what the MCF walk reads lives in flat node-indexed arrays, so a
// walk touches no per-node pointer. The build dataset and the leaves'
// tuple lists stay with the builder.
type Tree struct {
	// bounds is node-major: node i's bounding rectangle is Lo =
	// bounds[2·dims·i : 2·dims·i+dims], Hi = the dims values after it
	bounds []float64
	aggs   []ptree.Agg
	leafOf []int32 // dense leaf id, -1 for internal nodes
	// split creates a node's children back to back, so they are the ids
	// firstKid[i] … firstKid[i]+numKids[i]-1 (numKids 0 for a leaf)
	firstKid []int32
	numKids  []int32
	depth    []int32
	root     int
	leaves   []int
	dims     int
}

// builder is the construction state of a Tree: the dataset and, per node,
// the indices of its tuples (nil once the node is split).
type builder struct {
	*Tree
	data  *dataset.Dataset
	items [][]int
}

// rect returns a view of node id's bounding rectangle.
func (t *Tree) rect(id int) dataset.Rect {
	d := t.dims
	b := t.bounds[2*d*id : 2*d*(id+1)]
	return dataset.Rect{Lo: b[:d:d], Hi: b[d:]}
}

// Policy selects the expansion order during construction.
type Policy int

const (
	// PolicyPASS expands the leaf with the largest approximate maximum
	// query variance (KD-PASS).
	PolicyPASS Policy = iota
	// PolicyUniform expands the shallowest leaf (KD-US).
	PolicyUniform
)

// Options configures construction.
type Options struct {
	// MaxLeaves is the leaf budget k.
	MaxLeaves int
	// Kind selects the variance score used by PolicyPASS.
	Kind dataset.AggKind
	// Delta is the minimum meaningful query selectivity for the AVG score
	// (fraction of a node's items). Defaults to 0.05.
	Delta float64
	// DepthBand caps the difference between the deepest and shallowest
	// leaf (the paper uses 2). Defaults to 2.
	DepthBand int
	// Seed drives tie-breaking for PolicyUniform.
	Seed uint64
}

// Build constructs a k-d partition tree over d with the given policy. It
// also returns, per dense leaf id, the indices of the leaf's tuples in d —
// the strata a caller samples from; the tree itself keeps neither them nor
// d.
func Build(d *dataset.Dataset, policy Policy, opt Options) (*Tree, [][]int, error) {
	if d.N() == 0 {
		return nil, nil, fmt.Errorf("kdtree: empty dataset")
	}
	if opt.MaxLeaves < 1 {
		return nil, nil, fmt.Errorf("kdtree: MaxLeaves must be positive, got %d", opt.MaxLeaves)
	}
	if opt.Delta <= 0 {
		opt.Delta = 0.05
	}
	if opt.DepthBand <= 0 {
		opt.DepthBand = 2
	}
	t := &builder{Tree: &Tree{dims: d.Dims()}, data: d}
	all := make([]int, d.N())
	for i := range all {
		all[i] = i
	}
	t.root = t.newNode(all, 0)
	rng := stats.NewRNG(opt.Seed + 1)

	pq := &candHeap{}
	heap.Init(pq)
	push := func(id int) {
		var s float64
		switch policy {
		case PolicyPASS:
			s = t.nodeScore(id, opt.Kind, opt.Delta)
		default:
			// shallowest-first: lower depth = higher priority; jitter
			// breaks ties pseudo-randomly
			s = -float64(t.depth[id]) + rng.Float64()*0.5
		}
		heap.Push(pq, candHeapItem{id: id, score: s})
	}
	push(t.root)
	for t.countLeaves() < opt.MaxLeaves && pq.Len() > 0 {
		// respect the depth band: the candidate must not be deeper than
		// the shallowest splittable leaf + band
		minDepth := t.minSplittableDepth(pq)
		var picked *candHeapItem
		var deferred []candHeapItem
		for pq.Len() > 0 {
			c := heap.Pop(pq).(candHeapItem)
			if int(t.depth[c.id]) > minDepth+opt.DepthBand {
				deferred = append(deferred, c)
				continue
			}
			picked = &c
			break
		}
		for _, c := range deferred {
			heap.Push(pq, c)
		}
		if picked == nil {
			break
		}
		children := t.split(picked.id)
		if len(children) == 0 {
			continue // unsplittable (all points identical); drop from queue
		}
		for _, ch := range children {
			if len(t.items[ch]) > 1 {
				push(ch)
			}
		}
		if t.countLeaves() >= opt.MaxLeaves {
			break
		}
	}
	t.assignLeafIDs()
	leafItems := make([][]int, len(t.leaves))
	for i, id := range t.leaves {
		leafItems[i] = t.items[id]
	}
	return t.Tree, leafItems, nil
}

type candHeapItem struct {
	id    int
	score float64
}

type candHeap []candHeapItem

func (h candHeap) Len() int            { return len(h) }
func (h candHeap) Less(i, j int) bool  { return h[i].score > h[j].score }
func (h candHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x interface{}) { *h = append(*h, x.(candHeapItem)) }
func (h *candHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func (t *builder) newNode(items []int, depth int32) int {
	var a ptree.Agg
	id := len(t.aggs)
	for c := 0; c < t.dims; c++ {
		t.bounds = append(t.bounds, math.Inf(1))
	}
	for c := 0; c < t.dims; c++ {
		t.bounds = append(t.bounds, math.Inf(-1))
	}
	r := t.rect(id)
	lo, hi := r.Lo, r.Hi
	for _, i := range items {
		a.Add(t.data.Agg[i])
		for c := 0; c < t.dims; c++ {
			v := t.data.Pred[c][i]
			if v < lo[c] {
				lo[c] = v
			}
			if v > hi[c] {
				hi[c] = v
			}
		}
	}
	t.items = append(t.items, items)
	t.depth = append(t.depth, depth)
	t.aggs = append(t.aggs, a)
	t.leafOf = append(t.leafOf, -1)
	t.firstKid = append(t.firstKid, 0)
	t.numKids = append(t.numKids, 0)
	return id
}

// split divides a leaf node into up to 2^d children at the per-dimension
// medians of its items (the paper's simultaneous split). Empty cells are
// dropped; if every item lands in a single cell the node stays a leaf and
// nil is returned.
func (t *builder) split(id int) []int {
	items := t.items[id]
	if len(items) < 2 {
		return nil
	}
	med := make([]float64, t.dims)
	tmp := make([]float64, len(items))
	for c := 0; c < t.dims; c++ {
		col := t.data.Pred[c]
		for i, it := range items {
			tmp[i] = col[it]
		}
		// only the median is needed, so quickselect replaces the full sort
		med[c] = selectKth(tmp, len(tmp)/2)
	}
	cells := make(map[int][]int)
	for _, it := range items {
		key := 0
		for c := 0; c < t.dims; c++ {
			if t.data.Pred[c][it] >= med[c] {
				key |= 1 << c
			}
		}
		cells[key] = append(cells[key], it)
	}
	if len(cells) < 2 {
		return nil
	}
	keys := make([]int, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	children := make([]int, 0, len(keys))
	for _, k := range keys {
		children = append(children, t.newNode(cells[k], t.depth[id]+1))
	}
	t.firstKid[id], t.numKids[id] = int32(children[0]), int32(len(children))
	t.items[id] = nil
	return children
}

// selectKth returns the k-th smallest element (0-based) of a, partially
// reordering it — deterministic Hoare quickselect with median-of-three
// pivots, O(n) expected. Equivalent to sorting a and reading a[k].
func selectKth(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		// median-of-three pivot, moved to a[lo]
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return a[k]
		}
	}
	return a[k]
}

// nodeScore approximates the maximum query variance inside node id,
// following Appendix A's discretizations adapted to d dimensions.
func (t *builder) nodeScore(id int, kind dataset.AggKind, delta float64) float64 {
	items := t.items[id]
	n := len(items)
	if n < 2 {
		return 0
	}
	switch kind {
	case dataset.Count:
		return float64(n) / 4
	case dataset.Avg:
		w := int(delta * float64(n))
		if w < 1 {
			w = 1
		}
		if n < 2*w {
			return 0
		}
		maxSq := t.maxChunkSumSq(items, w)
		return float64(n) * maxSq / (float64(n) * float64(w) * float64(w))
	default: // SUM
		// half-split bound (Lemma A.3): score of the better half
		half := n / 2
		var s1, q1, s2, q2 float64
		for i, it := range items {
			v := t.data.Agg[it]
			if i < half {
				s1 += v
				q1 += v * v
			} else {
				s2 += v
				q2 += v * v
			}
		}
		v1 := (float64(n)*q1 - s1*s1) / float64(n)
		v2 := (float64(n)*q2 - s2*s2) / float64(n)
		if v1 > v2 {
			return v1
		}
		return v2
	}
}

// maxChunkSumSq splits items into contiguous chunks of w along the
// dimension with the widest spread and returns the largest chunk sum of
// squares — the d-dimensional analogue of the δm-window index (A.4).
func (t *builder) maxChunkSumSq(items []int, w int) float64 {
	// pick the dimension with the widest value range among the items
	bestDim, bestSpread := 0, -1.0
	for c := 0; c < t.dims; c++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		col := t.data.Pred[c]
		for _, it := range items {
			v := col[it]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if s := hi - lo; s > bestSpread {
			bestSpread, bestDim = s, c
		}
	}
	ordered := append([]int(nil), items...)
	col := t.data.Pred[bestDim]
	sort.Slice(ordered, func(a, b int) bool { return col[ordered[a]] < col[ordered[b]] })
	best, cur := 0.0, 0.0
	for i, it := range ordered {
		v := t.data.Agg[it]
		cur += v * v
		if i >= w {
			u := t.data.Agg[ordered[i-w]]
			cur -= u * u
		}
		if i >= w-1 && cur > best {
			best = cur
		}
	}
	return best
}

func (t *Tree) countLeaves() int {
	n := 0
	for _, k := range t.numKids {
		if k == 0 {
			n++
		}
	}
	return n
}

func (t *Tree) minSplittableDepth(pq *candHeap) int {
	min := 1 << 30
	for _, c := range *pq {
		if d := int(t.depth[c.id]); d < min {
			min = d
		}
	}
	if min == 1<<30 {
		return 0
	}
	return min
}

func (t *Tree) assignLeafIDs() {
	t.leaves = t.leaves[:0]
	for i, k := range t.numKids {
		if k == 0 {
			t.leafOf[i] = int32(len(t.leaves))
			t.leaves = append(t.leaves, i)
		}
	}
}

// NumLeaves returns the number of leaf partitions.
func (t *Tree) NumLeaves() int { return len(t.leaves) }

// NumNodes returns the total node count.
func (t *Tree) NumNodes() int { return len(t.aggs) }

// Dims returns the tree's predicate dimensionality.
func (t *Tree) Dims() int { return t.dims }

// Root returns the aggregates of the whole dataset.
func (t *Tree) Root() ptree.Agg { return t.aggs[t.root] }

// LeafAgg returns the aggregates of leaf id.
func (t *Tree) LeafAgg(leaf int) ptree.Agg { return t.aggs[t.leaves[leaf]] }

// Aggs returns every node's aggregates, indexed by node id — what the ids
// of a ptree.FrontierIDs resolve against. Read-only for callers.
func (t *Tree) Aggs() []ptree.Agg { return t.aggs }

// LeafIDs maps node id to dense leaf id (-1 for internal nodes); read-only.
func (t *Tree) LeafIDs() []int32 { return t.leafOf }

// LeafRect returns the bounding rectangle of leaf id.
func (t *Tree) LeafRect(leaf int) dataset.Rect { return t.rect(t.leaves[leaf]) }

// MaxLeafDepth returns the depth of the deepest leaf.
func (t *Tree) MaxLeafDepth() int {
	max := 0
	for _, id := range t.leaves {
		if d := int(t.depth[id]); d > max {
			max = d
		}
	}
	return max
}

// MinLeafDepth returns the depth of the shallowest leaf.
func (t *Tree) MinLeafDepth() int {
	min := 1 << 30
	for _, id := range t.leaves {
		if d := int(t.depth[id]); d < min {
			min = d
		}
	}
	return min
}

// MemoryBytes estimates the synopsis storage of the tree's aggregates and
// rectangles (samples are accounted separately by the engine).
func (t *Tree) MemoryBytes() int {
	return len(t.aggs) * (5 + 2*t.dims + 3) * 8
}

// Walk runs the MCF over a rectangular query and leaves the frontier's
// node ids in f. The query may constrain fewer dimensions than the tree
// (missing dimensions are unconstrained) or more (workload shift, Section
// 5.4.1): when the query constrains dimensions the tree does not index, no
// node can be certified as fully covered, so every intersecting leaf is
// returned as partial — the tree still provides data skipping for disjoint
// subtrees.
func (t *Tree) Walk(q dataset.Rect, zeroVarAsCovered bool, f *ptree.FrontierIDs) {
	t.WalkProjected(q, q.Dims() > t.dims, zeroVarAsCovered, f)
}

// WalkProjected runs the MCF with an explicit forcePartial flag: when
// true, no node is certified as fully covered even if the (projected)
// rectangle contains it — used when the original query constrains columns
// this tree does not index (arbitrary-template workload shift, Section
// 4.5), so coverage in the indexed columns does not imply coverage overall.
// The ids of fully covered nodes (0-variance nodes included when
// zeroVarAsCovered is set) and of partially overlapped leaves are appended
// to f in depth-first order. The walk is iterative over an explicit stack,
// so its goroutine's stack never grows with the tree.
func (t *Tree) WalkProjected(q dataset.Rect, forcePartial, zeroVarAsCovered bool, f *ptree.FrontierIDs) {
	d := t.dims
	shared := d
	if q.Dims() < shared {
		shared = q.Dims()
	}
	qlo, qhi := q.Lo[:shared], q.Hi[:shared]
	cover, partial := f.Cover[:0], f.Partial[:0]
	visited := 0
	stack := append(f.Stack[:0], int32(t.root))
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visited++
		b := t.bounds[2*d*int(id):][:2*d] // the node's Lo, then its Hi
		// classify on the shared dimensions
		disjoint, covered := false, true
		for c, lo := range qlo {
			hi := qhi[c]
			if b[d+c] < lo || b[c] > hi {
				disjoint = true
				break
			}
			if b[c] < lo || b[d+c] > hi {
				covered = false
			}
		}
		if disjoint {
			continue
		}
		if !forcePartial && (covered || (zeroVarAsCovered && t.aggs[id].ZeroVariance())) {
			cover = append(cover, id)
			continue
		}
		first, n := t.firstKid[id], t.numKids[id]
		if n == 0 {
			partial = append(partial, id)
			continue
		}
		// pushed last-to-first, so children pop in order: depth-first
		for k := first + n - 1; k >= first; k-- {
			stack = append(stack, k)
		}
	}
	f.Cover, f.Partial, f.Visited, f.Stack = cover, partial, visited, stack
}

// Frontier materializes the result of Walk: one entry per id, carrying the
// node's aggregates and bounding rectangle.
func (t *Tree) Frontier(q dataset.Rect, zeroVarAsCovered bool) ptree.Frontier {
	var ids ptree.FrontierIDs
	t.Walk(q, zeroVarAsCovered, &ids)
	f := ptree.Frontier{Visited: ids.Visited}
	for _, id := range ids.Cover {
		f.Cover = append(f.Cover, ptree.CoverEntry{Node: int(id), Agg: t.aggs[id], Rect: t.rect(int(id))})
	}
	for _, id := range ids.Partial {
		f.Partial = append(f.Partial, ptree.PartialEntry{Leaf: int(t.leafOf[id]), Agg: t.aggs[id], Rect: t.rect(int(id))})
	}
	return f
}

// CheckInvariants verifies that every internal node's aggregates merge
// consistently from its children's.
func (t *Tree) CheckInvariants() error {
	for id, agg := range t.aggs {
		if t.numKids[id] == 0 {
			continue
		}
		var merged ptree.Agg
		total := 0
		first := int(t.firstKid[id])
		for ch := first; ch < first+int(t.numKids[id]); ch++ {
			merged.Merge(t.aggs[ch])
			total += t.aggs[ch].N
		}
		if total != agg.N || merged.Min != agg.Min || merged.Max != agg.Max {
			return fmt.Errorf("kdtree: node %d aggregates inconsistent with children", id)
		}
	}
	return nil
}
