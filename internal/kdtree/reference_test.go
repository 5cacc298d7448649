package kdtree

// The builder as it was before the in-place partition: per-node index
// lists, a map of cells per split, a quickselect per dimension over a
// gathered copy, and a gather of every column per new node.
// FuzzBuildMatchesReference holds Build to it byte for byte.

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/ptree"
	"repro/internal/stats"
)

// refBuilder is the construction state of a Tree: the dataset and, per node,
// the indices of its tuples (nil once the node is split).
type refBuilder struct {
	*Tree
	data  *dataset.Dataset
	items [][]int
}

// referenceBuild constructs a k-d partition tree over d with the given policy. It
// also returns, per dense leaf id, the indices of the leaf's tuples in d —
// the strata a caller samples from; the tree itself keeps neither them nor
// d.
func referenceBuild(d *dataset.Dataset, policy Policy, opt Options) (*Tree, [][]int, error) {
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
	t := &refBuilder{Tree: &Tree{dims: d.Dims()}, data: d}
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

func (t *refBuilder) newNode(items []int, depth int32) int {
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
func (t *refBuilder) split(id int) []int {
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
		med[c] = refSelectKth(tmp, len(tmp)/2)
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

// refSelectKth returns the k-th smallest element (0-based) of a, partially
// reordering it — deterministic Hoare quickselect with median-of-three
// pivots, O(n) expected. Equivalent to sorting a and reading a[k].
func refSelectKth(a []float64, k int) float64 {
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
func (t *refBuilder) nodeScore(id int, kind dataset.AggKind, delta float64) float64 {
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
func (t *refBuilder) maxChunkSumSq(items []int, w int) float64 {
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
