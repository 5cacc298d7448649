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
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"slices"
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

// builder is the construction state of a Tree. Node i owns rows span[i][0]
// … span[i][1]-1 of the build's row permutation, and the builder's copy
// of the predicate and aggregate columns is permuted with it, so a node's
// rows are a contiguous range of every column. The root's rows are the
// caller's columns, which the builder never writes; its split scatters
// them into buf, and every later split scatters its range stably into tmp
// and copies it back, one column at a time.
type builder struct {
	*Tree
	span [][2]int
	in   rows // the root's rows: the caller's columns, perm nil
	buf  rows // the rows of every node below the root
	// sorted[c] holds when the caller's column c ascends: a stable scatter
	// keeps every node's range of it ascending, so its median is the
	// middle row
	sorted []bool
	// per row of the range being split: its cell (only up to 8
	// dimensions) and the place it moves to in the range
	key []uint8
	pos []int
	// room for a split below the root, whose range is never longer than
	// the root's longest child: kth's two buffers, or one column
	tmp     []float64
	tmpPerm []int
}

// rows is one copy of the build's columns, all permuted alike.
type rows struct {
	pred [][]float64
	agg  []float64
	perm []int // the caller's row index of each row
}

func newBuilder(d *dataset.Dataset) *builder {
	n, dims := d.N(), d.Dims()
	t := &builder{Tree: &Tree{dims: dims}, in: rows{pred: d.Pred, agg: d.Agg}, sorted: make([]bool, dims)}
	cols := make([]float64, (dims+1)*n)
	t.buf.pred = make([][]float64, dims)
	for c := range t.buf.pred {
		t.buf.pred[c], cols = cols[:n:n], cols[n:]
	}
	t.buf.agg = cols
	t.buf.perm = make([]int, n)
	for c, col := range d.Pred {
		t.sorted[c] = ascending(col)
	}
	if dims <= 8 {
		t.key = make([]uint8, n)
	}
	t.pos = make([]int, n)
	return t
}

// rowsAt returns the copy of the columns that holds the rows of the nodes at
// depth.
func (t *builder) rowsAt(depth int32) *rows {
	if depth == 0 {
		return &t.in
	}
	return &t.buf
}

// size returns the number of rows of node id.
func (t *builder) size(id int) int { return t.span[id][1] - t.span[id][0] }

// ascending reports whether col never decreases; NaN makes it false.
func ascending(col []float64) bool {
	for i := 1; i < len(col); i++ {
		if !(col[i-1] <= col[i]) {
			return false
		}
	}
	return true
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
// also returns, per dense leaf id, the indices of the leaf's tuples in d,
// ascending — the strata a caller samples from, as views of one
// permutation of d's rows; the tree itself keeps neither them nor d, and
// Build writes nothing into d.
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
	t := newBuilder(d)
	t.root = t.newNode(0, d.N(), 0)
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
			if t.size(ch) > 1 {
				push(ch)
			}
		}
		if t.countLeaves() >= opt.MaxLeaves {
			break
		}
	}
	t.assignLeafIDs()
	if t.numKids[t.root] == 0 { // no split moved the caller's rows
		for i := range t.buf.perm {
			t.buf.perm[i] = i
		}
	}
	leafItems := make([][]int, len(t.leaves))
	for i, id := range t.leaves {
		lo, hi := t.span[id][0], t.span[id][1]
		leafItems[i] = t.buf.perm[lo:hi:hi]
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

// newNode appends the node of rows lo … hi-1 at depth, with its
// aggregates and its bounding rectangle, each folded over the rows in
// order.
func (t *builder) newNode(lo, hi int, depth int32) int {
	id := len(t.aggs)
	rs := t.rowsAt(depth)
	t.bounds = slices.Grow(t.bounds, 2*t.dims)[:len(t.bounds)+2*t.dims]
	r := t.rect(id)
	for c, col := range rs.pred {
		r.Lo[c], r.Hi[c] = t.colBounds(c, col[lo:hi])
	}
	t.span = append(t.span, [2]int{lo, hi})
	t.depth = append(t.depth, depth)
	t.aggs = append(t.aggs, aggOf(rs.agg[lo:hi]))
	t.leafOf = append(t.leafOf, -1)
	t.firstKid = append(t.firstKid, 0)
	t.numKids = append(t.numKids, 0)
	return id
}

// colBounds returns a node's bounds on column c from its rows vs: the
// first value below all before it and the first above all before it, NaN
// never. Ascending rows give their first and the first of their last run.
func (t *builder) colBounds(c int, vs []float64) (lo, hi float64) {
	if t.sorted[c] {
		j := len(vs) - 1
		for j > 0 && vs[j-1] == vs[len(vs)-1] {
			j--
		}
		return vs[0], vs[j]
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range vs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// aggOf folds vs into a ptree.Agg in order, as Agg.Add does one value at a
// time, but in locals the compiler keeps in registers: a struct of five
// fields stays in memory across Add calls, so every add would wait on a
// store.
func aggOf(vs []float64) ptree.Agg {
	if len(vs) == 0 {
		return ptree.Agg{}
	}
	sum, sumSq, mn, mx := 0.0, 0.0, vs[0], vs[0]
	for _, v := range vs {
		sum += v
		sumSq += v * v
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return ptree.Agg{N: len(vs), Sum: sum, SumSq: sumSq, Min: mn, Max: mx}
}

// split divides a leaf node into up to 2^d children at the per-dimension
// medians of its rows (the paper's simultaneous split). A row's cell has
// bit c set when its coordinate c is at least median c, and the rows
// scatter stably by cell, so the children — the non-empty cells in cell
// order — are back-to-back ranges that keep their rows in permutation
// order. If every row lands in a single cell the node stays a leaf and nil
// is returned.
func (t *builder) split(id int) []int {
	lo, hi := t.span[id][0], t.span[id][1]
	m := hi - lo
	if m < 2 {
		return nil
	}
	depth := t.depth[id]
	src := t.rowsAt(depth)
	// free room: all of buf before the root's split, tmp after it
	var free [2][]float64
	var tmp []float64
	var tmpPerm []int
	if depth == 0 {
		free[0] = t.buf.agg[:m]
		if t.dims > 0 {
			free[1] = t.buf.pred[0][:m]
		}
	} else {
		if t.tmp == nil {
			longest := 0
			for ch := t.firstKid[t.root]; ch < t.firstKid[t.root]+t.numKids[t.root]; ch++ {
				longest = max(longest, t.size(int(ch)))
			}
			t.tmp, t.tmpPerm = make([]float64, 2*longest), make([]int, longest)
		}
		tmp, tmpPerm = t.tmp[:m], t.tmpPerm[:m]
		free = [2][]float64{tmp, t.tmp[m : 2*m]}
	}
	sizes := t.cells(src, lo, hi, free)
	if len(sizes) < 2 {
		return nil
	}
	pos := t.pos[:m]
	for c, col := range src.pred {
		move(t.buf.pred[c][lo:hi], col[lo:hi], pos, tmp)
	}
	move(t.buf.agg[lo:hi], src.agg[lo:hi], pos, tmp)
	if src.perm == nil { // the root's rows are the caller's, in order
		for i, p := range pos {
			t.buf.perm[p] = i
		}
	} else {
		move(t.buf.perm[lo:hi], src.perm[lo:hi], pos, tmpPerm)
	}
	children := make([]int, len(sizes))
	for i, n := range sizes {
		children[i] = t.newNode(lo, lo+n, depth+1)
		lo += n
	}
	t.firstKid[id], t.numKids[id] = int32(children[0]), int32(len(children))
	return children
}

// cells gives every row of lo … hi-1 in src its cell and leaves in pos the
// place it moves to in the range, cells in order and rows within a cell in
// the order they had. It returns the sizes of the non-empty cells in cell
// order. free is room for the medians' selection.
func (t *builder) cells(src *rows, lo, hi int, free [2][]float64) []int {
	if t.key == nil {
		return t.cellsWide(src, lo, hi, free)
	}
	key := t.key[:hi-lo]
	clear(key)
	var count, next [256]int
	// a sorted column's bit is set from the first row at least its median
	// (the middle row) on; the last unsorted column's pass also counts
	last := -1
	for c, col := range src.pred {
		if !t.sorted[c] {
			last = c
			continue
		}
		vs := col[lo:hi]
		from := sort.Search(len(vs)/2, func(i int) bool { return vs[i] >= vs[len(vs)/2] })
		for i := range key[from:] {
			key[from+i] |= 1 << c
		}
	}
	for c, col := range src.pred {
		if t.sorted[c] {
			continue
		}
		med := t.median(col[lo:hi], c, free)
		if c < last {
			for i, v := range col[lo:hi] {
				key[i] |= uint8(b2i(v >= med)) << c
			}
			continue
		}
		for i, v := range col[lo:hi] {
			k := key[i] | uint8(b2i(v >= med))<<c
			key[i] = k
			count[k]++
		}
	}
	if last < 0 {
		for _, k := range key {
			count[k]++
		}
	}
	var sizes []int
	at := 0
	for k, n := range count[:1<<t.dims] {
		next[k] = at
		at += n
		if n > 0 {
			sizes = append(sizes, n)
		}
	}
	if len(sizes) < 2 {
		return nil
	}
	pos := t.pos[:hi-lo]
	for i, k := range key {
		pos[i] = next[k]
		next[k]++
	}
	return sizes
}

// cellsWide is cells for more than 8 dimensions, where a table of all 2^d
// cells would outgrow the range: the cells are sorted, not counted.
func (t *builder) cellsWide(src *rows, lo, hi int, free [2][]float64) []int {
	key := make([]int, hi-lo)
	for c, col := range src.pred {
		med := t.median(col[lo:hi], c, free)
		for i, v := range col[lo:hi] {
			if v >= med {
				key[i] |= 1 << c
			}
		}
	}
	order := make([]int, hi-lo)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(key[a], key[b]) })
	var sizes []int
	for r, i := range order {
		t.pos[i] = r
		if r == 0 || key[i] != key[order[r-1]] {
			sizes = append(sizes, 0)
		}
		sizes[len(sizes)-1]++
	}
	if len(sizes) < 2 {
		return nil
	}
	return sizes
}

// scatter moves src[i] to dst[pos[i]].
func scatter[T any](dst, src []T, pos []int) {
	for i, v := range src {
		dst[pos[i]] = v
	}
}

// move scatters src by pos into dst, the same range of another copy, or,
// with tmp, through tmp into dst when dst is src's own range.
func move[T any](dst, src []T, pos []int, tmp []T) {
	if tmp == nil {
		scatter(dst, src, pos)
		return
	}
	scatter(tmp, src, pos)
	copy(dst, tmp)
}

// median returns the median (the len/2-th smallest) of col, a node's
// range of column c, selecting in free when the column is not sorted.
func (t *builder) median(col []float64, c int, free [2][]float64) float64 {
	if t.sorted[c] {
		return col[len(col)/2]
	}
	return kth(col, len(col)/2, free)
}

// b2i is 1 for true and 0 for false; the compiler sets it from the flags,
// without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

const (
	kthSample = 32  // values in the sample a bracket is drawn from
	kthSlack  = 5   // sample places between the rank's and a bracket end
	kthPasses = 16  // passes before kth sorts what is left
	kthSmall  = 128 // a range this short is sorted
)

// kth returns the k-th smallest (0-based) of vs, leaving vs as it is; each
// of buf holds len(vs) values. Each pass brackets rank k between two
// values a ≤ b of a strided sample and, without branching on the data,
// counts the values below a and gathers those in [a, b] into one buf,
// which the next pass reads while it writes the other. Rank k is then
// in the bracket, whose values the next pass narrows, or the bracket moves
// to the side that holds it. A bracket of one value that holds rank k is
// the answer; a pass that gathers every value narrows the bracket to one
// sampled value. A range of kthSmall values, or one left after kthPasses
// passes (NaN fits no bracket), is sorted instead.
func kth(vs []float64, k int, buf [2][]float64) float64 {
	src, half := vs, 0
	a, p, b := bracket(src, k)
	for pass := 0; ; pass++ {
		m := len(src)
		dst := buf[half]
		if m <= kthSmall || pass == kthPasses {
			s := dst[:m]
			copy(s, src)
			slices.Sort(s)
			return s[k]
		}
		below, in := 0, 0
		for _, v := range src {
			below += b2i(v < a)
			dst[in] = v
			in += b2i(v >= a) & b2i(v <= b)
		}
		switch {
		case k < below:
			a, b = math.Inf(-1), math.Nextafter(a, math.Inf(-1))
		case k >= below+in:
			a, b = math.Nextafter(b, math.Inf(1)), math.Inf(1)
		case a == b:
			return a
		case in == m:
			a, b = p, p
		default:
			src, k, half = dst[:in], k-below, 1-half
			a, p, b = bracket(src, k)
		}
	}
}

// bracket returns values a ≤ p ≤ b of a strided sample of vs: p at the
// sample place of rank k, a and b kthSlack places below and above it (-Inf
// and +Inf past the sample's ends).
func bracket(vs []float64, k int) (a, p, b float64) {
	var s [kthSample]float64
	m := len(vs)
	for i := range s {
		s[i] = vs[(2*i+1)*m/(2*kthSample)]
	}
	slices.Sort(s[:])
	r := k * kthSample / m
	a, p, b = math.Inf(-1), s[r], math.Inf(1)
	if r >= kthSlack {
		a = s[r-kthSlack]
	}
	if r+kthSlack < kthSample {
		b = s[r+kthSlack]
	}
	return a, p, b
}

// nodeScore approximates the maximum query variance inside node id,
// following Appendix A's discretizations adapted to d dimensions.
func (t *builder) nodeScore(id int, kind dataset.AggKind, delta float64) float64 {
	lo, hi := t.span[id][0], t.span[id][1]
	n := hi - lo
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
		maxSq := t.maxChunkSumSq(id, w)
		return float64(n) * maxSq / (float64(n) * float64(w) * float64(w))
	default: // SUM
		// half-split bound (Lemma A.3): score of the better half
		agg := t.rowsAt(t.depth[id]).agg[lo:hi]
		var s1, q1, s2, q2 float64
		for _, v := range agg[:n/2] {
			s1 += v
			q1 += v * v
		}
		for _, v := range agg[n/2:] {
			s2 += v
			q2 += v * v
		}
		v1 := (float64(n)*q1 - s1*s1) / float64(n)
		v2 := (float64(n)*q2 - s2*s2) / float64(n)
		if v1 > v2 {
			return v1
		}
		return v2
	}
}

// maxChunkSumSq splits node id's rows into contiguous chunks of w along the
// dimension with the widest spread and returns the largest chunk sum of
// squares — the d-dimensional analogue of the δm-window index (A.4).
func (t *builder) maxChunkSumSq(id, w int) float64 {
	// pick the dimension with the widest value range among the rows
	r := t.rect(id)
	bestDim, bestSpread := 0, -1.0
	for c := 0; c < t.dims; c++ {
		if s := r.Hi[c] - r.Lo[c]; s > bestSpread {
			bestSpread, bestDim = s, c
		}
	}
	lo, hi := t.span[id][0], t.span[id][1]
	rs := t.rowsAt(t.depth[id])
	col, agg := rs.pred[bestDim][lo:hi], rs.agg[lo:hi]
	ordered := make([]int, hi-lo)
	for i := range ordered {
		ordered[i] = i
	}
	sort.Slice(ordered, func(a, b int) bool { return col[ordered[a]] < col[ordered[b]] })
	best, cur := 0.0, 0.0
	for i, j := range ordered {
		v := agg[j]
		cur += v * v
		if i >= w {
			u := agg[ordered[i-w]]
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
		t.leafOf[i] = -1
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
