package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/dataset"
)

// leafStore is the flat backing store for the stratified leaf samples.
// Instead of one []SampleTuple slice per leaf — a pointer chase per sample
// point — every sample lives in two contiguous arrays: values, and coords,
// which is row-major (sample j's point is the dims values at j*dims, so
// one dimension is read with stride dims). Leaf i owns the global sample
// range [offsets[i], offsets[i+1]). A dimension-major copy of coords was
// measured and rejected: under 10 % on the scan kernel at the ~58-row
// leaves of a multi-dimensional synopsis, for a second layout that insert,
// remove and serialize would each have to maintain.
//
// Within each leaf, samples are kept sorted along the leaf's primary split
// dimension (sortDim), and per-leaf prefix (sum, sumSq) arrays are
// maintained over that order. A range predicate on the sort dimension then
// resolves to a contiguous sample range by binary search, and — when no
// other dimension is constrained — its count/sum/sumSq come from two
// prefix lookups instead of an O(k) scan.
//
// On a 1D synopsis the store is the update reservoir of Section 4.5 (see
// Synopsis.Insert): it supports single-sample insertion and removal, both
// keeping the sort order, offsets and prefix aggregates consistent. A
// mutation shifts the flat arrays and rebuilds the touched leaf's
// prefixes, which is O(K) worst case — fine for the reservoir path, where
// acceptances arrive at rate K/N.
type leafStore struct {
	dims    int
	offsets []int     // len numLeaves+1; leaf i owns [offsets[i], offsets[i+1])
	coords  []float64 // len total*dims; sample j's point is coords[j*dims:(j+1)*dims]
	values  []float64 // len total
	sortDim []int     // per leaf: the dimension its samples are sorted along
	// per-leaf inclusive prefix aggregates, aligned with the sample order:
	// for leaf base o, prefSum[o+j] = Σ values[o..o+j] (within the leaf).
	prefSum   []float64
	prefSumSq []float64
}

// newLeafStore allocates a store for the given per-leaf sample counts. The
// per-leaf layout is fixed up-front, so build workers can fill disjoint
// leaf ranges concurrently without synchronisation.
func newLeafStore(dims int, counts []int) *leafStore {
	offsets := make([]int, len(counts)+1)
	for i, c := range counts {
		offsets[i+1] = offsets[i] + c
	}
	total := offsets[len(counts)]
	return &leafStore{
		dims:      dims,
		offsets:   offsets,
		coords:    make([]float64, total*dims),
		values:    make([]float64, total),
		sortDim:   make([]int, len(counts)),
		prefSum:   make([]float64, total),
		prefSumSq: make([]float64, total),
	}
}

func (st *leafStore) numLeaves() int       { return len(st.offsets) - 1 }
func (st *leafStore) totalLen() int        { return len(st.values) }
func (st *leafStore) leafLen(leaf int) int { return st.offsets[leaf+1] - st.offsets[leaf] }

// leafOf returns the leaf owning global sample j.
func (st *leafStore) leafOf(j int) int {
	return sort.Search(st.numLeaves(), func(i int) bool { return st.offsets[i+1] > j })
}

// point returns a view of global sample j's coordinates.
func (st *leafStore) point(j int) []float64 { return st.coords[j*st.dims : (j+1)*st.dims] }

// leafValues returns a view of leaf's sample values in store order.
func (st *leafStore) leafValues(leaf int) []float64 {
	return st.values[st.offsets[leaf]:st.offsets[leaf+1]]
}

// leafTuples materialises leaf's samples as SampleTuples (copies).
func (st *leafStore) leafTuples(leaf int) []SampleTuple {
	o, e := st.offsets[leaf], st.offsets[leaf+1]
	out := make([]SampleTuple, 0, e-o)
	for j := o; j < e; j++ {
		out = append(out, SampleTuple{
			Point: append([]float64(nil), st.point(j)...),
			Value: st.values[j],
		})
	}
	return out
}

// finishLeaf sorts leaf's samples along dim and rebuilds its prefix
// aggregates. Call once per leaf after its samples are written; safe to
// call concurrently for distinct leaves.
func (st *leafStore) finishLeaf(leaf, dim int) {
	st.sortDim[leaf] = dim
	st.sortLeaf(leaf, dim)
	st.rebuildPrefix(leaf)
}

// sortLeaf orders leaf's samples by coordinate dim, ties broken by prior
// position (stable, so the layout is deterministic), moving whole rows in
// place. The 1D build path draws samples in ascending predicate order,
// which the fast pre-check detects, skipping the sort entirely.
func (st *leafStore) sortLeaf(leaf, dim int) {
	o, e := st.offsets[leaf], st.offsets[leaf+1]
	if e-o < 2 {
		return
	}
	d := st.dims
	sorted := true
	for j := o + 1; j < e; j++ {
		if st.coords[j*d+dim] < st.coords[(j-1)*d+dim] {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	sort.Stable(leafRows{st.coords[o*d : e*d], st.values[o:e], d, dim})
}

// leafRows is one leaf's samples ordered by coordinate dim: Swap trades
// two rows' points and values.
type leafRows struct {
	coords, values []float64
	dims, dim      int
}

func (r leafRows) Len() int { return len(r.values) }

func (r leafRows) Less(a, b int) bool {
	return r.coords[a*r.dims+r.dim] < r.coords[b*r.dims+r.dim]
}

func (r leafRows) Swap(a, b int) {
	pa, pb := r.coords[a*r.dims:(a+1)*r.dims], r.coords[b*r.dims:(b+1)*r.dims]
	for c := range pa {
		pa[c], pb[c] = pb[c], pa[c]
	}
	r.values[a], r.values[b] = r.values[b], r.values[a]
}

// rebuildPrefix recomputes leaf's prefix aggregates from its values.
func (st *leafStore) rebuildPrefix(leaf int) {
	o, e := st.offsets[leaf], st.offsets[leaf+1]
	sum, sumSq := 0.0, 0.0
	for j := o; j < e; j++ {
		v := st.values[j]
		sum += v
		sumSq += v * v
		st.prefSum[j] = sum
		st.prefSumSq[j] = sumSq
	}
}

// searchRange returns the global index range [a, b) of leaf's samples whose
// sort-dimension coordinate lies in [lo, hi]: two binary searches over the
// strided sort column, the second starting where the first ended. The
// range is empty (a >= b) when lo > hi or either bound is NaN-excluded.
func (st *leafStore) searchRange(leaf int, lo, hi float64) (a, b int) {
	d := st.dims
	e := st.offsets[leaf+1]
	col := st.coords[st.sortDim[leaf]:] // col[j*d] is sample j's sort key
	a, b = st.offsets[leaf], e
	for a < b { // first sample with key >= lo
		h := int(uint(a+b) >> 1)
		if col[h*d] >= lo {
			b = h
		} else {
			a = h + 1
		}
	}
	b = e
	for i := a; i < b; { // first sample at or after a with key > hi
		h := int(uint(i+b) >> 1)
		if col[h*d] > hi {
			b = h
		} else {
			i = h + 1
		}
	}
	return a, b
}

// selectRows is the predicate half of the scan kernel. For the m <=
// scanChunk samples starting at global index a, it returns, in ascending
// order, the offsets (0 … m-1) of those that satisfy q on every constrained
// dimension (sc.cd) except skip, which the caller certified by binary
// search (-1 for none). Each dimension is one pass with no data-dependent
// branch — the candidate index is always stored and the cursor advances by
// the comparison result — so the cost per sample does not depend on how
// predictable the matches are: the first pass reads the chunk's rows in
// order and fills the scratch's selection vector, later passes compact
// it. A sample is rejected when its coordinate is < lo or > hi, so a NaN
// bound or coordinate rejects nothing on that dimension.
func (st *leafStore) selectRows(sc *queryScratch, q dataset.Rect, skip, a, m int) []int32 {
	d, sel := st.dims, sc.sel
	n := -1 // -1: no pass has run, all m samples are still selected
	for _, c := range sc.cd {
		if c == skip {
			continue
		}
		lo, hi := q.Lo[c], q.Hi[c]
		col := st.coords[a*d+c : (a+m-1)*d+c+1] // col[j*d] is sample a+j's coordinate c
		if n < 0 {
			n = 0
			for j, p := 0, 0; p < len(col); j, p = j+1, p+d {
				x := col[p]
				sel[n] = int32(j)
				n += (b2i(x < lo) | b2i(x > hi)) ^ 1
			}
			continue
		}
		k := 0
		for _, j := range sel[:n] {
			x := col[int(j)*d]
			sel[k] = j
			k += (b2i(x < lo) | b2i(x > hi)) ^ 1
		}
		n = k
	}
	if n < 0 {
		return sc.all[:m]
	}
	return sel[:n]
}

// b2i is 1 for true and 0 for false; it compiles to a flag-to-register
// move, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// rangeAgg returns the count, sum and sum of squares of leaf's sample
// values in the global range [a, b), from two prefix lookups.
func (st *leafStore) rangeAgg(leaf, a, b int) (n int, sum, sumSq float64) {
	if a >= b {
		return 0, 0, 0
	}
	sum, sumSq = st.prefSum[b-1], st.prefSumSq[b-1]
	if o := st.offsets[leaf]; a > o {
		sum -= st.prefSum[a-1]
		sumSq -= st.prefSumSq[a-1]
	}
	return b - a, sum, sumSq
}

// insert adds one sample to leaf at its sorted position, keeping offsets
// and the leaf's prefix aggregates consistent. point must carry at least
// dims coordinates.
func (st *leafStore) insert(leaf int, point []float64, value float64) {
	d := st.dims
	sd := st.sortDim[leaf]
	o, e := st.offsets[leaf], st.offsets[leaf+1]
	key := point[sd]
	pos := o + sort.Search(e-o, func(j int) bool { return st.coords[(o+j)*d+sd] > key })

	st.values = slices.Insert(st.values, pos, value)
	st.prefSum = slices.Insert(st.prefSum, pos, 0)
	st.prefSumSq = slices.Insert(st.prefSumSq, pos, 0)
	st.coords = slices.Insert(st.coords, pos*d, point[:d]...)
	for i := leaf + 1; i < len(st.offsets); i++ {
		st.offsets[i]++
	}
	st.rebuildPrefix(leaf)
}

// removeRow deletes leaf's sample of the row (point, value), if the row is
// sampled: among the samples whose sort coordinate equals point's, the
// first with an equal value. On a 1D store the sort coordinate is the
// whole point.
func (st *leafStore) removeRow(leaf int, point []float64, value float64) {
	key := point[st.sortDim[leaf]]
	a, b := st.searchRange(leaf, key, key)
	for j := a; j < b; j++ {
		if st.values[j] == value {
			st.removeAt(leaf, j)
			return
		}
	}
}

// removeAt deletes the sample at global position pos inside leaf.
func (st *leafStore) removeAt(leaf, pos int) {
	d := st.dims
	st.values = slices.Delete(st.values, pos, pos+1)
	st.prefSum = slices.Delete(st.prefSum, pos, pos+1)
	st.prefSumSq = slices.Delete(st.prefSumSq, pos, pos+1)
	st.coords = slices.Delete(st.coords, pos*d, (pos+1)*d)
	for i := leaf + 1; i < len(st.offsets); i++ {
		st.offsets[i]--
	}
	st.rebuildPrefix(leaf)
}

// checkInvariants verifies the store layout: consistent array lengths,
// monotone offsets, per-leaf sort order along sortDim, and prefix
// aggregates matching the values. Used by tests.
func (st *leafStore) checkInvariants() error {
	total := len(st.values)
	if len(st.coords) != total*st.dims {
		return fmt.Errorf("core: store coords length %d != %d samples × %d dims", len(st.coords), total, st.dims)
	}
	if len(st.prefSum) != total || len(st.prefSumSq) != total {
		return fmt.Errorf("core: store prefix length mismatch")
	}
	if st.offsets[0] != 0 || st.offsets[st.numLeaves()] != total {
		return fmt.Errorf("core: store offsets do not span [0, %d]", total)
	}
	for leaf := 0; leaf < st.numLeaves(); leaf++ {
		o, e := st.offsets[leaf], st.offsets[leaf+1]
		if e < o {
			return fmt.Errorf("core: store offsets not monotone at leaf %d", leaf)
		}
		sd := st.sortDim[leaf]
		if sd < 0 || sd >= st.dims {
			return fmt.Errorf("core: leaf %d sort dimension %d out of range", leaf, sd)
		}
		sum, sumSq := 0.0, 0.0
		for j := o; j < e; j++ {
			if j > o && st.coords[j*st.dims+sd] < st.coords[(j-1)*st.dims+sd] {
				return fmt.Errorf("core: leaf %d not sorted along dim %d at %d", leaf, sd, j)
			}
			v := st.values[j]
			sum += v
			sumSq += v * v
			if !closeTo(st.prefSum[j], sum) {
				return fmt.Errorf("core: leaf %d prefix sum mismatch at %d", leaf, j)
			}
			if !closeTo(st.prefSumSq[j], sumSq) {
				return fmt.Errorf("core: leaf %d prefix sumSq mismatch at %d", leaf, j)
			}
		}
	}
	return nil
}

func closeTo(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	mag := b
	if mag < 0 {
		mag = -mag
	}
	return diff <= 1e-9*(1+mag)
}
