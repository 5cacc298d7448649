package sketch

import (
	"math"
	"sort"
)

// kllCap is the per-level compactor capacity. Every level shares one
// fixed capacity, so total space is kllCap*log2(n/kllCap) values and the
// compaction schedule is a pure function of the input stream.
const kllCap = 128

// KLL is a deterministic KLL-style quantile sketch: levels of value
// buffers where a level-l item carries weight 2^l. Compaction is fully
// deterministic — sort the buffer, hold the maximum back if the length
// is odd, promote the odd sorted positions of the even prefix with
// doubled weight — so the same stream always produces the same state,
// and the error bound is self-tracking: each compaction of a level with
// weight w can misplace any rank by at most w, so errBound accumulates
// exactly the compactions that actually happened rather than a
// worst-case formula. Deletes cannot be absorbed (the value may live in
// any level at any weight) and widen the rank bound by two each: one for
// the phantom item still in the sketch, one for the shifted true rank.
//
// Merge concatenates per-level buffers then re-runs the deterministic
// compaction cascade. Because compaction sorts before selecting, merge
// is symmetric: A.Merge(B) and B.Merge(A) hold identical value multisets
// per level and serialize to identical bytes. States are NOT
// multiset-determined across different insertion orders (unlike HLL) —
// only answers are, to within the stated bound.
type KLL struct {
	levels   [][]float64
	inserts  uint64 // total weight held = total values ever added
	deletes  uint64
	errBound uint64
}

// NewKLL returns an empty KLL sketch.
func NewKLL() *KLL { return &KLL{} }

// Add absorbs one value.
func (k *KLL) Add(v float64) {
	if len(k.levels) == 0 {
		k.levels = append(k.levels, make([]float64, 0, kllCap+1))
	}
	k.levels[0] = append(k.levels[0], v)
	k.inserts++
	k.compactCascade()
}

// Delete records one unabsorbable retraction.
func (k *KLL) Delete() { k.deletes++ }

// Net is the net absorbed row count (inserts minus deletes).
func (k *KLL) Net() int64 { return int64(k.inserts) - int64(k.deletes) }

// compactCascade restores the per-level capacity invariant bottom-up.
func (k *KLL) compactCascade() {
	for l := 0; l < len(k.levels); l++ {
		if len(k.levels[l]) > kllCap {
			k.compact(l)
		}
	}
}

// compact empties level l into level l+1: sort, hold the max back when
// the length is odd (weight is conserved exactly), promote the odd
// sorted positions with doubled weight, and charge the level's weight
// w = 2^l to the running rank-error bound.
func (k *KLL) compact(l int) {
	buf := k.levels[l]
	sort.Float64s(buf)
	n := len(buf)
	var held []float64
	if n%2 == 1 {
		held = []float64{buf[n-1]}
		n--
	}
	if l+1 >= len(k.levels) {
		k.levels = append(k.levels, make([]float64, 0, kllCap+1))
	}
	for i := 1; i < n; i += 2 {
		k.levels[l+1] = append(k.levels[l+1], buf[i])
	}
	k.levels[l] = append(buf[:0], held...)
	k.errBound += 1 << uint(l)
}

// Merge folds o into k: concatenate per-level buffers, then re-run the
// compaction cascade. o is not modified.
func (k *KLL) Merge(o *KLL) {
	if o == nil {
		return
	}
	for l, buf := range o.levels {
		for l >= len(k.levels) {
			k.levels = append(k.levels, make([]float64, 0, kllCap+1))
		}
		k.levels[l] = append(k.levels[l], buf...)
	}
	k.inserts += o.inserts
	k.deletes += o.deletes
	k.errBound += o.errBound
	k.compactCascade()
}

// Clone deep-copies the sketch.
func (k *KLL) Clone() *KLL {
	if k == nil {
		return nil
	}
	c := &KLL{inserts: k.inserts, deletes: k.deletes, errBound: k.errBound}
	c.levels = make([][]float64, len(k.levels))
	for l, buf := range k.levels {
		c.levels[l] = append(make([]float64, 0, cap(buf)), buf...)
	}
	return c
}

// weightedItem is one sketch value with its level weight, for rank walks.
type weightedItem struct {
	v float64
	w uint64
}

// items flattens the sketch sorted by value.
func (k *KLL) items() []weightedItem {
	total := 0
	for _, buf := range k.levels {
		total += len(buf)
	}
	out := make([]weightedItem, 0, total)
	for l, buf := range k.levels {
		w := uint64(1) << uint(l)
		for _, v := range buf {
			out = append(out, weightedItem{v, w})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].v < out[j].v })
	return out
}

// valueAtRank returns the value covering the given weighted rank
// (clamped into [0, W-1]).
func valueAtRank(items []weightedItem, rank float64, total uint64) float64 {
	if rank < 0 {
		rank = 0
	}
	if max := float64(total) - 1; rank > max {
		rank = max
	}
	cum := 0.0
	for _, it := range items {
		cum += float64(it.w)
		if cum > rank {
			return it.v
		}
	}
	if len(items) > 0 {
		return items[len(items)-1].v
	}
	return math.NaN()
}

// Quantile answers QUANTILE(col, q): the value at weighted rank q*(W-1),
// with [Lo, Hi] the values at that rank minus/plus the stated rank
// bound. The bound is hard: the true rank of Value differs from the
// target by at most errBound (compactions) + 2*deletes.
func (k *KLL) Quantile(q float64) Result {
	net := k.Net()
	if k.inserts == 0 {
		return Result{Kind: KindQuantile, Value: math.NaN(), Lo: math.NaN(), Hi: math.NaN(), N: net}
	}
	items := k.items()
	target := q * float64(k.inserts-1)
	bound := float64(k.errBound + 2*k.deletes)
	return Result{
		Kind:  KindQuantile,
		Value: valueAtRank(items, target, k.inserts),
		Lo:    valueAtRank(items, target-bound, k.inserts),
		Hi:    valueAtRank(items, target+bound, k.inserts),
		Bound: bound,
		N:     net,
	}
}

// memoryBytes counts the values the levels hold, not the capacity they
// were allocated with, so a sketch and its decoded copy report the same.
func (k *KLL) memoryBytes() int64 {
	var b int64 = 48
	for _, buf := range k.levels {
		b += 24 + 8*int64(len(buf))
	}
	return b
}
