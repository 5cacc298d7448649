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
	// Only level 0 grew, and every level was within capacity before.
	if len(k.levels[0]) > kllCap {
		k.compactCascade()
	}
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
//
// The sort is sort.Float64s by definition. A buffer without NaN and −0
// has only bit-identical ties, so any correct sort yields the same
// values in the same positions; such a buffer is sorted as
// order-preserving integer keys (sortKeys), which is several times
// faster. A NaN or a −0 leaves the tie order to pdqsort, so those
// buffers still go through sort.Float64s.
func (k *KLL) compact(l int) {
	if l+1 >= len(k.levels) {
		k.levels = append(k.levels, make([]float64, 0, kllCap+1))
	}
	buf := k.levels[l]
	n := len(buf)
	var stackA, stackB [2*kllCap + 2]uint64
	a, b := stackA[:], stackB[:]
	if n > len(a) {
		a, b = make([]uint64, n), make([]uint64, n)
	}
	keys := sortedKeys(buf, a[:n], b[:n])
	next := k.levels[l+1]
	for i := 1; i < n&^1; i += 2 {
		next = append(next, keyFloat(keys[i]))
	}
	buf = buf[:0]
	if n%2 == 1 {
		buf = append(buf, keyFloat(keys[n-1]))
	}
	k.levels[l], k.levels[l+1] = buf, next
	k.errBound += 1 << uint(l)
}

// floatKey maps v to a key whose unsigned order is v's numeric order
// (−0 sorts below +0): positive values get the sign bit set, negative
// ones are complemented.
func floatKey(v float64) uint64 {
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// keyFloat inverts floatKey.
func keyFloat(u uint64) float64 {
	return math.Float64frombits(u ^ (uint64(int64(^u)>>63) | 1<<63))
}

// sortedKeys returns buf's values in sort.Float64s order as floatKey
// keys, in keys or tmp (both len(buf) long). keyFloat(floatKey(v)) is v
// bit for bit, NaN payloads included.
func sortedKeys(buf []float64, keys, tmp []uint64) []uint64 {
	for i, v := range buf {
		if v != v || math.Float64bits(v) == 1<<63 {
			// a NaN or a −0: the order of its ties is pdqsort's
			sort.Float64s(buf)
			for i, v := range buf {
				keys[i] = floatKey(v)
			}
			return keys
		}
		keys[i] = floatKey(v)
	}
	return sortKeys(keys, tmp)
}

// sortKeys sorts a, using tmp (as long as a) as scratch, and returns
// whichever of the two holds the result. A buffer of at most four
// ascending runs — what a level above 0 holds: a held maximum plus the
// promotions of the compactions below it — is merged run by run.
// Anything else is sorted in blocks of eight by a sorting network and
// then merged bottom-up, equal halves from both ends at once.
func sortKeys(a, tmp []uint64) []uint64 {
	n := len(a)
	var cut [5]int // run starts, then n
	runs := 1
	for i := 1; i < n && runs <= 4; i++ {
		if a[i] < a[i-1] {
			if runs < 4 {
				cut[runs] = i
			}
			runs++
		}
	}
	if runs <= 4 {
		for r := runs; r < len(cut); r++ {
			cut[r] = n
		}
		switch runs {
		case 1:
			return a
		case 2:
			mergeKeys(tmp, a[:cut[1]], a[cut[1]:])
			return tmp
		}
		mergeKeys(tmp[:cut[2]], a[:cut[1]], a[cut[1]:cut[2]])
		mergeKeys(tmp[cut[2]:], a[cut[2]:cut[3]], a[cut[3]:])
		mergeKeys(a, tmp[:cut[2]], tmp[cut[2]:])
		return a
	}
	i := 0
	for ; i+8 <= n; i += 8 {
		sort8(a[i : i+8 : i+8])
	}
	for j := i + 1; j < n; j++ {
		for m := j; m > i && a[m] < a[m-1]; m-- {
			a[m], a[m-1] = a[m-1], a[m]
		}
	}
	for w := 8; w < n; w *= 2 {
		lo := 0
		for ; lo+2*w <= n; lo += 2 * w {
			parityMerge(tmp[lo:lo+2*w], a[lo:lo+w], a[lo+w:lo+2*w])
		}
		if lo < n {
			mid := min(lo+w, n)
			mergeKeys(tmp[lo:n], a[lo:mid], a[mid:n])
		}
		a, tmp = tmp, a
	}
	return a
}

// sort8 sorts eight keys with a 19-comparator network of branch-free
// min/max pairs.
func sort8(q []uint64) {
	q = q[:8:8]
	ce := func(i, j int) {
		a, b := q[i], q[j]
		q[i], q[j] = min(a, b), max(a, b)
	}
	ce(0, 2)
	ce(1, 3)
	ce(4, 6)
	ce(5, 7)
	ce(0, 4)
	ce(1, 5)
	ce(2, 6)
	ce(3, 7)
	ce(0, 1)
	ce(2, 3)
	ce(4, 5)
	ce(6, 7)
	ce(2, 4)
	ce(3, 5)
	ce(1, 4)
	ce(3, 6)
	ce(1, 2)
	ce(3, 4)
	ce(5, 6)
}

// mergeKeys merges the sorted x and y into dst (len(x)+len(y) long).
// The choice of side is a conditional move, not a branch.
func mergeKeys(dst, x, y []uint64) {
	i, j, k := 0, 0, 0
	for i < len(x) && j < len(y) {
		a, b := x[i], y[j]
		c := 0
		if b < a {
			c = 1
		}
		dst[k] = min(a, b)
		i += 1 - c
		j += c
		k++
	}
	k += copy(dst[k:], x[i:])
	copy(dst[k:], y[j:])
}

// parityMerge merges the sorted x and y of equal length into dst,
// taking the smallest remaining key at the front and the largest at
// the back in each of len(x) steps. Two independent chains of
// conditional moves run at once, and neither end can run past its
// input: after t < len(x) steps each side has given at most t keys to
// either end.
func parityMerge(dst, x, y []uint64) {
	n := len(x)
	y = y[:n]
	dst = dst[:2*n]
	i, j := 0, 0
	ie, je := n-1, n-1
	lo, hi := 0, 2*n-1
	for t := 0; t < n; t++ {
		a, b := x[i], y[j]
		c := 0
		if b < a {
			c = 1
		}
		dst[lo] = min(a, b)
		i += 1 - c
		j += c
		lo++
		a, b = x[ie], y[je]
		d := 0
		if a > b {
			d = 1
		}
		dst[hi] = max(a, b)
		ie -= d
		je -= 1 - d
		hi--
	}
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
