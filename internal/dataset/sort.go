package dataset

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/parallel"
)

// SortByPred reorders all columns so that predicate column dim is
// non-decreasing, preserving the input order of ties; -0 and +0 tie. A NaN
// key sorts after every other key, NaNs in input order (no loader admits
// one). The 1D partitioning algorithms require this ordering. It is a
// stable radix sort of the keys' order-preserving bit patterns (radixSort);
// a column already in order is left as it is.
func (d *Dataset) SortByPred(dim int) {
	col := d.Pred[dim]
	n := len(col)
	sorted := true
	for i := 1; i < n && sorted; i++ {
		sorted = sortKey(col[i-1], i-1) <= sortKey(col[i], i)
	}
	if sorted {
		return
	}
	items := make([]item, n)
	for i, v := range col {
		items[i] = item{sortKey(v, i), i}
	}
	items = radixSort(items, make([]item, n))
	idx := make([]int, n)
	for i, it := range items {
		idx[i] = it.idx
	}
	d.Permute(idx)
}

// SplitByPred returns d's rows in SortByPred(dim)'s order cut into
// consecutive parts, each a new dataset; d is left as it is. For each
// rank r in ranks, ascending and in (0, N()), the order is cut just after
// the run of equal keys that holds its row r-1, so equal keys share a
// part; parts left empty are dropped.
//
// It runs on the worker pool: the keys at the cut ranks are selected
// (selectKeys), the rows are partitioned by them, stably, and each part
// is then sorted (msdSort) and gathered on its own. A part's rows are the ones
// between two cuts of the whole sorted order, so they come out in that
// order.
func (d *Dataset) SplitByPred(dim int, ranks []int) []*Dataset {
	col := d.Pred[dim]
	n := len(col)
	blocks := parallel.Workers()
	block := func(b int) (int, int) { return b * n / blocks, (b + 1) * n / blocks }
	keys := make([]uint64, n)
	parallel.For(blocks, func(b int) {
		lo, hi := block(b)
		for i := lo; i < hi; i++ {
			keys[i] = sortKey(col[i], i)
		}
	})
	at := make([]int, len(ranks))
	for i, r := range ranks {
		at[i] = r - 1
	}
	bounds := make([]uint64, len(ranks))
	selectKeys(keys, at, 64, bounds)
	// A row goes to the part after every bound below its key. first[t]
	// counts the bounds whose top 16 bits are below t, so a key need only
	// be compared with the bounds that share its top 16 bits.
	first := make([]int32, 1<<16)
	for t, j := 0, 0; t < len(first); t++ {
		for j < len(bounds) && bounds[j]>>48 < uint64(t) {
			j++
		}
		first[t] = int32(j)
	}
	part := func(k uint64) int {
		p := int(first[k>>48])
		for p < len(bounds) && bounds[p] < k {
			p++
		}
		return p
	}
	parts := len(bounds) + 1
	counts := make([][]int, blocks)
	parallel.For(blocks, func(b int) {
		counts[b] = make([]int, parts)
		lo, hi := block(b)
		for _, k := range keys[lo:hi] {
			counts[b][part(k)]++
		}
	})
	// part-major, block-minor offsets keep the partition stable
	start := make([]int, parts+1)
	for p, pos := 0, 0; p < parts; p++ {
		start[p] = pos
		for b := range counts {
			counts[b][p], pos = pos, pos+counts[b][p]
		}
	}
	start[parts] = n
	items := make([]item, n)
	parallel.For(blocks, func(b int) {
		next := counts[b]
		lo, hi := block(b)
		for i := lo; i < hi; i++ {
			p := part(keys[i])
			items[next[p]] = item{keys[i], i}
			next[p]++
		}
	})
	scratch := make([]item, n)
	out := make([]*Dataset, parts)
	parallel.For(parts, func(p int) {
		if lo, hi := start[p], start[p+1]; lo < hi {
			out[p] = d.gather(msdSort(items[lo:hi], scratch[lo:hi]))
		}
	})
	return slices.DeleteFunc(out, func(p *Dataset) bool { return p == nil })
}

// selectKeys sets out[i] to the key at position ranks[i] of keys in
// ascending order; ranks ascend and the keys agree on all but their low
// bits. It is a radix select, a digit at a time from the top: each
// rank's bucket is counted and gathered, and a bucket of at most 1024 keys
// is sorted. A digit is 16 bits while 65536 or more keys are left, else 8.
func selectKeys(keys []uint64, ranks []int, bits int, out []uint64) {
	if bits == 0 { // every digit matched: the keys are equal
		for i, r := range ranks {
			out[i] = keys[r]
		}
		return
	}
	if len(keys) <= 1<<10 {
		sorted := slices.Clone(keys)
		slices.Sort(sorted)
		for i, r := range ranks {
			out[i] = sorted[r]
		}
		return
	}
	width := 8
	if len(keys) >= 1<<16 && bits >= 16 {
		width = 16
	}
	shift := bits - width
	digit := func(k uint64) int { return int(k>>shift) & (1<<width - 1) }
	counts := make([]int, 1<<width)
	for _, k := range keys {
		counts[digit(k)]++
	}
	// group the ranks by bucket: groups[g] is bucket b, whose first key
	// has position first, and ranks[from:to]
	type group struct{ b, first, from, to int }
	var groups []group
	slot := make([]int32, 1<<width) // bucket -> group + 1
	for b, first, i := 0, 0, 0; i < len(ranks); b++ {
		j := i
		for j < len(ranks) && ranks[j] < first+counts[b] {
			j++
		}
		if j > i {
			groups = append(groups, group{b, first, i, j})
			slot[b] = int32(len(groups))
			i = j
		}
		first += counts[b]
	}
	subs := make([][]uint64, len(groups))
	if len(groups) == 1 && counts[groups[0].b] == len(keys) {
		subs[0] = keys // every key in one bucket: nothing to gather
	} else {
		for g, gr := range groups {
			subs[g] = make([]uint64, 0, counts[gr.b])
		}
		for _, k := range keys {
			if g := slot[digit(k)]; g > 0 {
				subs[g-1] = append(subs[g-1], k)
			}
		}
	}
	for g, gr := range groups {
		rel := make([]int, gr.to-gr.from)
		for i := range rel {
			rel[i] = ranks[gr.from+i] - gr.first
		}
		selectKeys(subs[g], rel, shift, out[gr.from:gr.to])
	}
}

// gather returns a new dataset of d's rows items[0].idx, items[1].idx, ...
func (d *Dataset) gather(items []item) *Dataset {
	take := func(col []float64) []float64 {
		out := make([]float64, len(items))
		for i, it := range items {
			out[i] = col[it.idx]
		}
		return out
	}
	out := &Dataset{Name: d.Name, ColNames: slices.Clone(d.ColNames), Pred: make([][]float64, d.Dims())}
	for c, col := range d.Pred {
		out.Pred[c] = take(col)
	}
	out.Agg = take(d.Agg)
	return out
}

// item is one row of a sort: its key and its position.
type item struct {
	key uint64
	idx int
}

// msdBits is the width of msdSort's one digit, and msdInsertion the
// largest bucket it finishes by insertion sort.
const (
	msdBits      = 16
	msdInsertion = 48
)

// msdSort sorts items by key, stably, and returns them in items or in
// scratch, which is as long. One counting pass scatters the items by the
// msdBits bits just below the prefix every key shares; a bucket of at
// most msdInsertion items is then finished by insertion sort and a
// larger one by radixSort. A part of a split spans a small range of
// keys, so most buckets hold a handful of rows and the one pass replaces
// radixSort's pass per differing byte.
func msdSort(items, scratch []item) []item {
	n := len(items)
	if n <= msdInsertion {
		insertionSort(items)
		return items
	}
	var diff uint64
	for _, it := range items {
		diff |= it.key ^ items[0].key
	}
	if diff == 0 {
		return items
	}
	shift := max(bits.Len64(diff)-msdBits, 0)
	digit := func(k uint64) int { return int(k>>shift) & (1<<msdBits - 1) }
	at := make([]int32, 1<<msdBits)
	for _, it := range items {
		at[digit(it.key)]++
	}
	sum := int32(0)
	for j, c := range at {
		at[j], sum = sum, sum+c
	}
	for _, it := range items {
		j := digit(it.key)
		scratch[at[j]] = it
		at[j]++
	}
	if shift == 0 {
		return scratch // a bucket's keys agree on every bit
	}
	// at[j] is now the end of bucket j
	for j, lo := 0, 0; lo < n; j++ {
		hi := int(at[j])
		switch bucket := scratch[lo:hi]; {
		case len(bucket) <= 1:
		case len(bucket) <= msdInsertion:
			insertionSort(bucket)
		default:
			if sorted := radixSort(bucket, items[lo:hi]); &sorted[0] != &bucket[0] {
				copy(bucket, sorted)
			}
		}
		lo = hi
	}
	return scratch
}

// insertionSort sorts items by key, stably.
func insertionSort(items []item) {
	for i := 1; i < len(items); i++ {
		it := items[i]
		j := i
		for ; j > 0 && items[j-1].key > it.key; j-- {
			items[j] = items[j-1]
		}
		items[j] = it
	}
}

// radixSort sorts items by key, stably, and returns them in items or in
// scratch, which is as long. It is a least-significant-digit radix sort, a
// byte per pass, that skips a pass in which every key has the same byte.
func radixSort(items, scratch []item) []item {
	n := len(items)
	var counts [8][256]int
	for _, it := range items {
		for b := range counts {
			counts[b][byte(it.key>>(8*b))]++
		}
	}
	for b := range counts {
		at := &counts[b]
		shift := 8 * b
		if at[byte(items[0].key>>shift)] == n {
			continue
		}
		sum := 0
		for j, c := range at {
			at[j], sum = sum, sum+c
		}
		for _, it := range items {
			j := byte(it.key >> shift)
			scratch[at[j]] = it
			at[j]++
		}
		items, scratch = scratch, items
	}
	return items
}

// sortKey maps v, the value in row i, to a key whose unsigned order is
// v's order: -0 shares +0's key, and a NaN has a key above every number's
// that no other row shares, NaNs in row order.
func sortKey(v float64, i int) uint64 {
	switch {
	case v == 0:
		return 1 << 63
	case v != v:
		return sortKey(math.Inf(1), 0) + 1 + uint64(i)
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}
