package ptree

import (
	"fmt"

	"repro/internal/binenc"
)

// Encode writes the tree as it is in memory: every node's value range,
// aggregates, sorted-data index range and child links, then the root.
// Parent links and leaf ids follow from the child links; Decode derives
// them, so they cannot disagree with the links.
func (t *Tree) Encode(w *binenc.Writer) {
	w.F64s(t.bounds)
	EncodeAggs(w, t.aggs)
	iLo, iHi := make([]int, len(t.nodes)), make([]int, len(t.nodes))
	for i, n := range t.nodes {
		iLo[i], iHi[i] = n.iLo, n.iHi
	}
	binenc.WriteInts(w, iLo)
	binenc.WriteInts(w, iHi)
	binenc.WriteInts(w, t.kidOff)
	binenc.WriteInts(w, t.kids)
	w.U64(uint64(t.root))
}

// Decode reads a tree written by Encode. Every length and node index is
// checked, and the child links must form one tree under the root, so
// corrupt input is an error, never a panic.
func Decode(r *binenc.Reader) (*Tree, error) {
	bounds := r.F64s()
	aggs := DecodeAggs(r)
	iLo := binenc.ReadInts[int](r)
	iHi := binenc.ReadInts[int](r)
	kidOff := binenc.ReadInts[int32](r)
	kids := binenc.ReadInts[int32](r)
	root := r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	n := len(aggs)
	if n == 0 || len(bounds) != 2*n || len(iLo) != n || len(iHi) != n || len(kidOff) != n+1 || root >= uint64(n) {
		return nil, fmt.Errorf("ptree: node arrays disagree: %d aggregates, %d bounds, %d+%d index ranges, %d child offsets, root %d",
			n, len(bounds), len(iLo), len(iHi), len(kidOff), root)
	}
	t := &Tree{nodes: make([]node, n), bounds: bounds, aggs: aggs, leafOf: make([]int32, n),
		kids: kids, kidOff: kidOff, root: int(root)}
	for i := range t.nodes {
		t.nodes[i] = node{iLo: iLo[i], iHi: iHi[i], parent: -1}
	}
	if err := t.link(); err != nil {
		return nil, err
	}
	return t, nil
}

// link derives the parent links and the leaf ids from the child links:
// leaves are numbered in node order, as addNode numbers them. It fails
// unless the links make every node a descendant of the root exactly once.
func (t *Tree) link() error {
	n := len(t.nodes)
	if t.kidOff[0] != 0 || int(t.kidOff[n]) != len(t.kids) {
		return fmt.Errorf("ptree: child offsets do not span the %d child links", len(t.kids))
	}
	for id := 0; id < n; id++ {
		if t.kidOff[id+1] < t.kidOff[id] || int(t.kidOff[id+1]) > len(t.kids) {
			return fmt.Errorf("ptree: node %d has a bad child range", id)
		}
		for _, c := range t.children(id) {
			if c < 0 || int(c) >= n || int(c) == t.root || t.nodes[c].parent >= 0 {
				return fmt.Errorf("ptree: node %d links child %d twice or out of range", id, c)
			}
			t.nodes[c].parent = id
		}
	}
	// parents are unique and the root has none, so the nodes reachable
	// from it form a tree; any other node sits on a detached cycle
	reached := 0
	stack := []int32{int32(t.root)}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = append(stack[:len(stack)-1], t.children(int(id))...)
		reached++
	}
	if reached != n {
		return fmt.Errorf("ptree: %d of %d nodes are not under the root", n-reached, n)
	}
	t.leaves = t.leaves[:0]
	for id := range t.nodes {
		t.leafOf[id] = -1
		if t.kidOff[id+1] == t.kidOff[id] {
			t.leafOf[id] = int32(len(t.leaves))
			t.leaves = append(t.leaves, id)
		}
	}
	return nil
}

// EncodeAggs writes aggregate records as two blobs: the counts, then the
// Sum, SumSq, Min and Max of each record as raw bits.
func EncodeAggs(w *binenc.Writer, aggs []Agg) {
	ns := make([]int, len(aggs))
	fs := make([]float64, 0, 4*len(aggs))
	for i, a := range aggs {
		ns[i] = a.N
		fs = append(fs, a.Sum, a.SumSq, a.Min, a.Max)
	}
	binenc.WriteInts(w, ns)
	w.F64s(fs)
}

// DecodeAggs reads records written by EncodeAggs; a negative count or a
// float blob of the wrong length fails the reader.
func DecodeAggs(r *binenc.Reader) []Agg {
	ns := binenc.ReadInts[int](r)
	fs := r.F64s()
	if r.Err() != nil {
		return nil
	}
	if len(fs) != 4*len(ns) {
		r.Fail(fmt.Errorf("ptree: %d counts for %d aggregate floats", len(ns), len(fs)))
		return nil
	}
	aggs := make([]Agg, len(ns))
	for i, n := range ns {
		if n < 0 {
			r.Fail(fmt.Errorf("ptree: aggregate %d has count %d", i, n))
			return nil
		}
		aggs[i] = Agg{N: n, Sum: fs[4*i], SumSq: fs[4*i+1], Min: fs[4*i+2], Max: fs[4*i+3]}
	}
	return aggs
}

// DecodeV2 reads the leaf section of a version-2 synopsis — a leaf count,
// then per leaf its value range, sorted-data index range and aggregates —
// and assembles the binary tree Build made over those leaves. It serves
// only the v2 branch of core.Load and goes with it.
func DecodeV2(r *binenc.Reader, maxLeaves int) (*Tree, error) {
	k := r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if k == 0 || k > uint64(maxLeaves) {
		return nil, fmt.Errorf("ptree: %d leaves", k)
	}
	t := newTree()
	var layer []int
	prevHi := 0
	for i := 0; i < int(k); i++ {
		lo, hi := r.F64(), r.F64()
		iLo, iHi := int(r.U64()), int(r.U64())
		a := Agg{N: int(r.U64()), Sum: r.F64(), SumSq: r.F64(), Min: r.F64(), Max: r.F64()}
		if err := r.Err(); err != nil {
			return nil, err
		}
		if a.N <= 0 || iHi <= iLo || (i > 0 && iLo != prevHi) {
			return nil, fmt.Errorf("ptree: v2 leaf %d is empty or does not abut its predecessor", i)
		}
		prevHi = iHi
		layer = append(layer, t.addNode(lo, hi, iLo, iHi, a, nil))
	}
	t.buildUp(layer, 2)
	return t, nil
}
