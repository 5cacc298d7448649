package kdtree

import (
	"fmt"

	"repro/internal/binenc"
	"repro/internal/ptree"
)

// Encode writes the tree as it is in memory: its dimensionality, every
// node's bounding rectangle and aggregates, the child links and the root.
// Depths and leaf ids follow from the links; Decode derives them.
func (t *Tree) Encode(w *binenc.Writer) {
	w.U64(uint64(t.dims))
	w.F64s(t.bounds)
	ptree.EncodeAggs(w, t.aggs)
	binenc.WriteInts(w, t.firstKid)
	binenc.WriteInts(w, t.numKids)
	w.U64(uint64(t.root))
}

// Decode reads a tree written by Encode. Every length and node index is
// checked, and the child links must form one tree under the root, so
// corrupt input is an error, never a panic.
func Decode(r *binenc.Reader) (*Tree, error) {
	dims := r.U64()
	bounds := r.F64s()
	aggs := ptree.DecodeAggs(r)
	firstKid := binenc.ReadInts[int32](r)
	numKids := binenc.ReadInts[int32](r)
	root := r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	n := len(aggs)
	if n == 0 || dims == 0 || dims > uint64(len(bounds)) || uint64(len(bounds)) != 2*dims*uint64(n) ||
		len(firstKid) != n || len(numKids) != n || root >= uint64(n) {
		return nil, fmt.Errorf("kdtree: node arrays disagree: %d aggregates, %d bounds at %d dims, %d+%d child links, root %d",
			n, len(bounds), dims, len(firstKid), len(numKids), root)
	}
	t := &Tree{bounds: bounds, aggs: aggs, leafOf: make([]int32, n), firstKid: firstKid, numKids: numKids,
		depth: make([]int32, n), root: int(root), dims: int(dims)}
	// children are the ids firstKid … firstKid+numKids-1; each must be
	// claimed once, and never the root
	claimed := make([]bool, n)
	claimed[t.root] = true
	for id := 0; id < n; id++ {
		first, k := int64(firstKid[id]), int64(numKids[id])
		if k < 0 || (k > 0 && (first < 0 || first+k > int64(n))) {
			return nil, fmt.Errorf("kdtree: node %d has a bad child range", id)
		}
		for c := first; c < first+k; c++ {
			if claimed[c] {
				return nil, fmt.Errorf("kdtree: node %d links child %d twice", id, c)
			}
			claimed[c] = true
		}
	}
	// parents are unique and the root has none, so the walk from the root
	// reaches each node once; a node it misses sits on a detached cycle
	reached := 0
	stack := []int32{int32(t.root)}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		reached++
		for c := firstKid[id]; c < firstKid[id]+numKids[id]; c++ {
			t.depth[c] = t.depth[id] + 1
			stack = append(stack, c)
		}
	}
	if reached != n {
		return nil, fmt.Errorf("kdtree: %d of %d nodes are not under the root", n-reached, n)
	}
	t.assignLeafIDs()
	return t, nil
}
