package ptree

import "fmt"

// LeafSpec describes one leaf partition for reconstructing a tree without
// the original dataset — the payload a serialized synopsis stores.
type LeafSpec struct {
	// Lo and Hi are the leaf's predicate-value range.
	Lo, Hi float64
	// ILo and IHi are the sorted-data index range (retained so ESS
	// accounting and invariants survive a round-trip).
	ILo, IHi int
	// Agg are the leaf's precomputed aggregates.
	Agg Agg
}

// FromLeaves reconstructs a partition tree bottom-up from leaf
// specifications, exactly as Build would have produced over the original
// data. Leaves must be in predicate order and non-empty.
func FromLeaves(leaves []LeafSpec) (*Tree, error) {
	if len(leaves) == 0 {
		return nil, fmt.Errorf("ptree: FromLeaves with no leaves")
	}
	t := newTree()
	var layer []int
	for i, ls := range leaves {
		if ls.Agg.N <= 0 || ls.IHi <= ls.ILo {
			return nil, fmt.Errorf("ptree: leaf %d is empty", i)
		}
		if i > 0 && ls.ILo != leaves[i-1].IHi {
			return nil, fmt.Errorf("ptree: leaf %d does not abut its predecessor", i)
		}
		layer = append(layer, t.addNode(ls.Lo, ls.Hi, ls.ILo, ls.IHi, ls.Agg, nil))
	}
	t.buildUp(layer, 2)
	return t, nil
}

// LeafSpecs extracts the leaf specifications of a tree (the inverse of
// FromLeaves).
func (t *Tree) LeafSpecs() []LeafSpec {
	out := make([]LeafSpec, len(t.leaves))
	for i, id := range t.leaves {
		n := t.nodes[id]
		out[i] = LeafSpec{Lo: t.bounds[2*id], Hi: t.bounds[2*id+1], ILo: n.iLo, IHi: n.iHi, Agg: t.aggs[id]}
	}
	return out
}
