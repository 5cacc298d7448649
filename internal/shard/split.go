// Package shard implements sharded scatter-gather execution: a
// partitioner that splits a dataset into N shards along a chosen
// dimension (contiguous key ranges or hashed keys), an engine.Engine that
// owns one inner synopsis per shard and answers queries by scattering to
// the shards whose key range intersects the predicate and merging the
// partial aggregates (internal/merge), and per-shard read-write locks so
// an update routed to one shard never blocks queries on the others.
//
// PASS's stratified design makes this composition exact: a shard is just
// a coarser stratum, so the merged estimates, confidence intervals and
// deterministic hard bounds carry the same guarantees as a single
// synopsis over the whole table.
//
// There is one read body, QueryBatchCtx: a single query is a batch of
// one. It runs one executor (scatter: a goroutine per active shard,
// collect until the context is done) and one drop rule (settle: a shard
// whose partial is missing, by deadline or by error, is dropped — the
// answer degrades, or fails when strict or when nothing answered);
// partials fold in shard order after collection, so answers are bitwise
// independent of completion order. Query, QueryCtx and QueryBatch are
// one-line wrappers over it.
package shard

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/parallel"
)

// Policy selects how tuples map to shards.
type Policy int

const (
	// Range partitions on contiguous key ranges of the partition
	// dimension: shard i owns [Cuts[i-1], Cuts[i]). Range shards give the
	// scatter executor disjoint key ranges to prune against.
	Range Policy = iota
	// Hash partitions by a deterministic hash of the partition-dimension
	// key: balanced regardless of the key distribution, but range
	// predicates rarely prune.
	Hash
)

// String returns the policy name recorded in manifests ("range"/"hash").
func (p Policy) String() string {
	switch p {
	case Range:
		return "range"
	case Hash:
		return "hash"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy converts a manifest policy name back to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "range":
		return Range, nil
	case "hash":
		return Hash, nil
	}
	return 0, fmt.Errorf("shard: unknown policy %q", s)
}

// hashKey maps a partition key to a shard by mixing the float's bits
// (splitmix64 finalizer). It must stay stable across processes: the same
// function routes updates after a warm start.
func hashKey(v float64, shards int) int {
	x := math.Float64bits(v)
	if v == 0 {
		x = 0 // collapse -0.0 and +0.0 onto one bit pattern
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(shards))
}

// routeRange returns the shard owning key v under ascending cut points:
// the number of cuts ≤ v.
func routeRange(cuts []float64, v float64) int {
	return sort.Search(len(cuts), func(i int) bool { return cuts[i] > v })
}

// Split partitions d into at most n non-empty shard datasets and returns
// them with the routing metadata (policy, cuts, per-shard bounding
// rectangles). Range splitting keeps equal keys in one shard, so heavy
// duplication on the partition dimension can yield fewer shards than
// requested — ShardInfo.Shards reports the actual count. The returned
// datasets share no backing arrays with d.
func Split(d *dataset.Dataset, policy Policy, dim, n int) ([]*dataset.Dataset, engine.ShardInfo, error) {
	if d == nil || d.N() == 0 {
		return nil, engine.ShardInfo{}, fmt.Errorf("shard: empty dataset")
	}
	if dim < 0 || dim >= d.Dims() {
		return nil, engine.ShardInfo{}, fmt.Errorf("shard: partition dimension %d out of range (dataset has %d)", dim, d.Dims())
	}
	if n < 1 {
		return nil, engine.ShardInfo{}, fmt.Errorf("shard: shard count must be positive, got %d", n)
	}
	if n > d.N() {
		n = d.N()
	}
	var shards []*dataset.Dataset
	info := engine.ShardInfo{Policy: policy.String(), Dim: dim}
	switch policy {
	case Range:
		// the row at each i·N/n of the sorted order ends a shard, with the
		// run of equal keys it is in: routing is by value
		ranks := make([]int, n-1)
		for i := range ranks {
			ranks[i] = (i + 1) * d.N() / n
		}
		shards = d.SplitByPred(dim, ranks)
		for _, sd := range shards[1:] {
			info.Cuts = append(info.Cuts, sd.Pred[dim][0])
		}
	case Hash:
		parts := make([]*dataset.Dataset, n)
		for i := range parts {
			parts[i] = dataset.New(d.Name, d.Dims())
			parts[i].ColNames = append([]string(nil), d.ColNames...)
		}
		for i := 0; i < d.N(); i++ {
			parts[hashKey(d.Pred[dim][i], n)].Append(d.Point(i), d.Agg[i])
		}
		for i, p := range parts {
			if p.N() == 0 {
				return nil, engine.ShardInfo{}, fmt.Errorf("shard: hash shard %d of %d is empty (too many shards for %d distinct keys?)", i, n, d.N())
			}
		}
		shards = parts
	default:
		return nil, engine.ShardInfo{}, fmt.Errorf("shard: unknown policy %v", policy)
	}
	info.Shards = len(shards)
	info.Bounds = make([]dataset.Rect, len(shards))
	parallel.For(len(shards), func(i int) { info.Bounds[i] = shards[i].Bounds() })
	return shards, info, nil
}
