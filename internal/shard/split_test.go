package shard

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/stats"
)

func splitData(n int) *dataset.Dataset {
	d := dataset.New("t", 1)
	for i := 0; i < n; i++ {
		d.Append([]float64{float64(i % 97)}, float64(i))
	}
	return d
}

func TestSplitRangeCutsRouteEveryTupleHome(t *testing.T) {
	d := splitData(1000)
	parts, info, err := Split(d, Range, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if info.Policy != "range" || info.Shards != len(parts) {
		t.Fatalf("info = %+v for %d parts", info, len(parts))
	}
	if len(info.Cuts) != len(parts)-1 {
		t.Fatalf("%d parts with %d cuts", len(parts), len(info.Cuts))
	}
	total := 0
	for i, p := range parts {
		total += p.N()
		for j := 0; j < p.N(); j++ {
			v := p.Pred[0][j]
			if got := routeRange(info.Cuts, v); got != i {
				t.Fatalf("tuple with key %v lives in shard %d but routes to %d", v, i, got)
			}
			if v < info.Bounds[i].Lo[0] || v > info.Bounds[i].Hi[0] {
				t.Fatalf("key %v outside shard %d bounds %v", v, i, info.Bounds[i])
			}
		}
	}
	if total != d.N() {
		t.Errorf("shards hold %d tuples, want %d", total, d.N())
	}
	for i := 1; i < len(info.Cuts); i++ {
		if info.Cuts[i] <= info.Cuts[i-1] {
			t.Errorf("cuts not strictly ascending: %v", info.Cuts)
		}
	}
}

func TestSplitRangeNeverSeparatesEqualKeys(t *testing.T) {
	d := dataset.New("dup", 1)
	for i := 0; i < 400; i++ {
		d.Append([]float64{float64(i / 100)}, 1) // only 4 distinct keys
	}
	parts, info, err := Split(d, Range, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) > 4 {
		t.Fatalf("4 distinct keys split into %d shards", len(parts))
	}
	seen := map[float64]int{}
	for i, p := range parts {
		for j := 0; j < p.N(); j++ {
			k := p.Pred[0][j]
			if prev, ok := seen[k]; ok && prev != i {
				t.Fatalf("key %v split across shards %d and %d", k, prev, i)
			}
			seen[k] = i
		}
	}
	if info.Shards != len(parts) {
		t.Errorf("info.Shards = %d, want %d", info.Shards, len(parts))
	}
}

func TestSplitHashBalancedAndConsistent(t *testing.T) {
	d := splitData(3000)
	parts, info, err := Split(d, Hash, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if info.Policy != "hash" || len(info.Cuts) != 0 {
		t.Fatalf("hash info = %+v", info)
	}
	for i, p := range parts {
		if p.N() == 0 {
			t.Fatalf("hash shard %d empty", i)
		}
		for j := 0; j < p.N(); j++ {
			if got := hashKey(p.Pred[0][j], len(parts)); got != i {
				t.Fatalf("key %v in shard %d hashes to %d", p.Pred[0][j], i, got)
			}
		}
	}
}

func TestHashKeyNormalisesNegativeZero(t *testing.T) {
	neg := math.Copysign(0, -1)
	if hashKey(neg, 7) != hashKey(0, 7) {
		t.Error("-0.0 and +0.0 must route to the same shard")
	}
}

func TestSplitRejectsBadInput(t *testing.T) {
	if _, _, err := Split(dataset.New("e", 1), Range, 0, 2); err == nil {
		t.Error("empty dataset must fail")
	}
	d := splitData(10)
	if _, _, err := Split(d, Range, 3, 2); err == nil {
		t.Error("out-of-range dimension must fail")
	}
	if _, _, err := Split(d, Range, 0, 0); err == nil {
		t.Error("zero shards must fail")
	}
	if _, _, err := Split(d, Policy(99), 0, 2); err == nil {
		t.Error("unknown policy must fail")
	}
}

func TestParsePolicyRoundTrips(t *testing.T) {
	for _, p := range []Policy{Range, Hash} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("mod"); err == nil {
		t.Error("unknown policy name must fail")
	}
}

// referenceSplit is Split as it was before SortByPred became a radix
// sort: a deep copy of d sorted by a stable comparator sort, which leaves
// the permutation the (key, index) comparator did. TestSplitUnchanged
// holds Split to it.
func referenceSplit(d *dataset.Dataset, policy Policy, dim, n int) ([]*dataset.Dataset, engine.ShardInfo, error) {
	if n > d.N() {
		n = d.N()
	}
	var shards []*dataset.Dataset
	info := engine.ShardInfo{Policy: policy.String(), Dim: dim}
	switch policy {
	case Range:
		sorted := d.Clone()
		idx := make([]int, sorted.N())
		for i := range idx {
			idx[i] = i
		}
		slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(d.Pred[dim][a], d.Pred[dim][b]) })
		sorted.Permute(idx)
		key := sorted.Pred[dim]
		lo := 0
		for i := 1; i <= n && lo < sorted.N(); i++ {
			hi := i * sorted.N() / n
			if i == n {
				hi = sorted.N()
			}
			for hi < sorted.N() && hi > 0 && key[hi] == key[hi-1] {
				hi++
			}
			if hi <= lo {
				continue
			}
			shards = append(shards, sorted.Slice(lo, hi).Clone())
			if hi < sorted.N() {
				info.Cuts = append(info.Cuts, key[hi])
			}
			lo = hi
		}
	case Hash:
		shards = make([]*dataset.Dataset, n)
		for i := range shards {
			shards[i] = dataset.New(d.Name, d.Dims())
			shards[i].ColNames = append([]string(nil), d.ColNames...)
		}
		for i := 0; i < d.N(); i++ {
			shards[hashKey(d.Pred[dim][i], n)].Append(d.Point(i), d.Agg[i])
		}
		for i, p := range shards {
			if p.N() == 0 {
				return nil, engine.ShardInfo{}, fmt.Errorf("shard: hash shard %d of %d is empty (too many shards for %d distinct keys?)", i, n, d.N())
			}
		}
	}
	info.Shards = len(shards)
	info.Bounds = make([]dataset.Rect, len(shards))
	for i, sd := range shards {
		info.Bounds[i] = sd.Bounds()
	}
	return shards, info, nil
}

// TestSplitUnchanged: on tables with heavy ties, signed zeros, negative
// keys and keys already in order, both policies give the reference's
// shards bit for bit, and its cuts and bounds.
func TestSplitUnchanged(t *testing.T) {
	rng := stats.NewRNG(11)
	negZero := math.Copysign(0, -1)
	keys := map[string]func(i int) float64{
		"ties":   func(i int) float64 { return float64(rng.Intn(9)) - 4 },
		"zeros":  func(i int) float64 { return []float64{0, negZero, 1, -1}[rng.Intn(4)] },
		"hours":  func(i int) float64 { return math.Round(rng.Float64()*24e3) / 1e3 },
		"sorted": func(i int) float64 { return float64(i / 5) },
	}
	bits := func(x []float64) []uint64 {
		out := make([]uint64, len(x))
		for i, v := range x {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	for name, key := range keys {
		for _, dims := range []int{1, 3} {
			d := dataset.New("t", dims)
			for i := 0; i < 5000; i++ {
				p := []float64{key(i), rng.Float64(), rng.NormMS(0, 1)}
				d.Append(p[:dims], rng.Float64()*100)
			}
			for _, policy := range []Policy{Range, Hash} {
				for _, dim := range []int{0, dims - 1} {
					for _, n := range []int{1, 3, 4, 7} {
						parts, info, err := Split(d, policy, dim, n)
						wantParts, wantInfo, wantErr := referenceSplit(d, policy, dim, n)
						if fmt.Sprint(err) != fmt.Sprint(wantErr) {
							t.Fatalf("%s %v dim %d n %d: error %v, want %v", name, policy, dim, n, err, wantErr)
						}
						if !reflect.DeepEqual(info, wantInfo) {
							t.Fatalf("%s %v dim %d n %d: info %+v, want %+v", name, policy, dim, n, info, wantInfo)
						}
						for i := range parts {
							got, want := parts[i], wantParts[i]
							same := slices.Equal(got.ColNames, want.ColNames) && slices.Equal(bits(got.Agg), bits(want.Agg))
							for c := 0; c < dims; c++ {
								same = same && slices.Equal(bits(got.Pred[c]), bits(want.Pred[c]))
							}
							if !same {
								t.Fatalf("%s %v dim %d n %d: shard %d differs from the reference's", name, policy, dim, n, i)
							}
						}
					}
				}
			}
		}
	}
}
