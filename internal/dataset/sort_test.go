package dataset

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// sortedSplit is SplitByPred as shard.Split did it before it ran in
// parallel: SortByPred, then each cut moved past the run of equal keys
// (by ==, so a NaN is a run of its own) at its rank.
func sortedSplit(d *Dataset, dim int, ranks []int) []*Dataset {
	sorted := d.Clone()
	sorted.SortByPred(dim)
	key := sorted.Pred[dim]
	var out []*Dataset
	lo := 0
	for i := 0; i <= len(ranks); i++ {
		hi := sorted.N()
		if i < len(ranks) {
			hi = ranks[i]
			for hi < sorted.N() && key[hi] == key[hi-1] {
				hi++
			}
		}
		if hi > lo {
			out = append(out, sorted.Slice(lo, hi).Clone())
			lo = hi
		}
	}
	return out
}

// TestSplitByPredMatchesSortedSplit: on keys that defeat the radix
// select's first digits (one exponent, the last bits only, one value), on
// clusters that fill msdSort's buckets, on signed zeros and NaNs, and at
// many part counts, SplitByPred gives the parts of the whole sorted order
// bit for bit.
func TestSplitByPredMatchesSortedSplit(t *testing.T) {
	rng := stats.NewRNG(5)
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	gens := map[string]func() float64{
		"hours":  func() float64 { return math.Round(rng.Float64()*24e4) / 1e4 },
		"stamps": func() float64 { return 1.7e9 + float64(rng.Intn(1<<20)) },
		"ulps":   func() float64 { return math.Float64frombits(math.Float64bits(3) + uint64(rng.Intn(40))) },
		"same":   func() float64 { return 7 },
		// two far clusters of close keys: msdSort's buckets outgrow
		// insertion sort and take radixSort
		"clusters": func() float64 {
			return math.Float64frombits(math.Float64bits([]float64{1, 1e6}[rng.Intn(2)]) + uint64(rng.Intn(1<<12)))
		},
		"zeros": func() float64 { return []float64{0, negZero, 1, -1}[rng.Intn(4)] },
		"nans":  func() float64 { return []float64{nan, 2, -nan, math.Inf(1), 5}[rng.Intn(5)] },
		"mixed": func() float64 { return rng.NormMS(0, 1e3) * math.Pow(10, float64(rng.Intn(40)-20)) },
	}
	for name, gen := range gens {
		for _, n := range []int{1, 7, 5000, 20011} {
			d := New("t", 2)
			for i := 0; i < n; i++ {
				d.Append([]float64{rng.Float64(), gen()}, float64(i))
			}
			for _, parts := range []int{1, 2, 4, 9, 64} {
				if parts > n {
					continue
				}
				ranks := make([]int, parts-1)
				for i := range ranks {
					ranks[i] = (i + 1) * n / parts
				}
				got, want := d.SplitByPred(1, ranks), sortedSplit(d, 1, ranks)
				if len(got) != len(want) {
					t.Fatalf("%s, n=%d, %d parts: %d parts, want %d", name, n, parts, len(got), len(want))
				}
				for i := range got {
					if !sameBits(got[i], want[i]) || got[i].Name != want[i].Name {
						t.Fatalf("%s, n=%d, %d parts: part %d holds rows %v, want %v", name, n, parts, i, got[i].Agg, want[i].Agg)
					}
				}
			}
		}
	}
}
