package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

var benchScanSink float64

// BenchmarkScanLeaf measures partial-leaf resolution for a SUM query whose
// interval half-covers one leaf — the inner loop of every partially
// covered frontier entry. With the columnar store the aligned 1D predicate
// resolves via binary search over the leaf's sorted samples plus two
// prefix lookups, instead of scanning every sample tuple.
func BenchmarkScanLeaf(b *testing.B) {
	d := dataset.GenNYCTaxi(100000, 1, 1)
	s, err := Build(d, Options{Partitions: 64, SampleSize: 16384, Kind: dataset.Sum, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	leaf := s.NumLeaves() / 2
	lo, hi := s.oneD.LeafValueRange(leaf)
	q := dataset.Rect1((lo+hi)/2, hi)
	sc := scratchFor(q)
	ls := s.scanLeaf(leaf, q, sc, false)
	if ls.kPred == 0 || ls.kPred == ls.k {
		b.Fatalf("query does not half-cover the leaf: %d of %d match", ls.kPred, ls.k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchScanSink += s.scanLeaf(leaf, q, sc, false).sum
	}
}

// kdBench builds a synopsis shaped like one shard of the repo benchmark's
// batch_kd table (3-D, 64 leaves, ~58 samples each) and 1024 unaligned
// boxes with batch_kd's width ranges, every dimension constrained.
func kdBench(b *testing.B) (*Synopsis, []dataset.Rect) {
	d := dataset.GenNYCTaxi(75000, 3, 1)
	s, err := BuildKD(d, Options{Partitions: 64, SampleSize: 3750, Kind: dataset.Sum, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(3)
	domain := []float64{24, 31, 263}
	width := [][2]float64{{4, 16}, {5, 20}, {40, 200}}
	boxes := make([]dataset.Rect, 1024)
	for i := range boxes {
		lo, hi := make([]float64, 3), make([]float64, 3)
		for c := range lo {
			w := width[c][0] + rng.Float64()*(width[c][1]-width[c][0])
			lo[c] = rng.Float64() * (domain[c] - w)
			hi[c] = lo[c] + w
		}
		boxes[i] = dataset.Rect{Lo: lo, Hi: hi}
	}
	return s, boxes
}

// BenchmarkScanLeafUnaligned measures leaf resolution when the predicate
// constrains dimensions other than the leaf's sort dimension, which runs
// the scan kernel. It rotates 1024 boxes over every leaf so that no branch
// predictor can learn the match pattern — replaying one predicate on one
// leaf reads several times faster than the same code on real traffic.
func BenchmarkScanLeafUnaligned(b *testing.B) {
	s, boxes := kdBench(b)
	sc := scratchFor(boxes[0]) // every box constrains all three dimensions
	rows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// the leaf advances with i and once more per pass over the boxes,
		// so each box meets every leaf
		ls := s.scanLeaf((i+i/len(boxes))%s.NumLeaves(), boxes[i%len(boxes)], sc, false)
		rows += ls.k
		benchScanSink += ls.sum
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
}

// BenchmarkQueryKD measures a whole core query — walk, leaf scans, fold —
// on the same synopsis and boxes, rotating batch_kd's three aggregates.
func BenchmarkQueryKD(b *testing.B) {
	s, boxes := kdBench(b)
	kinds := []dataset.AggKind{dataset.Sum, dataset.Count, dataset.Avg}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := s.Query(kinds[i%len(kinds)], boxes[i%len(boxes)])
		if err != nil {
			b.Fatal(err)
		}
		benchScanSink += r.Estimate
	}
}
