package sketch

import (
	"math"
	"testing"
)

// tripDistances is shaped like the served benchmark's aggregate column:
// log-normal trip distances in four decimals, from 0.01 to 80, so mostly
// distinct values with a few heavy ones.
func tripDistances(n int, seed uint64) []float64 {
	r := &rng{s: seed}
	out := make([]float64, n)
	for i := range out {
		// Box-Muller from two uniforms
		u, v := r.float64(), r.float64()
		z := math.Sqrt(-2*math.Log(1-u)) * math.Cos(2*math.Pi*v)
		d := math.Min(math.Exp(0.6+0.8*z), 80)
		out[i] = math.Max(math.Round(d*1e4)/1e4, 0.01)
	}
	return out
}

// BenchmarkSketchBuild builds one Set over a shard's worth (250k) of
// benchmark-shaped values, as a synopsis build does: go test -run '^$'
// -bench SketchBuild ./internal/sketch/
func BenchmarkSketchBuild(b *testing.B) {
	vals := tripDistances(250_000, 1)
	b.ReportAllocs()
	for b.Loop() {
		s := NewSet()
		for _, v := range vals {
			s.Add(v)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vals)), "ns/row")
}
