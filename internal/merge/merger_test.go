package merge_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/merge"
)

// randParts builds a randomized slice of plausible partial results,
// including NoMatch, inexact, invalid-bound and uncertain shards.
func randParts(rng *rand.Rand, n int) []core.Result {
	parts := make([]core.Result, n)
	for i := range parts {
		p := &parts[i]
		p.TuplesRead = rng.Intn(1000)
		p.SkippedTuples = rng.Intn(1000)
		p.VisitedNodes = rng.Intn(100)
		p.CoveredParts = rng.Intn(10)
		p.PartialParts = rng.Intn(10)
		if rng.Float64() < 0.2 {
			p.NoMatch = true
			continue
		}
		p.Estimate = rng.NormFloat64() * 100
		p.CIHalf = rng.Float64() * 10
		p.HardLo = p.Estimate - rng.Float64()*20
		p.HardHi = p.Estimate + rng.Float64()*20
		p.HardValid = rng.Float64() < 0.8
		p.Exact = rng.Float64() < 0.3
		p.MatchEst = rng.Float64() * 500
		if rng.Float64() < 0.1 {
			p.MatchEst = 0
		}
		p.MatchCertain = rng.Float64() < 0.6
	}
	return parts
}

func closeTo(a, b, tol float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

// TestMergerOrderIndependence shuffles fold order; answers must agree to
// floating-point associativity tolerances.
func TestMergerOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, kind := range []dataset.AggKind{dataset.Sum, dataset.Avg, dataset.Min, dataset.Max} {
		parts := randParts(rng, 6)
		base := fold(kind, parts)
		for trial := 0; trial < 20; trial++ {
			shuffled := append([]core.Result(nil), parts...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			got := fold(kind, shuffled)
			if !closeTo(got.Estimate, base.Estimate, 1e-9) || !closeTo(got.CIHalf, base.CIHalf, 1e-9) {
				t.Fatalf("kind %v: order-dependent merge: %+v vs %+v", kind, got, base)
			}
		}
	}
}

// TestDegradeWidensByDroppedRows pins Degrade's compensation on top of a
// merged answer: COUNT shifts by half the dropped cardinality and absorbs
// all of it into the CI and the upper bound; the value aggregates keep
// their estimate and lose exactness and hard bounds.
func TestDegradeWidensByDroppedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, kind := range []dataset.AggKind{dataset.Count, dataset.Sum, dataset.Avg, dataset.Min} {
		base := fold(kind, randParts(rng, 5))
		got := base
		merge.Degrade(kind, &got, []int{100, 0, 250})
		if !got.Degraded {
			t.Fatalf("kind %v: not degraded", kind)
		}
		if kind == dataset.Count {
			if got.Estimate != base.Estimate+175 || got.CIHalf != base.CIHalf+175 ||
				got.HardHi != base.HardHi+350 || got.HardLo != base.HardLo || got.Exact || got.NoMatch {
				t.Fatalf("degraded COUNT %+v from %+v", got, base)
			}
			continue
		}
		if got.Estimate != base.Estimate || got.CIHalf != base.CIHalf || got.NoMatch != base.NoMatch {
			t.Fatalf("kind %v: degrade moved the estimate: %+v from %+v", kind, got, base)
		}
		if !base.NoMatch && (got.Exact || got.HardValid || got.HardLo != 0 || got.HardHi != 0) {
			t.Fatalf("kind %v: degraded answer kept exactness or hard bounds: %+v", kind, got)
		}
	}
	noop := core.Result{Estimate: 1, Exact: true}
	merge.Degrade(dataset.Count, &noop, nil)
	if noop.Degraded || !noop.Exact {
		t.Fatalf("nothing dropped must leave the result alone: %+v", noop)
	}
}

func TestMergerResetReuse(t *testing.T) {
	m := merge.Get(dataset.Sum)
	defer merge.Put(m)
	m.Add(core.Result{Estimate: 5, HardValid: true, Exact: true, MatchEst: 1})
	_ = m.Result()
	m.Reset(dataset.Min)
	if m.Kind() != dataset.Min {
		t.Fatal("kind not reset")
	}
	out := m.Result()
	if !out.NoMatch || out.Estimate != 0 || out.TuplesRead != 0 {
		t.Fatalf("reset merger leaked state: %+v", out)
	}
}

func TestPoolStatsCountReuse(t *testing.T) {
	g0, a0 := merge.PoolStats()
	for i := 0; i < 50; i++ {
		m := merge.Get(dataset.Sum)
		m.Add(core.Result{Estimate: 1, HardValid: true, Exact: true})
		_ = m.Result()
		merge.Put(m)
	}
	g1, a1 := merge.PoolStats()
	if g1-g0 != 50 {
		t.Fatalf("acquires = %d, want 50", g1-g0)
	}
	// Serial Get/Put must reuse; the pool may shed entries under GC
	// pressure, so only require that not every Get allocated.
	if a1-a0 >= 50 {
		t.Fatalf("no reuse: %d allocations for 50 acquires", a1-a0)
	}
}
