package merge_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/merge"
)

// fold merges parts the way the scatter layer does: one pooled
// accumulator, Add in slice order, Result.
func fold(kind dataset.AggKind, parts []core.Result) core.Result {
	m := merge.Get(kind)
	defer merge.Put(m)
	for _, p := range parts {
		m.Add(p)
	}
	return m.Result()
}

func TestAdditiveSumCombinesEstimatesVarianceAndBounds(t *testing.T) {
	parts := []core.Result{
		{Estimate: 10, CIHalf: 3, HardLo: 5, HardHi: 15, HardValid: true, Exact: false,
			TuplesRead: 7, MatchEst: 4, MatchCertain: true},
		{Estimate: 20, CIHalf: 4, HardLo: 18, HardHi: 25, HardValid: true, Exact: false,
			TuplesRead: 9, MatchEst: 6},
	}
	got := fold(dataset.Sum, parts)
	if got.Estimate != 30 {
		t.Errorf("Estimate = %v, want 30", got.Estimate)
	}
	if want := math.Sqrt(3*3 + 4*4); math.Abs(got.CIHalf-want) > 1e-12 {
		t.Errorf("CIHalf = %v, want %v (root-sum-of-squares)", got.CIHalf, want)
	}
	if got.HardLo != 23 || got.HardHi != 40 || !got.HardValid {
		t.Errorf("hard bounds = [%v, %v] valid=%v, want [23, 40] true", got.HardLo, got.HardHi, got.HardValid)
	}
	if got.TuplesRead != 16 || got.MatchEst != 10 || !got.MatchCertain {
		t.Errorf("diagnostics: read=%d matchEst=%v certain=%v", got.TuplesRead, got.MatchEst, got.MatchCertain)
	}
	if got.Exact {
		t.Error("merged Exact must require every partial exact")
	}
}

func TestAdditiveExactOnlyWhenAllExact(t *testing.T) {
	exact := core.Result{Estimate: 1, HardLo: 1, HardHi: 1, HardValid: true, Exact: true}
	got := fold(dataset.Count, []core.Result{exact, exact})
	if !got.Exact || got.Estimate != 2 {
		t.Errorf("two exact partials should merge exact: %+v", got)
	}
}

func TestWeightedAvgUsesCardinalityWeights(t *testing.T) {
	parts := []core.Result{
		{Estimate: 10, CIHalf: 1, MatchEst: 30, HardLo: 5, HardHi: 12, HardValid: true},
		{Estimate: 20, CIHalf: 2, MatchEst: 10, HardLo: 15, HardHi: 40, HardValid: true},
	}
	got := fold(dataset.Avg, parts)
	want := 0.75*10 + 0.25*20
	if math.Abs(got.Estimate-want) > 1e-12 {
		t.Errorf("Estimate = %v, want %v", got.Estimate, want)
	}
	wantCI := math.Sqrt(0.75*0.75*1 + 0.25*0.25*4)
	if math.Abs(got.CIHalf-wantCI) > 1e-12 {
		t.Errorf("CIHalf = %v, want %v", got.CIHalf, wantCI)
	}
	if got.HardLo != 5 || got.HardHi != 40 || !got.HardValid {
		t.Errorf("hard bounds = [%v, %v], want the value envelope [5, 40]", got.HardLo, got.HardHi)
	}
}

func TestMinOnlyCertainShardsTightenTheUpperBound(t *testing.T) {
	parts := []core.Result{
		// a shard that surely holds a match: observed minimum 5
		{Estimate: 5, HardLo: 3, HardHi: 5, HardValid: true, MatchCertain: true, MatchEst: 2},
		// a shard that MIGHT hold a match somewhere in [0, 2]: its envelope
		// must not drag the certain upper bound below the evidence
		{Estimate: 1, HardLo: 0, HardHi: 2, HardValid: true},
	}
	got := fold(dataset.Min, parts)
	if got.Estimate != 5 {
		t.Errorf("Estimate = %v, want the observed minimum 5", got.Estimate)
	}
	if got.HardLo != 0 || got.HardHi != 5 {
		t.Errorf("hard bounds = [%v, %v], want [0, 5]", got.HardLo, got.HardHi)
	}
	if got.NoMatch || !got.MatchCertain {
		t.Errorf("NoMatch=%v MatchCertain=%v", got.NoMatch, got.MatchCertain)
	}
}

func TestMaxSymmetricToMin(t *testing.T) {
	parts := []core.Result{
		{Estimate: 5, HardLo: 5, HardHi: 9, HardValid: true, MatchCertain: true},
		{Estimate: 50, HardLo: 40, HardHi: 60, HardValid: true}, // uncertain envelope
	}
	got := fold(dataset.Max, parts)
	if got.Estimate != 5 {
		t.Errorf("Estimate = %v, want 5 (only certain evidence)", got.Estimate)
	}
	if got.HardLo != 5 || got.HardHi != 60 {
		t.Errorf("hard bounds = [%v, %v], want [5, 60]", got.HardLo, got.HardHi)
	}
}

func TestWeightedAvgFallsBackToEqualWeightsWithoutEvidence(t *testing.T) {
	// inner engines that never populate MatchEst (comparators outside
	// internal/core) must not collapse a live AVG to NoMatch
	parts := []core.Result{
		{Estimate: 10, CIHalf: 2},
		{Estimate: 30, CIHalf: 2},
	}
	got := fold(dataset.Avg, parts)
	if got.NoMatch {
		t.Fatal("live partials without MatchEst merged to NoMatch")
	}
	if got.Estimate != 20 {
		t.Errorf("Estimate = %v, want the equal-weight mean 20", got.Estimate)
	}
	wantCI := math.Sqrt(0.25*4 + 0.25*4)
	if math.Abs(got.CIHalf-wantCI) > 1e-12 {
		t.Errorf("CIHalf = %v, want %v", got.CIHalf, wantCI)
	}
}

func TestMinWithoutCertaintyOrEnvelopesTakesEstimateExtremum(t *testing.T) {
	// neither MatchCertain nor hard bounds: extremum of point estimates
	parts := []core.Result{
		{Estimate: 7},
		{Estimate: 3},
	}
	if got := fold(dataset.Min, parts); got.Estimate != 3 || got.HardValid {
		t.Errorf("MIN merge = %+v, want estimate 3 without hard bounds", got)
	}
	if got := fold(dataset.Max, parts); got.Estimate != 7 || got.HardValid {
		t.Errorf("MAX merge = %+v, want estimate 7 without hard bounds", got)
	}
}

func TestMinAllUncertainFallsBackToEnvelopeMidpoint(t *testing.T) {
	parts := []core.Result{
		{Estimate: 1, HardLo: 0, HardHi: 2, HardValid: true},
		{Estimate: 7, HardLo: 6, HardHi: 8, HardValid: true},
	}
	got := fold(dataset.Min, parts)
	if got.HardLo != 0 || got.HardHi != 8 {
		t.Errorf("hard bounds = [%v, %v], want the union envelope [0, 8]", got.HardLo, got.HardHi)
	}
	if got.Estimate != 4 {
		t.Errorf("Estimate = %v, want the envelope midpoint 4", got.Estimate)
	}
	if got.MatchCertain {
		t.Error("no partial was certain")
	}
}

func TestNoMatchPartialsContributeOnlyDiagnostics(t *testing.T) {
	parts := []core.Result{
		{NoMatch: true, TuplesRead: 5},
		{Estimate: 3, HardLo: 3, HardHi: 3, HardValid: true, Exact: true, MatchEst: 1, MatchCertain: true},
	}
	got := fold(dataset.Sum, parts)
	if got.Estimate != 3 || !got.Exact || got.NoMatch {
		t.Errorf("merge with one NoMatch partial: %+v", got)
	}
	if got.TuplesRead != 5 {
		t.Errorf("TuplesRead = %d, want 5 (diagnostics aggregate over all shards)", got.TuplesRead)
	}
	all := fold(dataset.Avg, []core.Result{{NoMatch: true}, {NoMatch: true}})
	if !all.NoMatch {
		t.Error("all partials NoMatch must merge to NoMatch")
	}
	if empty := fold(dataset.Sum, nil); !empty.NoMatch {
		t.Error("empty partial list must merge to NoMatch")
	}
}

func TestGroupsMergePerKey(t *testing.T) {
	shard0 := []core.GroupResult{
		{Group: 1, Result: core.Result{Estimate: 10, HardLo: 10, HardHi: 10, HardValid: true, Exact: true}},
		{Group: 2, Result: core.Result{NoMatch: true}},
	}
	shard1 := []core.GroupResult{
		{Group: 1, Result: core.Result{Estimate: 5, HardLo: 5, HardHi: 5, HardValid: true, Exact: true}},
		{Group: 2, Result: core.Result{Estimate: 7, HardLo: 7, HardHi: 7, HardValid: true, Exact: true}},
	}
	got := merge.Groups(dataset.Sum, [][]core.GroupResult{shard0, shard1})
	if len(got) != 2 {
		t.Fatalf("got %d groups, want 2", len(got))
	}
	if got[0].Group != 1 || got[0].Result.Estimate != 15 {
		t.Errorf("group 1 = %+v, want estimate 15", got[0])
	}
	if got[1].Group != 2 || got[1].Result.Estimate != 7 || got[1].Result.NoMatch {
		t.Errorf("group 2 = %+v, want estimate 7 from the single matching shard", got[1])
	}
	if merge.Groups(dataset.Sum, nil) != nil {
		t.Error("no shards merge to nil groups")
	}
}
