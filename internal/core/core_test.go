package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kdtree"
	"repro/internal/stats"
)

func build1D(t *testing.T, d *dataset.Dataset, k int, rate float64) *Synopsis {
	t.Helper()
	s, err := Build(d, Options{Partitions: k, SampleRate: rate, Kind: dataset.Sum, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildValidation(t *testing.T) {
	d := dataset.GenUniform(100, 1, 10, 1)
	if _, err := Build(d, Options{}); err == nil {
		t.Error("zero partitions accepted")
	}
	if _, err := Build(d, Options{Partitions: 4}); err == nil {
		t.Error("missing sample budget accepted")
	}
	if _, err := Build(dataset.New("e", 1), Options{Partitions: 4, SampleRate: 0.1}); err == nil {
		t.Error("empty dataset accepted")
	}
	multi := dataset.GenUniform(100, 2, 10, 1)
	if _, err := Build(multi, Options{Partitions: 4, SampleRate: 0.1}); err == nil {
		t.Error("multi-dim dataset accepted by 1D Build")
	}
}

func TestBuildBasics(t *testing.T) {
	d := dataset.GenIntelWireless(5000, 1)
	s := build1D(t, d, 16, 0.05)
	if s.NumLeaves() > 16 || s.NumLeaves() < 2 {
		t.Errorf("leaves = %d", s.NumLeaves())
	}
	if s.TotalSamples() < 200 || s.TotalSamples() > 300 {
		t.Errorf("total samples = %d, want ~250", s.TotalSamples())
	}
	if s.N() != 5000 || s.Dims() != 1 {
		t.Errorf("N=%d dims=%d", s.N(), s.Dims())
	}
	if s.MemoryBytes() <= 0 {
		t.Error("MemoryBytes must be positive")
	}
}

func TestQueryExactWhenAligned(t *testing.T) {
	// a query spanning everything must be answered exactly from the root
	d := dataset.GenIntelWireless(3000, 2)
	s := build1D(t, d, 8, 0.05)
	for _, kind := range []dataset.AggKind{dataset.Sum, dataset.Count, dataset.Avg, dataset.Min, dataset.Max} {
		r, err := s.Query(kind, dataset.Rect1(math.Inf(-1), math.Inf(1)))
		if err != nil {
			t.Fatal(err)
		}
		truth, _ := d.Exact(kind, dataset.Rect1(math.Inf(-1), math.Inf(1)))
		if !r.Exact {
			t.Errorf("%v: full-span query not exact", kind)
		}
		if r.RelativeError(truth) > 1e-9 {
			t.Errorf("%v: estimate %v != truth %v", kind, r.Estimate, truth)
		}
		if r.CIHalf != 0 {
			t.Errorf("%v: exact query has non-zero CI %v", kind, r.CIHalf)
		}
	}
}

func TestQueryAccuracySumCountAvg(t *testing.T) {
	d := dataset.GenNYCTaxi(20000, 1, 3)
	s := build1D(t, d, 64, 0.05)
	rng := stats.NewRNG(7)
	for _, kind := range []dataset.AggKind{dataset.Sum, dataset.Count, dataset.Avg} {
		errs := make([]float64, 0, 100)
		for trial := 0; trial < 100; trial++ {
			a, b := rng.Float64()*24, rng.Float64()*24
			q := dataset.Rect1(math.Min(a, b), math.Max(a, b))
			truth, err := d.Exact(kind, q)
			if err != nil {
				continue
			}
			if kind != dataset.Count && truth == 0 {
				continue
			}
			r, err := s.Query(kind, q)
			if err != nil {
				t.Fatal(err)
			}
			if r.NoMatch {
				continue
			}
			errs = append(errs, r.RelativeError(truth))
		}
		med := stats.Median(errs)
		if med > 0.05 {
			t.Errorf("%v: median relative error %v too large", kind, med)
		}
	}
}

func TestHardBoundsAlwaysContainTruth(t *testing.T) {
	d := dataset.GenNYCTaxi(8000, 1, 5)
	s := build1D(t, d, 32, 0.02)
	rng := stats.NewRNG(9)
	for trial := 0; trial < 300; trial++ {
		a, b := rng.Float64()*24, rng.Float64()*24
		q := dataset.Rect1(math.Min(a, b), math.Max(a, b))
		for _, kind := range []dataset.AggKind{dataset.Sum, dataset.Count, dataset.Avg, dataset.Min, dataset.Max} {
			truth, err := d.Exact(kind, q)
			r, qerr := s.Query(kind, q)
			if qerr != nil {
				t.Fatal(qerr)
			}
			if err == dataset.ErrNoMatch || !r.HardValid {
				continue
			}
			if truth < r.HardLo-1e-6 || truth > r.HardHi+1e-6 {
				t.Fatalf("trial %d %v: truth %v outside hard bounds [%v, %v]",
					trial, kind, truth, r.HardLo, r.HardHi)
			}
		}
	}
}

func TestHardBoundsWithNegativeValues(t *testing.T) {
	d := dataset.New("neg", 1)
	rng := stats.NewRNG(4)
	for i := 0; i < 2000; i++ {
		d.Append([]float64{float64(i)}, rng.NormMS(0, 10)) // centred on zero
	}
	s := build1D(t, d, 16, 0.05)
	for trial := 0; trial < 100; trial++ {
		a, b := rng.Float64()*2000, rng.Float64()*2000
		q := dataset.Rect1(math.Min(a, b), math.Max(a, b))
		truth, err := d.Exact(dataset.Sum, q)
		if err != nil {
			continue
		}
		r, _ := s.Query(dataset.Sum, q)
		if r.HardValid && (truth < r.HardLo-1e-6 || truth > r.HardHi+1e-6) {
			t.Fatalf("trial %d: SUM truth %v outside [%v, %v]", trial, truth, r.HardLo, r.HardHi)
		}
	}
}

func TestCICoverage(t *testing.T) {
	// with λ = 2.576 (99%), the CLT interval should contain the truth in
	// the vast majority of queries
	d := dataset.GenNYCTaxi(20000, 1, 6)
	s := build1D(t, d, 64, 0.05)
	rng := stats.NewRNG(11)
	covered, total := 0, 0
	for trial := 0; trial < 300; trial++ {
		a, b := rng.Float64()*24, rng.Float64()*24
		if math.Abs(a-b) < 0.5 {
			continue
		}
		q := dataset.Rect1(math.Min(a, b), math.Max(a, b))
		truth, err := d.Exact(dataset.Sum, q)
		if err != nil || truth == 0 {
			continue
		}
		r, _ := s.Query(dataset.Sum, q)
		total++
		if math.Abs(r.Estimate-truth) <= r.CIHalf+1e-9 {
			covered++
		}
	}
	if total < 100 {
		t.Fatalf("too few usable queries: %d", total)
	}
	if frac := float64(covered) / float64(total); frac < 0.90 {
		t.Errorf("99%% CI covered only %.1f%% of queries", frac*100)
	}
}

func TestSkipRateSelectiveQuery(t *testing.T) {
	d := dataset.GenIntelWireless(10000, 7)
	s := build1D(t, d, 64, 0.05)
	// narrow query: most partitions should be skipped
	r, err := s.Query(dataset.Sum, dataset.Rect1(100, 200))
	if err != nil {
		t.Fatal(err)
	}
	if sr := r.SkipRate(s.N()); sr < 0.9 {
		t.Errorf("skip rate %v too low for a selective query", sr)
	}
	if r.TuplesRead > s.TotalSamples() {
		t.Errorf("read %d tuples, more than the stored samples %d", r.TuplesRead, s.TotalSamples())
	}
}

func TestESSReadOnlyPartialLeaves(t *testing.T) {
	d := dataset.GenIntelWireless(10000, 8)
	s := build1D(t, d, 64, 0.1)
	// a wide query with aligned-ish bounds reads only boundary strata
	r, _ := s.Query(dataset.Sum, dataset.Rect1(1000, 9000))
	if r.PartialParts > 4 {
		t.Errorf("1D interval query touched %d partial leaves, want <= 2-4", r.PartialParts)
	}
}

func TestAvgNoMatch(t *testing.T) {
	d := dataset.GenUniform(1000, 1, 10, 9)
	s := build1D(t, d, 8, 0.05)
	r, err := s.Query(dataset.Avg, dataset.Rect1(100, 200))
	if err != nil {
		t.Fatal(err)
	}
	if !r.NoMatch {
		t.Error("disjoint AVG query should report NoMatch")
	}
}

func TestZeroVarianceRuleImprovesAvgOnAdversarial(t *testing.T) {
	d := dataset.GenAdversarial(20000, 10)
	on, err := Build(d, Options{Partitions: 32, SampleRate: 0.01, Kind: dataset.Avg, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Build(d, Options{Partitions: 32, SampleRate: 0.01, Kind: dataset.Avg, Seed: 1, DisableZeroVariance: true})
	if err != nil {
		t.Fatal(err)
	}
	// query strictly inside the constant-zero region
	q := dataset.Rect1(100, 12000)
	rOn, _ := on.Query(dataset.Avg, q)
	rOff, _ := off.Query(dataset.Avg, q)
	if rOn.TuplesRead > rOff.TuplesRead {
		t.Errorf("rule should not read more samples: %d > %d", rOn.TuplesRead, rOff.TuplesRead)
	}
	if math.Abs(rOn.Estimate) > 1e-9 {
		t.Errorf("AVG inside the zero region = %v, want 0", rOn.Estimate)
	}
}

func TestMinMaxEstimates(t *testing.T) {
	d := dataset.GenNYCTaxi(10000, 1, 11)
	s := build1D(t, d, 32, 0.1)
	rng := stats.NewRNG(12)
	for trial := 0; trial < 50; trial++ {
		a, b := rng.Float64()*24, rng.Float64()*24
		if math.Abs(a-b) < 2 {
			continue
		}
		q := dataset.Rect1(math.Min(a, b), math.Max(a, b))
		truthMin, err := d.Exact(dataset.Min, q)
		if err != nil {
			continue
		}
		truthMax, _ := d.Exact(dataset.Max, q)
		rMin, _ := s.Query(dataset.Min, q)
		rMax, _ := s.Query(dataset.Max, q)
		// sampled MIN estimate can only overestimate; MAX underestimate
		if !rMin.NoMatch && rMin.Estimate < truthMin-1e-9 {
			t.Errorf("MIN estimate %v below truth %v", rMin.Estimate, truthMin)
		}
		if !rMax.NoMatch && rMax.Estimate > truthMax+1e-9 {
			t.Errorf("MAX estimate %v above truth %v", rMax.Estimate, truthMax)
		}
	}
}

func TestPartitionerVariants(t *testing.T) {
	d := dataset.GenAdversarial(5000, 13)
	for _, p := range []Partitioner{PartitionADP, PartitionEqualDepth, PartitionHillClimb} {
		s, err := Build(d, Options{Partitions: 16, SampleRate: 0.02, Kind: dataset.Sum, Partitioner: p, Seed: 3})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		r, err := s.Query(dataset.Sum, dataset.Rect1(0, 2500))
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		truth, _ := d.Exact(dataset.Sum, dataset.Rect1(0, 2500))
		if r.HardValid && (truth < r.HardLo-1e-6 || truth > r.HardHi+1e-6) {
			t.Errorf("%v: hard bounds violated", p)
		}
	}
	if PartitionADP.String() != "ADP" || PartitionEqualDepth.String() != "EQ" {
		t.Error("Partitioner.String broken")
	}
}

func TestBuildKDAndQuery(t *testing.T) {
	d := dataset.GenNYCTaxi(10000, 3, 14)
	s, err := BuildKD(d, Options{
		Partitions: 64, SampleRate: 0.05, Kind: dataset.Sum, Seed: 5,
		KD: kdtree.Options{MaxLeaves: 64, Kind: dataset.Sum},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Dims() != 3 {
		t.Fatalf("dims = %d", s.Dims())
	}
	rng := stats.NewRNG(15)
	errs := []float64{}
	for trial := 0; trial < 60; trial++ {
		q := randomTaxiRect(rng, 3)
		truth, err := d.Exact(dataset.Sum, q)
		if err != nil || truth == 0 {
			continue
		}
		r, err := s.Query(dataset.Sum, q)
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, r.RelativeError(truth))
		if r.HardValid && (truth < r.HardLo-1e-6 || truth > r.HardHi+1e-6) {
			t.Fatalf("trial %d: hard bounds violated", trial)
		}
	}
	if med := stats.Median(errs); med > 0.25 {
		t.Errorf("3D median relative error %v too large", med)
	}
}

func TestKDWorkloadShift(t *testing.T) {
	// a synopsis indexing only 2 of 3 predicate columns answering 3D
	// queries: still correct, never certifies covered nodes, and skips
	// disjoint regions
	d := dataset.GenNYCTaxi(8000, 3, 16)
	s, err := BuildKD(d, Options{Partitions: 64, SampleRate: 0.1, Kind: dataset.Sum, Seed: 6, IndexDims: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(17)
	for trial := 0; trial < 40; trial++ {
		q := randomTaxiRect(rng, 3)
		truth, err := d.Exact(dataset.Sum, q)
		if err != nil || truth == 0 {
			continue
		}
		r, err := s.Query(dataset.Sum, q)
		if err != nil {
			t.Fatal(err)
		}
		if r.CoveredParts != 0 {
			t.Errorf("trial %d: workload-shift query certified %d covered parts", trial, r.CoveredParts)
		}
		_ = truth
	}
}

func randomTaxiRect(rng *stats.RNG, dims int) dataset.Rect {
	scales := []float64{24, 31, 263, 31, 24}
	lo := make([]float64, dims)
	hi := make([]float64, dims)
	for c := 0; c < dims; c++ {
		a, b := rng.Float64()*scales[c], rng.Float64()*scales[c]
		lo[c], hi[c] = math.Min(a, b), math.Max(a, b)
		// widen narrow dims so queries usually match something
		if hi[c]-lo[c] < scales[c]*0.3 {
			hi[c] = math.Min(lo[c]+scales[c]*0.3, scales[c])
		}
	}
	return dataset.Rect{Lo: lo, Hi: hi}
}

func TestEstimatorConsistencyAsKGrowsToN(t *testing.T) {
	// with a 100% sample, sample estimates must be exact
	d := dataset.GenNYCTaxi(3000, 1, 18)
	s, err := Build(d, Options{Partitions: 8, SampleRate: 1.0, Kind: dataset.Sum, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(19)
	for trial := 0; trial < 50; trial++ {
		a, b := rng.Float64()*24, rng.Float64()*24
		q := dataset.Rect1(math.Min(a, b), math.Max(a, b))
		truth, err := d.Exact(dataset.Sum, q)
		if err != nil {
			continue
		}
		r, _ := s.Query(dataset.Sum, q)
		if r.RelativeError(truth) > 1e-6 && math.Abs(truth) > 1e-9 {
			t.Fatalf("full-sample SUM estimate %v != truth %v", r.Estimate, truth)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	d := dataset.GenUniform(100, 1, 1, 20)
	s := build1D(t, d, 4, 0.1)
	if _, err := s.Query(dataset.Sum, dataset.Rect{}); err == nil {
		t.Error("empty rectangle accepted")
	}
	if _, err := s.Query(dataset.AggKind(99), dataset.Rect1(0, 1)); err == nil {
		t.Error("unknown aggregate accepted")
	}
}

// TestBuildLeavesInputUntouched: Build sorts a view of its input, not a
// copy, so it must neither write into the caller's columns nor keep them
// (on sorted input the view shares them). The input is unchanged after
// the build, writing over it afterwards moves no answer, and sorted and
// unsorted input save the same bytes.
func TestBuildLeavesInputUntouched(t *testing.T) {
	unsorted := dataset.GenNYCTaxi(4000, 1, 7)
	unsorted.Permute(stats.NewRNG(7).Perm(unsorted.N()))
	sorted := unsorted.Clone()
	sorted.SortByPred(0)
	if sameRows(unsorted, sorted) {
		t.Fatal("premise: the generated rows are already sorted")
	}
	for _, p := range []Partitioner{PartitionADP, PartitionEqualDepth, PartitionHillClimb, PartitionVOptimal} {
		opts := Options{Partitions: 16, SampleRate: 0.05, Partitioner: p, Seed: 3}
		var saved [][]byte
		for _, d := range []*dataset.Dataset{unsorted, sorted} {
			before := d.Clone()
			s, err := Build(d, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRows(d, before) {
				t.Fatalf("%v: Build changed its input", p)
			}
			saved = append(saved, saveBytes(t, s))
			want := answers(s, 5)
			for c := range d.Pred {
				for i := range d.Pred[c] {
					d.Pred[c][i] = -1
				}
			}
			for i := range d.Agg {
				d.Agg[i] = 1e9
			}
			sameAnswers(t, fmt.Sprintf("%v after the input was overwritten", p), want, answers(s, 5))
			*d = *before
		}
		if !bytes.Equal(saved[0], saved[1]) {
			t.Errorf("%v: unsorted input saves %d bytes unlike sorted input's %d", p, len(saved[0]), len(saved[1]))
		}
	}
}

// sameRows reports whether two datasets hold the same rows, bit for bit,
// in the same order.
func sameRows(a, b *dataset.Dataset) bool {
	if a.N() != b.N() || a.Dims() != b.Dims() {
		return false
	}
	for i := 0; i < a.N(); i++ {
		if math.Float64bits(a.Agg[i]) != math.Float64bits(b.Agg[i]) {
			return false
		}
		for c := range a.Pred {
			if math.Float64bits(a.Pred[c][i]) != math.Float64bits(b.Pred[c][i]) {
				return false
			}
		}
	}
	return true
}
