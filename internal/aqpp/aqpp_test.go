package aqpp

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

func TestNewValidation(t *testing.T) {
	d := dataset.GenUniform(100, 1, 1, 1)
	if _, err := New(dataset.New("e", 1), Options{Partitions: 4, SampleSize: 10}); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := New(d, Options{SampleSize: 10}); err == nil {
		t.Error("zero partitions accepted")
	}
	if _, err := New(d, Options{Partitions: 4}); err == nil {
		t.Error("zero sample accepted")
	}
}

func TestAlignedQueryIsExact(t *testing.T) {
	d := dataset.GenNYCTaxi(5000, 1, 2)
	e, err := New(d, Options{Partitions: 16, SampleSize: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	full := dataset.Rect1(math.Inf(-1), math.Inf(1))
	for _, kind := range []dataset.AggKind{dataset.Sum, dataset.Count, dataset.Avg} {
		truth, _ := d.Exact(kind, full)
		r, err := e.Query(kind, full)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.Estimate-truth) > 1e-6*(1+math.Abs(truth)) {
			t.Errorf("%v full-span: %v != %v", kind, r.Estimate, truth)
		}
		if !r.Exact {
			t.Errorf("%v full-span should be exact", kind)
		}
	}
}

func TestAccuracyBetweenUSAndExact(t *testing.T) {
	d := dataset.GenNYCTaxi(20000, 1, 4)
	e, err := New(d, Options{Partitions: 64, SampleSize: 1000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(6)
	errs := []float64{}
	for trial := 0; trial < 100; trial++ {
		a, b := rng.Float64()*24, rng.Float64()*24
		if math.Abs(a-b) < 2 {
			continue
		}
		q := dataset.Rect1(math.Min(a, b), math.Max(a, b))
		truth, err := d.Exact(dataset.Sum, q)
		if err != nil || truth == 0 {
			continue
		}
		r, _ := e.Query(dataset.Sum, q)
		errs = append(errs, r.RelativeError(truth))
	}
	if med := stats.Median(errs); med > 0.1 {
		t.Errorf("AQP++ median relative error = %v", med)
	}
}

func TestCICoverage(t *testing.T) {
	d := dataset.GenNYCTaxi(20000, 1, 7)
	e, err := New(d, Options{Partitions: 32, SampleSize: 1000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(9)
	covered, total := 0, 0
	for trial := 0; trial < 200; trial++ {
		a, b := rng.Float64()*24, rng.Float64()*24
		if math.Abs(a-b) < 2 {
			continue
		}
		q := dataset.Rect1(math.Min(a, b), math.Max(a, b))
		truth, err := d.Exact(dataset.Sum, q)
		if err != nil || truth == 0 {
			continue
		}
		r, _ := e.Query(dataset.Sum, q)
		total++
		if math.Abs(r.Estimate-truth) <= r.CIHalf+1e-9 {
			covered++
		}
	}
	if total == 0 {
		t.Fatal("no usable queries")
	}
	if frac := float64(covered) / float64(total); frac < 0.9 {
		t.Errorf("coverage = %.2f", frac)
	}
}

func TestAvgWeightedCombination(t *testing.T) {
	d := dataset.GenIntelWireless(10000, 10)
	e, err := New(d, Options{Partitions: 32, SampleSize: 500, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(12)
	errs := []float64{}
	for trial := 0; trial < 60; trial++ {
		a, b := rng.Float64()*10000, rng.Float64()*10000
		if math.Abs(a-b) < 500 {
			continue
		}
		q := dataset.Rect1(math.Min(a, b), math.Max(a, b))
		truth, err := d.Exact(dataset.Avg, q)
		if err != nil {
			continue
		}
		r, _ := e.Query(dataset.Avg, q)
		if r.NoMatch {
			continue
		}
		errs = append(errs, r.RelativeError(truth))
	}
	if med := stats.Median(errs); med > 0.1 {
		t.Errorf("AQP++ AVG median relative error = %v", med)
	}
}

func TestKDVariant(t *testing.T) {
	d := dataset.GenNYCTaxi(8000, 2, 13)
	e, err := NewKD(d, Options{Partitions: 64, SampleSize: 800, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "KD-US" {
		t.Errorf("name = %q", e.Name())
	}
	if e.NumLeaves() < 16 {
		t.Errorf("leaves = %d", e.NumLeaves())
	}
	rng := stats.NewRNG(15)
	errs := []float64{}
	for trial := 0; trial < 50; trial++ {
		lo := []float64{rng.Float64() * 12, rng.Float64() * 15}
		hi := []float64{lo[0] + 6 + rng.Float64()*6, lo[1] + 8 + rng.Float64()*8}
		q := dataset.Rect{Lo: lo, Hi: hi}
		truth, err := d.Exact(dataset.Sum, q)
		if err != nil || truth == 0 {
			continue
		}
		r, err := e.Query(dataset.Sum, q)
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, r.RelativeError(truth))
	}
	if med := stats.Median(errs); med > 0.2 {
		t.Errorf("KD AQP++ median relative error = %v", med)
	}
}

func TestUnsupportedKind(t *testing.T) {
	d := dataset.GenUniform(200, 1, 1, 16)
	e, err := New(d, Options{Partitions: 4, SampleSize: 50, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(dataset.Min, dataset.Rect1(0, 1)); err == nil {
		t.Error("AQP++ should reject MIN")
	}
	if e.MemoryBytes() <= 0 {
		t.Error("MemoryBytes must be positive")
	}
}

// TestKDLeavesInputUnchanged: the KD-US builds read the columns of the
// datasets they are given, the projected one included, without writing
// them.
func TestKDLeavesInputUnchanged(t *testing.T) {
	full := dataset.GenNYCTaxi(5000, 3, 16)
	indexed := dataset.New(full.Name, 2)
	indexed.Pred, indexed.Agg = full.Pred[:2], full.Agg
	before := full.Clone()
	if _, err := NewKD(full, Options{Partitions: 64, SampleSize: 500, Seed: 17}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewKDWithPoints(full, indexed, Options{Partitions: 32, SampleSize: 500, Seed: 18}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, before) {
		t.Fatal("a KD-US build changed its input columns")
	}
}
