package core

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

func TestInsertMaintainsExactAggregates(t *testing.T) {
	d := dataset.GenUniform(2000, 1, 100, 1)
	s := build1D(t, d, 16, 0.05)
	live := d.Clone()
	rng := stats.NewRNG(2)
	for i := 0; i < 500; i++ {
		pt := rng.Float64()
		v := rng.Float64() * 100
		if err := s.Insert([]float64{pt}, v); err != nil {
			t.Fatal(err)
		}
		live.Append([]float64{pt}, v)
	}
	if s.N() != 2500 {
		t.Fatalf("N = %d, want 2500", s.N())
	}
	// full-span SUM and COUNT must remain exact after updates
	full := dataset.Rect1(math.Inf(-1), math.Inf(1))
	for _, kind := range []dataset.AggKind{dataset.Sum, dataset.Count} {
		truth, _ := live.Exact(kind, full)
		r, err := s.Query(kind, full)
		if err != nil {
			t.Fatal(err)
		}
		if r.RelativeError(truth) > 1e-9 {
			t.Errorf("%v after inserts: %v != %v", kind, r.Estimate, truth)
		}
	}
}

func TestInsertKeepsEstimatesReasonable(t *testing.T) {
	d := dataset.GenUniform(5000, 1, 100, 3)
	s := build1D(t, d, 16, 0.1)
	live := d.Clone()
	rng := stats.NewRNG(4)
	for i := 0; i < 2000; i++ {
		pt := rng.Float64()
		v := rng.Float64() * 100
		if err := s.Insert([]float64{pt}, v); err != nil {
			t.Fatal(err)
		}
		live.Append([]float64{pt}, v)
	}
	errs := []float64{}
	for trial := 0; trial < 60; trial++ {
		a, b := rng.Float64(), rng.Float64()
		if math.Abs(a-b) < 0.1 {
			continue
		}
		q := dataset.Rect1(math.Min(a, b), math.Max(a, b))
		truth, err := live.Exact(dataset.Sum, q)
		if err != nil || truth == 0 {
			continue
		}
		r, _ := s.Query(dataset.Sum, q)
		errs = append(errs, r.RelativeError(truth))
	}
	if med := stats.Median(errs); med > 0.1 {
		t.Errorf("median relative error after heavy inserts = %v", med)
	}
}

func TestReservoirSampleSizeStable(t *testing.T) {
	d := dataset.GenUniform(2000, 1, 100, 5)
	s := build1D(t, d, 8, 0.05)
	k0 := s.TotalSamples()
	rng := stats.NewRNG(6)
	for i := 0; i < 5000; i++ {
		if err := s.Insert([]float64{rng.Float64()}, rng.Float64()*100); err != nil {
			t.Fatal(err)
		}
	}
	if k := s.TotalSamples(); k > k0 {
		t.Errorf("sample grew from %d to %d; reservoir must cap it", k0, k)
	}
	if k := s.TotalSamples(); k < k0-1 {
		t.Errorf("sample shrank from %d to %d", k0, k)
	}
}

func TestDelete(t *testing.T) {
	d := dataset.GenUniform(1000, 1, 100, 7)
	s := build1D(t, d, 8, 0.1)
	before, _ := s.Query(dataset.Count, dataset.Rect1(math.Inf(-1), math.Inf(1)))
	if err := s.Delete([]float64{d.Pred[0][10]}, d.Agg[10]); err != nil {
		t.Fatal(err)
	}
	after, _ := s.Query(dataset.Count, dataset.Rect1(math.Inf(-1), math.Inf(1)))
	if after.Estimate != before.Estimate-1 {
		t.Errorf("COUNT after delete = %v, want %v", after.Estimate, before.Estimate-1)
	}
}

func TestUpdateRejectedOnKD(t *testing.T) {
	d := dataset.GenNYCTaxi(1000, 2, 8)
	s, err := BuildKD(d, Options{Partitions: 16, SampleRate: 0.1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert([]float64{1, 1}, 5); err == nil {
		t.Error("Insert on KD synopsis should fail")
	}
	if err := s.Delete([]float64{1, 1}, 5); err == nil {
		t.Error("Delete on KD synopsis should fail")
	}
}

func TestInsertValidation(t *testing.T) {
	d := dataset.GenUniform(100, 1, 10, 10)
	s := build1D(t, d, 4, 0.1)
	if err := s.Insert(nil, 1); err == nil {
		t.Error("Insert with empty point accepted")
	}
	if err := s.Delete(nil, 1); err == nil {
		t.Error("Delete with empty point accepted")
	}
	if err := s.CheckDelete(nil, 1); err == nil {
		t.Error("CheckDelete passed an empty point")
	}
}

// TestCheckDelete: a delete of a present row passes; one whose value is
// outside its leaf's [Min, Max], whose key is outside its leaf's keys, or
// whose value is NaN is refused with ErrNoSuchRow, and nothing changes.
func TestCheckDelete(t *testing.T) {
	d := dataset.GenUniform(1000, 1, 100, 11)
	s := build1D(t, d, 8, 0.1)
	for i := 0; i < d.N(); i += 97 {
		if err := s.CheckDelete([]float64{d.Pred[0][i]}, d.Agg[i]); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	lo, hi := d.AggBounds()
	before := saveBytes(t, s)
	for _, bad := range [][2]float64{{d.Pred[0][3], hi + 1}, {d.Pred[0][3], lo - 1}, {d.Pred[0][3], math.NaN()}, {-1e9, d.Agg[3]}, {1e9, d.Agg[3]}} {
		if err := s.CheckDelete([]float64{bad[0]}, bad[1]); !errors.Is(err, ErrNoSuchRow) {
			t.Errorf("delete of key %v value %v: %v, want ErrNoSuchRow", bad[0], bad[1], err)
		}
	}
	if !bytes.Equal(saveBytes(t, s), before) {
		t.Error("CheckDelete changed the synopsis")
	}
}

// TestInsertEvictsUniformly streams 100k equal-valued rows into a
// one-leaf synopsis. The victim of each accepted insert must be a uniform
// pick among the stored rows: evicting by value — the first equal-valued
// sample in the leaf — would drain the samples from the low end of the
// leaf and leave COUNT over [0, 0.5] near zero.
func TestInsertEvictsUniformly(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		rng := stats.NewRNG(seed)
		d := dataset.New("ones", 1)
		for i := 0; i < 10_000; i++ {
			d.Append([]float64{rng.Float64()}, 1)
		}
		s, err := Build(d, Options{Partitions: 1, SampleSize: 500, Kind: dataset.Count, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		q := dataset.Rect1(0, 0.5)
		truth := float64(d.CountMatching(q))
		for i := 0; i < 100_000; i++ {
			p := rng.Float64()
			if err := s.Insert([]float64{p}, 1); err != nil {
				t.Fatal(err)
			}
			if p <= 0.5 {
				truth++
			}
		}
		r, err := s.Query(dataset.Count, q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.Estimate-truth) > r.CIHalf {
			t.Errorf("seed %d: COUNT = %.0f ± %.0f, truth %.0f", seed, r.Estimate, r.CIHalf, truth)
		}
	}
}

// TestDeleteUnsampledRowKeepsSamples deletes rows that share their value
// with every sample in their leaf but are not sampled themselves: the
// samples must stay as they were.
func TestDeleteUnsampledRowKeepsSamples(t *testing.T) {
	rng := stats.NewRNG(3)
	d := dataset.New("ones", 1)
	for i := 0; i < 2000; i++ {
		d.Append([]float64{rng.Float64()}, 1)
	}
	s := build1D(t, d, 4, 0.05)
	sampled := map[float64]bool{}
	for leaf := 0; leaf < s.NumLeaves(); leaf++ {
		for _, st := range s.LeafSamples(leaf) {
			sampled[st.Point[0]] = true
		}
	}
	k0 := s.TotalSamples()
	deleted := 0
	for i, p := range d.Pred[0] {
		if deleted == 50 {
			break
		}
		if sampled[p] {
			continue
		}
		leaf := s.oneD.LocateLeaf(p)
		before := s.LeafSamples(leaf)
		if err := s.Delete([]float64{p}, d.Agg[i]); err != nil {
			t.Fatal(err)
		}
		deleted++
		if k := s.TotalSamples(); k != k0 {
			t.Fatalf("deleting unsampled row %d changed the sample count from %d to %d", i, k0, k)
		}
		if after := s.LeafSamples(leaf); !slices.EqualFunc(before, after, func(a, b SampleTuple) bool {
			return a.Point[0] == b.Point[0] && a.Value == b.Value
		}) {
			t.Fatalf("deleting unsampled row %d changed leaf %d's samples", i, leaf)
		}
	}
}

// TestRestartAcceptsSameRowsAfterDeletes deletes half the rows, none of
// them sampled, then feeds one insert stream to the synopsis and to its
// Save/Load twin. Both draw acceptances against the live row count, so
// they must keep the same rows. (Load rounds sample values, so the twins
// are compared on sample points.)
func TestRestartAcceptsSameRowsAfterDeletes(t *testing.T) {
	d := dataset.GenUniform(10_000, 1, 100, 11)
	s, err := Build(d, Options{Partitions: 8, SampleSize: 100, Kind: dataset.Sum, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	sampled := map[float64]bool{}
	for leaf := 0; leaf < s.NumLeaves(); leaf++ {
		for _, st := range s.LeafSamples(leaf) {
			sampled[st.Point[0]] = true
		}
	}
	deleted := 0
	for i, p := range d.Pred[0] {
		if deleted == 5000 {
			break
		}
		if sampled[p] {
			continue
		}
		if err := s.Delete([]float64{p}, d.Agg[i]); err != nil {
			t.Fatal(err)
		}
		deleted++
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	twin, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(13)
	for i := 0; i < 5000; i++ {
		p, v := []float64{rng.Float64()}, rng.Float64()*100
		if err := s.Insert(p, v); err != nil {
			t.Fatal(err)
		}
		if err := twin.Insert(p, v); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := s.TotalSamples(), twin.TotalSamples(); a != b {
		t.Fatalf("TotalSamples: synopsis %d, restarted twin %d", a, b)
	}
	for leaf := 0; leaf < s.NumLeaves(); leaf++ {
		a, b := s.LeafSamples(leaf), twin.LeafSamples(leaf)
		if !slices.EqualFunc(a, b, func(x, y SampleTuple) bool { return x.Point[0] == y.Point[0] }) {
			t.Fatalf("leaf %d: the synopsis and its restarted twin sampled different rows", leaf)
		}
	}
}

// TestReservoirInclusionUniform runs insert/delete streams of
// distinct-valued rows through 100 seeds of a synopsis and tests, by χ²,
// that every row alive at the end was sampled K/n of the time. The build
// starts from equal leaves with equal allocations, so the build-time
// sample is uniform too. The deletes remove rows the sample does not
// hold: the sample then stays a uniform K-subset of the live rows, which
// Algorithm R preserves. (Deleting a sampled row shrinks the sample, and
// the next insert refills it unconditionally — the fill phase, which
// favours that row.)
func TestReservoirInclusionUniform(t *testing.T) {
	const rows0, k, ops, seeds = 200, 40, 600, 100
	d := dataset.New("distinct", 1)
	rng := stats.NewRNG(21)
	for i := 0; i < rows0; i++ {
		d.Append([]float64{rng.Float64()}, float64(i))
	}
	var observed, expected []float64 // per row id, summed over seeds
	for seed := uint64(1); seed <= seeds; seed++ {
		s, err := Build(d, Options{Partitions: 4, SampleSize: k, Partitioner: PartitionEqualDepth, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		points := slices.Clone(d.Pred[0])
		live := make([]int, rows0)
		for i := range live {
			live[i] = i
		}
		sampled := func() map[int]bool {
			out := map[int]bool{}
			for leaf := 0; leaf < s.NumLeaves(); leaf++ {
				for _, st := range s.LeafSamples(leaf) {
					out[int(st.Value)] = true
				}
			}
			return out
		}
		for i := 0; i < ops; i++ {
			if rng.Float64() < 0.8 {
				id := len(points)
				points = append(points, rng.Float64())
				live = append(live, id)
				if err := s.Insert([]float64{points[id]}, float64(id)); err != nil {
					t.Fatal(err)
				}
				continue
			}
			in := sampled()
			j := rng.Intn(len(live))
			for in[live[j]] {
				j = rng.Intn(len(live))
			}
			if err := s.Delete([]float64{points[live[j]]}, float64(live[j])); err != nil {
				t.Fatal(err)
			}
			live = slices.Delete(live, j, j+1)
		}
		for len(observed) < len(points) {
			observed = append(observed, 0)
			expected = append(expected, 0)
		}
		for id := range sampled() {
			observed[id]++
		}
		p := float64(s.TotalSamples()) / float64(len(live))
		for _, id := range live {
			expected[id] += p
		}
	}
	chi2, rows := 0.0, 0
	for id, e := range expected {
		if e > 0 {
			dev := observed[id] - e
			chi2 += dev * dev / e
			rows++
		}
	}
	// Wilson–Hilferty: (χ²/df)^(1/3) is close to normal
	df := float64(rows - 1)
	z := (math.Cbrt(chi2/df) - (1 - 2/(9*df))) / math.Sqrt(2/(9*df))
	p := 0.5 * math.Erfc(z/math.Sqrt2)
	t.Logf("χ² = %.1f over %.0f df (p = %.3g)", chi2, df, p)
	if p < 0.001 {
		t.Errorf("inclusion counts are not uniform: χ² = %.1f over %.0f df, p = %.3g", chi2, df, p)
	}
}
