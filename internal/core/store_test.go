package core

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// TestStoreInvariantsAfterBuild verifies the columnar layout straight out
// of both build paths: offsets spanning, per-leaf sort order along the
// sort dimension, and prefix aggregates consistent with the values.
func TestStoreInvariantsAfterBuild(t *testing.T) {
	d1 := dataset.GenNYCTaxi(5000, 1, 1)
	s1 := build1D(t, d1, 16, 0.05)
	if err := s1.store.checkInvariants(); err != nil {
		t.Fatalf("1D build: %v", err)
	}
	d3 := dataset.GenNYCTaxi(5000, 3, 2)
	s3, err := BuildKD(d3, Options{Partitions: 32, SampleRate: 0.05, Kind: dataset.Sum, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.store.checkInvariants(); err != nil {
		t.Fatalf("KD build: %v", err)
	}
	if s3.store.dims != 3 {
		t.Fatalf("KD store dims = %d, want 3", s3.store.dims)
	}
}

// TestStoreInvariantsUnderUpdates drives the reservoir maintenance path:
// the columnar layout must stay sorted and prefix-consistent through a
// long randomized insert/delete sequence.
func TestStoreInvariantsUnderUpdates(t *testing.T) {
	d := dataset.GenUniform(3000, 1, 100, 4)
	s := build1D(t, d, 16, 0.05)
	rng := stats.NewRNG(9)
	for i := 0; i < 2000; i++ {
		if err := s.Insert([]float64{rng.Float64()}, rng.Float64()*100); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			j := rng.Intn(d.N())
			_ = s.Delete([]float64{d.Pred[0][j]}, d.Agg[j])
		}
	}
	if err := s.store.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if k := s.TotalSamples(); k > s.sampleCap {
		t.Fatalf("store holds %d samples, over the reservoir capacity %d", k, s.sampleCap)
	}
}

// scratchFor returns a fresh query scratch prepared for q the way query
// prepares it.
func scratchFor(q dataset.Rect) *queryScratch {
	sc := scratchPool.New().(*queryScratch)
	sc.cd = constrainedDims(nil, q)
	return sc
}

// TestScanLeafMatchesReference compares scanLeaf against a straightforward
// reference scan over LeafSamples, for 1D and multi-dimensional synopses
// and a spread of predicate shapes. Where the leaf goes through the scan
// kernel the sums must be bitwise the reference's (same matches, same
// summation order); the prefix fast path answers from differences of
// running sums and is held to 1e-9. Extrema always come from the kernel.
func TestScanLeafMatchesReference(t *testing.T) {
	check := func(t *testing.T, s *Synopsis, q dataset.Rect) {
		t.Helper()
		sc := scratchFor(q)
		for leaf := 0; leaf < s.NumLeaves(); leaf++ {
			got := s.scanLeaf(leaf, q, sc, false)
			want := leafScan{min: math.Inf(1), max: math.Inf(-1)}
			for _, tp := range s.LeafSamples(leaf) {
				want.k++
				if !q.Contains(tp.Point) {
					continue
				}
				want.kPred++
				want.sum += tp.Value
				want.sumSq += tp.Value * tp.Value
				want.min = math.Min(want.min, tp.Value)
				want.max = math.Max(want.max, tp.Value)
			}
			if got.k != want.k || got.kPred != want.kPred {
				t.Fatalf("leaf %d: counts (%d,%d), want (%d,%d)", leaf, got.k, got.kPred, want.k, want.kPred)
			}
			skip := -1
			if sd := s.store.sortDim[leaf]; sd < q.Dims() {
				skip = sd
			}
			if onlyDim(sc.cd, skip) { // prefix fast path
				if math.Abs(got.sum-want.sum) > 1e-9*(1+math.Abs(want.sum)) {
					t.Fatalf("leaf %d: sum %v, want %v", leaf, got.sum, want.sum)
				}
				if math.Abs(got.sumSq-want.sumSq) > 1e-9*(1+want.sumSq) {
					t.Fatalf("leaf %d: sumSq %v, want %v", leaf, got.sumSq, want.sumSq)
				}
			} else if got.sum != want.sum || got.sumSq != want.sumSq {
				t.Fatalf("leaf %d: kernel sums (%v,%v), want exactly (%v,%v)", leaf, got.sum, got.sumSq, want.sum, want.sumSq)
			}
			gotMM := s.scanLeaf(leaf, q, sc, true)
			if gotMM.k != want.k || gotMM.kPred != want.kPred {
				t.Fatalf("leaf %d: minmax counts (%d,%d), want (%d,%d)", leaf, gotMM.k, gotMM.kPred, want.k, want.kPred)
			}
			if gotMM.min != want.min || gotMM.max != want.max {
				t.Fatalf("leaf %d: extrema [%v,%v], want [%v,%v]", leaf, gotMM.min, gotMM.max, want.min, want.max)
			}
		}
	}
	d1 := dataset.GenNYCTaxi(8000, 1, 5)
	s1 := build1D(t, d1, 16, 0.1)
	rng := stats.NewRNG(11)
	for i := 0; i < 25; i++ {
		a, b := rng.Float64()*24, rng.Float64()*24
		check(t, s1, dataset.Rect1(math.Min(a, b), math.Max(a, b)))
	}
	check(t, s1, dataset.Rect1(math.Inf(-1), math.Inf(1)))

	d3 := dataset.GenNYCTaxi(8000, 3, 6)
	s3, err := BuildKD(d3, Options{Partitions: 32, SampleRate: 0.1, Kind: dataset.Sum, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		lo := make([]float64, 3)
		hi := make([]float64, 3)
		for c := range lo {
			a, b := rng.Float64()*30, rng.Float64()*30
			lo[c], hi[c] = math.Min(a, b), math.Max(a, b)
		}
		// exercise the sort-dimension-only fast path too: unconstrain all
		// but one dimension on alternating trials
		if i%2 == 0 {
			for c := 1; c < 3; c++ {
				lo[c], hi[c] = math.Inf(-1), math.Inf(1)
			}
		}
		check(t, s3, dataset.Rect{Lo: lo, Hi: hi})
	}
}

// TestColumnarSerializeRoundTrip saves and reloads a synopsis and verifies
// the restored columnar layout: invariants hold, leaf sample multisets
// match up to delta-encoding precision, and query answers agree.
func TestColumnarSerializeRoundTrip(t *testing.T) {
	d := dataset.GenNYCTaxi(6000, 1, 8)
	s := build1D(t, d, 16, 0.05)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.store.checkInvariants(); err != nil {
		t.Fatalf("restored store: %v", err)
	}
	if r.store.totalLen() != s.store.totalLen() {
		t.Fatalf("restored %d samples, want %d", r.store.totalLen(), s.store.totalLen())
	}
	if r.store.numLeaves() != s.store.numLeaves() {
		t.Fatalf("restored %d leaves, want %d", r.store.numLeaves(), s.store.numLeaves())
	}
	for leaf := 0; leaf < s.store.numLeaves(); leaf++ {
		a, b := s.LeafSamples(leaf), r.LeafSamples(leaf)
		if len(a) != len(b) {
			t.Fatalf("leaf %d: %d samples restored, want %d", leaf, len(b), len(a))
		}
		// store order is sorted by the predicate point, so entries are
		// directly comparable
		for j := range a {
			if a[j].Point[0] != b[j].Point[0] {
				t.Fatalf("leaf %d sample %d: point %v, want %v", leaf, j, b[j].Point[0], a[j].Point[0])
			}
			if math.Abs(a[j].Value-b[j].Value) > defaultSerPrecision {
				t.Fatalf("leaf %d sample %d: value %v, want %v", leaf, j, b[j].Value, a[j].Value)
			}
		}
	}
	rng := stats.NewRNG(13)
	for i := 0; i < 30; i++ {
		a, b := rng.Float64()*24, rng.Float64()*24
		q := dataset.Rect1(math.Min(a, b), math.Max(a, b))
		for _, kind := range []dataset.AggKind{dataset.Sum, dataset.Count, dataset.Avg} {
			r1, err1 := s.Query(kind, q)
			r2, err2 := r.Query(kind, q)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%v %v: error mismatch %v vs %v", kind, q, err1, err2)
			}
			if math.Abs(r1.Estimate-r2.Estimate) > 1e-3*(1+math.Abs(r1.Estimate)) {
				t.Fatalf("%v %v: estimate %v vs %v", kind, q, r1.Estimate, r2.Estimate)
			}
		}
	}
}

// TestRoundTripAfterUpdates exercises serialize → deserialize on a synopsis
// whose columnar store was reshaped by reservoir updates.
func TestRoundTripAfterUpdates(t *testing.T) {
	d := dataset.GenUniform(2000, 1, 100, 14)
	s := build1D(t, d, 8, 0.05)
	rng := stats.NewRNG(15)
	for i := 0; i < 1000; i++ {
		if err := s.Insert([]float64{rng.Float64()}, rng.Float64()*100); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.store.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	full := dataset.Rect1(math.Inf(-1), math.Inf(1))
	a, _ := s.Query(dataset.Count, full)
	b, _ := r.Query(dataset.Count, full)
	if a.Estimate != b.Estimate {
		t.Fatalf("COUNT after round-trip = %v, want %v", b.Estimate, a.Estimate)
	}
}

// refScanLeaf is the row-at-a-time leaf scan the kernel replaced, kept as
// the kernel's reference: binary search on the sort dimension through
// sort.Search, then one pass over the candidate rows rejecting a row at
// its first failing dimension, folding matches in store order.
func refScanLeaf(st *leafStore, leaf int, q dataset.Rect) leafScan {
	o, e := st.offsets[leaf], st.offsets[leaf+1]
	ls := leafScan{k: e - o, min: math.Inf(1), max: math.Inf(-1)}
	a, b, skip := o, e, -1
	if sd := st.sortDim[leaf]; sd < q.Dims() && e > o {
		d := st.dims
		a = o + sort.Search(e-o, func(j int) bool { return st.coords[(o+j)*d+sd] >= q.Lo[sd] })
		b = o + sort.Search(e-o, func(j int) bool { return st.coords[(o+j)*d+sd] > q.Hi[sd] })
		skip = sd
	}
rows:
	for j := a; j < b; j++ {
		row := st.point(j)
		for c := 0; c < q.Dims(); c++ {
			if c != skip && (row[c] < q.Lo[c] || row[c] > q.Hi[c]) {
				continue rows
			}
		}
		v := st.values[j]
		ls.kPred++
		ls.sum += v
		ls.sumSq += v * v
		ls.min = math.Min(ls.min, v)
		ls.max = math.Max(ls.max, v)
	}
	return ls
}

// TestScanKernelMatchesRowLoop is the property test of the scan kernel:
// over stores of 1–5 dimensions with leaves sized around the chunk
// boundary, heavily duplicated sort keys and every sort dimension, random
// boxes — including unconstrained and half-open dimensions, inverted
// ranges and NaN bounds — must select exactly the rows the reference row
// loop selects and fold them to bitwise the same sums and extrema.
func TestScanKernelMatchesRowLoop(t *testing.T) {
	sizes := []int{0, 1, scanChunk - 1, scanChunk, scanChunk + 1, 1000}
	rng := stats.NewRNG(41)
	for dims := 1; dims <= 5; dims++ {
		st := newLeafStore(dims, sizes)
		for j := 0; j < st.totalLen(); j++ {
			for c := 0; c < dims; c++ {
				st.coords[j*dims+c] = float64(rng.Intn(12)) // few distinct keys: long runs of ties
			}
			st.values[j] = rng.NormMS(10, 40)
		}
		for leaf := range sizes {
			st.finishLeaf(leaf, (leaf+dims)%dims)
		}
		if err := st.checkInvariants(); err != nil {
			t.Fatal(err)
		}
		s := &Synopsis{store: st, dims: dims}
		bound := func() (lo, hi float64) {
			a, b := float64(rng.Intn(14))-1.5, float64(rng.Intn(14))-1
			lo, hi = math.Min(a, b), math.Max(a, b)
			switch u := rng.Float64(); {
			case u < 0.15:
				lo, hi = math.Inf(-1), math.Inf(1)
			case u < 0.25:
				lo = math.Inf(-1)
			case u < 0.35:
				hi = math.Inf(1)
			case u < 0.40:
				lo, hi = hi+1, lo // lo > hi
			case u < 0.43:
				lo = math.NaN()
			case u < 0.46:
				hi = math.NaN()
			}
			return lo, hi
		}
		for trial := 0; trial < 300; trial++ {
			qd := 1 + rng.Intn(dims)
			q := dataset.Rect{Lo: make([]float64, qd), Hi: make([]float64, qd)}
			for c := 0; c < qd; c++ {
				q.Lo[c], q.Hi[c] = bound()
			}
			sc := scratchFor(q)
			for leaf := range sizes {
				want := refScanLeaf(st, leaf, q)
				sd := st.sortDim[leaf]
				if sd < qd && (math.IsNaN(q.Lo[sd]) || q.Lo[sd] > q.Hi[sd]) && want.kPred != 0 {
					t.Fatalf("reference matched %d rows for an empty sort-dimension range %v", want.kPred, q)
				}
				got := s.scanLeaf(leaf, q, sc, true)
				if got.k != want.k || got.kPred != want.kPred || got.min != want.min || got.max != want.max {
					t.Fatalf("dims %d leaf %d %v: extrema scan (k %d, kPred %d, [%v, %v]), want (k %d, kPred %d, [%v, %v])",
						dims, leaf, q, got.k, got.kPred, got.min, got.max, want.k, want.kPred, want.min, want.max)
				}
				got = s.scanLeaf(leaf, q, sc, false)
				if got.k != want.k || got.kPred != want.kPred {
					t.Fatalf("dims %d leaf %d %v: counts (%d, %d), want (%d, %d)", dims, leaf, q, got.k, got.kPred, want.k, want.kPred)
				}
				skip := -1
				if sd < qd {
					skip = sd
				}
				if onlyDim(sc.cd, skip) {
					continue // prefix fast path: no row is scanned; TestScanLeafMatchesReference bounds its rounding
				}
				if got.sum != want.sum || got.sumSq != want.sumSq {
					t.Fatalf("dims %d leaf %d %v: sums (%v, %v), want exactly (%v, %v)", dims, leaf, q, got.sum, got.sumSq, want.sum, want.sumSq)
				}
			}
		}
	}
}

// TestQueryAllocatesNothing pins the zero-alloc read path: with a pooled
// scratch a steady-state Query makes no heap allocation, for every
// aggregate, on the 1-D tree and on the k-d tree (at most 1 is tolerated:
// a GC may empty the pool mid-measurement).
func TestQueryAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	s1 := build1D(t, dataset.GenNYCTaxi(20000, 1, 31), 64, 0.05)
	s3, err := BuildKD(dataset.GenNYCTaxi(20000, 3, 32), Options{Partitions: 64, SampleRate: 0.05, Kind: dataset.Sum, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	q1 := dataset.Rect1(6.25, 17.5)
	q3 := dataset.Rect{Lo: []float64{5.5, 3, 20}, Hi: []float64{19.25, 24, 210}}
	for _, kind := range []dataset.AggKind{dataset.Sum, dataset.Count, dataset.Avg, dataset.Min, dataset.Max} {
		for name, run := range map[string]func() (Result, error){
			"1-D": func() (Result, error) { return s1.Query(kind, q1) },
			"3-D": func() (Result, error) { return s3.Query(kind, q3) },
		} {
			if r, err := run(); err != nil || r.PartialParts == 0 {
				t.Fatalf("%s %v: err %v, %d partial leaves — the query must reach the leaf scan", name, kind, err, r.PartialParts)
			}
			if n := testing.AllocsPerRun(200, func() { _, _ = run() }); n > 1 {
				t.Errorf("%s %v: %v allocs per Query, want at most 1", name, kind, n)
			}
		}
	}
}
