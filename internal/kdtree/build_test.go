package kdtree

import (
	"bytes"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataset"
)

// fuzzColumn draws one column of n values in one of six shapes: spread
// reals, a handful of integers, one constant, signed zeros among ±1,
// heavy duplicates, and reals on a coarse grid.
func fuzzColumn(rng *rand.Rand, n int, shape uint8) []float64 {
	col := make([]float64, n)
	for i := range col {
		switch shape % 6 {
		case 0:
			col[i] = rng.NormFloat64() * 50
		case 1:
			col[i] = float64(rng.IntN(4))
		case 2:
			col[i] = 7.25
		case 3:
			col[i] = [4]float64{math.Copysign(0, -1), 0, 1, -1}[rng.IntN(4)]
		case 4:
			col[i] = float64(rng.IntN(n/16 + 1))
		default:
			col[i] = math.Round(rng.Float64()*24*4) / 4
		}
	}
	return col
}

// fuzzDataset builds n rows of dims predicate columns; shapes picks each
// column's shape, and sorted orders the rows by column 0 as shard.Split
// hands them over.
func fuzzDataset(seed uint64, n, dims int, shapes uint32, sorted bool) *dataset.Dataset {
	rng := rand.New(rand.NewPCG(seed, uint64(n)<<8|uint64(dims)))
	d := dataset.New("fuzz", dims)
	for c := 0; c < dims; c++ {
		d.Pred[c] = fuzzColumn(rng, n, uint8(shapes>>(4*c)))
	}
	d.Agg = fuzzColumn(rng, n, uint8(shapes>>28))
	if sorted {
		d.SortByPred(0)
	}
	return d
}

// matchReference builds d with Build and with referenceBuild and fails
// unless the two trees encode to the same bytes, agree on depths and leaf
// ids, and return the same tuple list for every leaf; it also fails if
// Build wrote into d.
func matchReference(t *testing.T, d *dataset.Dataset, policy Policy, opt Options) {
	t.Helper()
	before := d.Clone()
	got, gotItems, err := Build(d, policy, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, before) {
		t.Fatal("Build wrote into its input columns")
	}
	want, wantItems, err := referenceBuild(d, policy, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeTree(t, got), encodeTree(t, want)) {
		t.Fatalf("encoded tree differs from the reference: %d vs %d nodes", got.NumNodes(), want.NumNodes())
	}
	if !slices.Equal(got.depth, want.depth) || !slices.Equal(got.leafOf, want.leafOf) || !slices.Equal(got.leaves, want.leaves) {
		t.Fatal("depths or leaf ids differ from the reference")
	}
	if len(gotItems) != len(wantItems) {
		t.Fatalf("%d leaf lists, reference has %d", len(gotItems), len(wantItems))
	}
	for i := range gotItems {
		if !slices.Equal(gotItems[i], wantItems[i]) {
			t.Fatalf("leaf %d: tuples %v, reference %v", i, gotItems[i], wantItems[i])
		}
	}
}

// FuzzBuildMatchesReference: the in-place builder makes the tree, the
// leaf lists and the encoded bytes of the builder it replaced, over both
// policies, SUM/COUNT/AVG scores, 1–4 dimensions, duplicate-heavy,
// constant and signed-zero columns, and dimension 0 sorted or not.
func FuzzBuildMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint16(500), uint8(3), uint16(64), uint32(0x05104), uint8(0))
	f.Add(uint64(2), uint16(3000), uint8(3), uint16(256), uint32(0x00145), uint8(1))
	f.Add(uint64(3), uint16(40), uint8(2), uint16(100), uint32(0x33), uint8(2|4))
	f.Add(uint64(4), uint16(1), uint8(1), uint16(1), uint32(0), uint8(8))
	f.Add(uint64(5), uint16(900), uint8(4), uint16(33), uint32(0x12222), uint8(4|8))
	f.Add(uint64(6), uint16(2000), uint8(1), uint16(2001), uint32(0x40000001), uint8(1|8))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, dims uint8, leaves uint16, shapes uint32, flags uint8) {
		rows := int(n)%4000 + 1
		d := fuzzDataset(seed, rows, int(dims)%4+1, shapes, flags&1 != 0)
		policy := PolicyPASS
		if flags&2 != 0 {
			policy = PolicyUniform
		}
		kind := []dataset.AggKind{dataset.Sum, dataset.Count, dataset.Avg}[int(flags>>2)%3]
		matchReference(t, d, policy, Options{MaxLeaves: int(leaves)%(rows+8) + 1, Kind: kind, Seed: seed})
	})
}

// TestBuildMatchesReferenceWide: past 8 dimensions the cells are sorted,
// not counted, and the tree is still the reference's.
func TestBuildMatchesReferenceWide(t *testing.T) {
	for _, dims := range []int{9, 12} {
		d := fuzzDataset(uint64(dims), 3000, dims, 0x01040104, false)
		for c := 8; c < dims; c++ {
			d.Pred[c] = fuzzColumn(rand.New(rand.NewPCG(uint64(c), 1)), d.N(), uint8(c))
		}
		matchReference(t, d, PolicyPASS, Options{MaxLeaves: 600, Kind: dataset.Sum})
		matchReference(t, d, PolicyUniform, Options{MaxLeaves: 300, Seed: 3})
	}
}

// TestBuildNoDimensions: a dataset without predicate columns is one leaf
// of every row, as the reference builds it.
func TestBuildNoDimensions(t *testing.T) {
	d := dataset.New("none", 0)
	for i := 0; i < 50; i++ {
		d.Append(nil, float64(i%7))
	}
	matchReference(t, d, PolicyPASS, Options{MaxLeaves: 8, Kind: dataset.Sum})
}

// TestBuildNaNCoordinates: no loader admits NaN, but a NaN coordinate
// must still build a consistent tree whose leaves partition the rows.
func TestBuildNaNCoordinates(t *testing.T) {
	for _, sorted := range []bool{false, true} {
		d := fuzzDataset(9, 2000, 3, 0x00150, sorted)
		for i := 0; i < d.N(); i += 3 {
			d.Pred[i%3][i] = math.NaN()
		}
		for i := 0; i < 700; i++ {
			d.Pred[1][i] = math.NaN()
		}
		for _, policy := range []Policy{PolicyPASS, PolicyUniform} {
			tr, items, err := Build(d, policy, Options{MaxLeaves: 128, Kind: dataset.Avg})
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			seen := make([]bool, d.N())
			for _, leaf := range items {
				for _, i := range leaf {
					if seen[i] {
						t.Fatalf("row %d in two leaves", i)
					}
					seen[i] = true
				}
			}
			if slices.Contains(seen, false) {
				t.Fatal("a row is in no leaf")
			}
		}
	}
}

// TestKthMatchesSort: kth is the sorted order's k-th value on shapes that
// stress its bracketing — few distinct values, one value, signed zeros,
// sorted and reversed runs, infinities.
func TestKthMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.IntN(5000)
		vs := fuzzColumn(rng, n, uint8(trial))
		switch trial % 5 {
		case 1:
			slices.Sort(vs)
		case 2:
			slices.Sort(vs)
			slices.Reverse(vs)
		case 3:
			vs[rng.IntN(n)] = math.Inf(1)
			vs[rng.IntN(n)] = math.Inf(-1)
		}
		sorted := slices.Clone(vs)
		slices.Sort(sorted)
		orig := slices.Clone(vs)
		for _, k := range []int{0, n / 2, n - 1, rng.IntN(n)} {
			if got := kth(vs, k, [2][]float64{make([]float64, n), make([]float64, n)}); got != sorted[k] {
				t.Fatalf("trial %d: kth(%d of %d) = %v, sorted order has %v", trial, k, n, got, sorted[k])
			}
		}
		if !slices.Equal(vs, orig) {
			t.Fatal("kth reordered its input")
		}
	}
}

// taxiShard is one 75k-row shard of the served benchmark's 3-D table:
// pickup hour in four decimals with two rush-hour peaks, integer day 0–30
// and zone 0–262, log-normal trip distance, sorted by hour as shard.Split
// leaves it.
func taxiShard(rows int) *dataset.Dataset {
	rng := rand.New(rand.NewPCG(42, 7))
	round4 := func(v float64) float64 { return math.Round(v*1e4) / 1e4 }
	d := dataset.New("trips", 3)
	for i := 0; i < rows; i++ {
		var hour float64
		switch u := rng.Float64(); {
		case u < 0.30:
			hour = 8.5 + 1.5*rng.NormFloat64()
		case u < 0.65:
			hour = 18 + 2*rng.NormFloat64()
		default:
			hour = rng.Float64() * 24
		}
		hour = math.Min(math.Max(hour, 0), 23.9999)
		dist := math.Max(round4(math.Min(math.Exp(0.6+0.8*rng.NormFloat64()), 80)), 0.01)
		d.Append([]float64{round4(hour), float64(rng.IntN(31)), float64(rng.IntN(263))}, dist)
	}
	d.SortByPred(0)
	return d
}

// BenchmarkBuild builds the KD-PASS tree of one 75k-row shard of the
// served benchmark's 3-D table (300k rows, 256 partitions, 4 shards) at
// the shard's share of the leaves, 64, as passd builds it:
// go test -run '^$' -bench Build ./internal/kdtree/
func BenchmarkBuild(b *testing.B) {
	d := taxiShard(75_000)
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := Build(d, PolicyPASS, Options{MaxLeaves: 64, Kind: dataset.Sum}); err != nil {
			b.Fatal(err)
		}
	}
}
