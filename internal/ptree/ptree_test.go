package ptree

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/partition"
	"repro/internal/stats"
)

func buildTest(t *testing.T, n, k int, seed uint64) (*dataset.Dataset, *Tree) {
	t.Helper()
	d := dataset.GenUniform(n, 1, 100, seed)
	tr, err := Build(d, partition.EqualDepth(n, k))
	if err != nil {
		t.Fatal(err)
	}
	return d, tr
}

func TestAggAddMerge(t *testing.T) {
	var a Agg
	for _, v := range []float64{2, 8, 5} {
		a.Add(v)
	}
	if a.N != 3 || a.Sum != 15 || a.Min != 2 || a.Max != 8 {
		t.Errorf("agg = %+v", a)
	}
	if a.SumSq != 4+64+25 {
		t.Errorf("sumSq = %v", a.SumSq)
	}
	var b Agg
	b.Add(1)
	b.Merge(a)
	if b.N != 4 || b.Min != 1 || b.Max != 8 || b.Sum != 16 {
		t.Errorf("merged = %+v", b)
	}
	if math.Abs(a.Avg()-5) > 1e-12 {
		t.Errorf("avg = %v", a.Avg())
	}
}

func TestAggVar(t *testing.T) {
	var a Agg
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(v)
	}
	if math.Abs(a.Var()-4) > 1e-9 {
		t.Errorf("Var = %v, want 4", a.Var())
	}
	var z Agg
	z.Add(3)
	z.Add(3)
	if !z.ZeroVariance() {
		t.Error("identical values should be zero-variance")
	}
	if a.ZeroVariance() {
		t.Error("varied values must not be zero-variance")
	}
}

func TestBuildStructure(t *testing.T) {
	_, tr := buildTest(t, 1000, 16, 1)
	if tr.NumLeaves() != 16 {
		t.Fatalf("leaves = %d", tr.NumLeaves())
	}
	if tr.Root().N != 1000 {
		t.Fatalf("root N = %d", tr.Root().N)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if h := tr.Height(); h != 4 {
		t.Errorf("height = %d, want 4", h)
	}
}

func TestBuildOddLeafCount(t *testing.T) {
	d := dataset.GenUniform(700, 1, 100, 2)
	tr, err := Build(d, partition.EqualDepth(700, 7))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() != 7 {
		t.Fatalf("leaves = %d", tr.NumLeaves())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Root().N != 700 {
		t.Errorf("root N = %d", tr.Root().N)
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	d := dataset.GenUniform(10, 1, 100, 3)
	if _, err := Build(d, partition.Partitioning{Cuts: []int{0, 5}}); err == nil {
		t.Error("Build accepted truncated cuts")
	}
	empty := dataset.New("e", 1)
	if _, err := Build(empty, partition.Partitioning{Cuts: []int{0, 0}}); err == nil {
		t.Error("Build accepted empty dataset")
	}
}

func TestRootMatchesDataset(t *testing.T) {
	d, tr := buildTest(t, 500, 8, 4)
	sum, _ := d.Exact(dataset.Sum, dataset.Rect1(math.Inf(-1), math.Inf(1)))
	if math.Abs(tr.Root().Sum-sum) > 1e-6 {
		t.Errorf("root sum %v != dataset sum %v", tr.Root().Sum, sum)
	}
	mn, _ := d.Exact(dataset.Min, dataset.Rect1(math.Inf(-1), math.Inf(1)))
	mx, _ := d.Exact(dataset.Max, dataset.Rect1(math.Inf(-1), math.Inf(1)))
	if tr.Root().Min != mn || tr.Root().Max != mx {
		t.Errorf("root extrema [%v, %v] != [%v, %v]", tr.Root().Min, tr.Root().Max, mn, mx)
	}
}

// bruteFrontier classifies every leaf directly for comparison with MCF.
func bruteFrontier(d *dataset.Dataset, tr *Tree, qlo, qhi float64) (coverN int, partialLeaves map[int]bool) {
	partialLeaves = map[int]bool{}
	for leaf := 0; leaf < tr.NumLeaves(); leaf++ {
		lo, hi := tr.LeafValueRange(leaf)
		if hi < qlo || lo > qhi {
			continue
		}
		if qlo <= lo && hi <= qhi {
			coverN += tr.LeafAgg(leaf).N
		} else {
			partialLeaves[leaf] = true
		}
	}
	return coverN, partialLeaves
}

func TestFrontierMatchesBruteForce(t *testing.T) {
	d, tr := buildTest(t, 2000, 32, 5)
	rng := stats.NewRNG(7)
	for trial := 0; trial < 200; trial++ {
		a, b := rng.Float64()*100, rng.Float64()*100
		qlo, qhi := math.Min(a, b), math.Max(a, b)
		f := tr.Frontier(dataset.Rect1(qlo, qhi), false)
		wantCover, wantPartial := bruteFrontier(d, tr, qlo, qhi)
		if got := f.CoverAgg().N; got != wantCover {
			t.Fatalf("trial %d: cover N = %d, want %d", trial, got, wantCover)
		}
		if len(f.Partial) != len(wantPartial) {
			t.Fatalf("trial %d: partial count = %d, want %d", trial, len(f.Partial), len(wantPartial))
		}
		for _, p := range f.Partial {
			if !wantPartial[p.Leaf] {
				t.Fatalf("trial %d: leaf %d wrongly classified partial", trial, p.Leaf)
			}
		}
	}
}

func TestFrontierCoverIsMinimal(t *testing.T) {
	// a query covering the whole data must return one cover node (the
	// root), not all leaves
	_, tr := buildTest(t, 1024, 16, 6)
	f := tr.Frontier(dataset.Rect1(math.Inf(-1), math.Inf(1)), false)
	if len(f.Cover) != 1 {
		t.Errorf("whole-data query returned %d cover nodes, want 1 (the root)", len(f.Cover))
	}
	if len(f.Partial) != 0 {
		t.Errorf("whole-data query returned %d partial leaves", len(f.Partial))
	}
	if f.Visited != 1 {
		t.Errorf("whole-data query visited %d nodes, want 1", f.Visited)
	}
}

func TestFrontierVisitBound(t *testing.T) {
	// MCF should visit O(γ log B) nodes, far fewer than the node count,
	// for a selective query
	_, tr := buildTest(t, 4096, 64, 8)
	f := tr.Frontier(dataset.Rect1(10, 12), false)
	if f.Visited >= tr.NumNodes()/2 {
		t.Errorf("selective query visited %d of %d nodes", f.Visited, tr.NumNodes())
	}
}

func TestFrontierDisjointFromQuery(t *testing.T) {
	_, tr := buildTest(t, 100, 4, 9)
	f := tr.Frontier(dataset.Rect1(-50, -10), false)
	if len(f.Cover) != 0 || len(f.Partial) != 0 {
		t.Errorf("disjoint query returned non-empty frontier: %+v", f)
	}
}

func TestZeroVarianceRule(t *testing.T) {
	// adversarial data: leading zeros; a query partially overlapping a
	// zero-variance internal node should classify it as covered when the
	// rule is on
	d := dataset.GenAdversarial(800, 3)
	tr, err := Build(d, partition.EqualDepth(800, 16))
	if err != nil {
		t.Fatal(err)
	}
	// query inside the zero region, not aligned with partitions
	q := dataset.Rect1(10, 333)
	off := tr.Frontier(q, false)
	on := tr.Frontier(q, true)
	if len(on.Partial) > len(off.Partial) {
		t.Errorf("rule increased partial count: %d > %d", len(on.Partial), len(off.Partial))
	}
	if len(on.Partial) != 0 {
		t.Errorf("query inside constant region should have no partial leaves with the rule on, got %d", len(on.Partial))
	}
}

func TestLocateLeaf(t *testing.T) {
	d, tr := buildTest(t, 1000, 10, 10)
	for leaf := 0; leaf < tr.NumLeaves(); leaf++ {
		lo, hi := tr.LeafValueRange(leaf)
		mid := (lo + hi) / 2
		got := tr.LocateLeaf(mid)
		glo, ghi := tr.LeafValueRange(got)
		if mid < glo || mid > ghi {
			t.Errorf("LocateLeaf(%v) = %d with range [%v, %v]", mid, got, glo, ghi)
		}
	}
	_ = d
	// out-of-range values snap to the nearest end
	if got := tr.LocateLeaf(-1e9); got != 0 {
		t.Errorf("LocateLeaf(-inf) = %d, want 0", got)
	}
	if got := tr.LocateLeaf(1e9); got != tr.NumLeaves()-1 {
		t.Errorf("LocateLeaf(+inf) = %d, want last leaf", got)
	}
}

func TestApplyInsertUpdatesPath(t *testing.T) {
	_, tr := buildTest(t, 400, 8, 11)
	before := tr.Root()
	leaf := tr.LocateLeaf(50)
	tr.ApplyInsert(leaf, 50, 1e6)
	after := tr.Root()
	if after.N != before.N+1 {
		t.Errorf("root N = %d, want %d", after.N, before.N+1)
	}
	if after.Max != 1e6 {
		t.Errorf("root max = %v, want 1e6", after.Max)
	}
	la := tr.LeafAgg(leaf)
	if la.Max != 1e6 {
		t.Errorf("leaf max = %v", la.Max)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// keys past either end widen the edge leaves and the root
	for _, key := range []float64{-1e9, 1e9} {
		edge := tr.LocateLeaf(key)
		tr.ApplyInsert(edge, key, 1)
		if lo, hi := tr.LeafValueRange(edge); key < lo || key > hi {
			t.Errorf("leaf %d spans [%v, %v] after an insert at %v", edge, lo, hi, key)
		}
		if f := tr.Frontier(dataset.Rect1(key, key), false); len(f.Cover)+len(f.Partial) == 0 {
			t.Errorf("no node reaches the key %v inserted", key)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyDelete(t *testing.T) {
	_, tr := buildTest(t, 400, 8, 12)
	leaf := 3
	la := tr.LeafAgg(leaf)
	before := tr.Root()
	if err := tr.ApplyDelete(leaf, la.Sum/float64(la.N)); err != nil {
		t.Fatal(err)
	}
	after := tr.Root()
	if after.N != before.N-1 {
		t.Errorf("root N = %d, want %d", after.N, before.N-1)
	}
	if math.Abs(after.Sum-(before.Sum-la.Sum/float64(la.N))) > 1e-6 {
		t.Errorf("root sum not decremented correctly")
	}
}

func TestApplyDeleteEmptyLeaf(t *testing.T) {
	d := dataset.New("one", 1)
	d.Append([]float64{1}, 5)
	tr, err := Build(d, partition.EqualDepth(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.ApplyDelete(0, 5); err != nil {
		t.Fatal(err)
	}
	if err := tr.ApplyDelete(0, 5); err == nil {
		t.Error("delete from empty leaf should fail")
	}
}

// Property: for random partitionings and random queries, cover + partial +
// none exactly account for all leaves, and cover/partial sets are disjoint.
func TestFrontierPartitionProperty(t *testing.T) {
	d := dataset.GenUniform(300, 1, 50, 13)
	f := func(kSeed uint8, aSeed, bSeed uint16) bool {
		k := 2 + int(kSeed)%20
		tr, err := Build(d, partition.EqualDepth(300, k))
		if err != nil {
			return false
		}
		a := float64(aSeed%5000) / 100
		b := float64(bSeed%5000) / 100
		qlo, qhi := math.Min(a, b), math.Max(a, b)
		fr := tr.Frontier(dataset.Rect1(qlo, qhi), false)
		// cover nodes expand to leaves; count total accounted tuples
		accounted := fr.CoverAgg().N
		for _, p := range fr.Partial {
			accounted += p.Agg.N
		}
		// every accounted tuple group is disjoint, so accounted <= N
		if accounted > 300 {
			return false
		}
		// exact tuples matching the query must all be inside accounted
		// partitions (cover + partial)
		matching := d.CountMatching(dataset.Rect1(qlo, qhi))
		return matching <= accounted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestMemoryBytesPositive(t *testing.T) {
	_, tr := buildTest(t, 100, 4, 14)
	if tr.MemoryBytes() <= 0 {
		t.Error("MemoryBytes should be positive")
	}
}
