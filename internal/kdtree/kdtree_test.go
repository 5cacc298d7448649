package kdtree

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

func buildTaxi(t *testing.T, dims, leaves int, policy Policy) (*dataset.Dataset, *Tree, [][]int) {
	t.Helper()
	d := dataset.GenNYCTaxi(4000, dims, 1)
	tr, items, err := Build(d, policy, Options{MaxLeaves: leaves, Kind: dataset.Sum})
	if err != nil {
		t.Fatal(err)
	}
	return d, tr, items
}

func TestBuildPASSBasic(t *testing.T) {
	d, tr, _ := buildTaxi(t, 2, 32, PolicyPASS)
	if tr.NumLeaves() > 40 {
		t.Errorf("leaves = %d, want <= ~32 + fanout slack", tr.NumLeaves())
	}
	if tr.NumLeaves() < 16 {
		t.Errorf("leaves = %d, too few", tr.NumLeaves())
	}
	if tr.Root().N != d.N() {
		t.Errorf("root N = %d, want %d", tr.Root().N, d.N())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildUSBalanced(t *testing.T) {
	_, tr, _ := buildTaxi(t, 2, 32, PolicyUniform)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.MaxLeafDepth()-tr.MinLeafDepth() > 2 {
		t.Errorf("US tree depth spread = %d, want <= 2", tr.MaxLeafDepth()-tr.MinLeafDepth())
	}
}

func TestDepthBandRespected(t *testing.T) {
	d := dataset.GenNYCTaxi(4000, 3, 2)
	tr, _, err := Build(d, PolicyPASS, Options{MaxLeaves: 64, Kind: dataset.Sum, DepthBand: 2})
	if err != nil {
		t.Fatal(err)
	}
	if spread := tr.MaxLeafDepth() - tr.MinLeafDepth(); spread > 3 {
		t.Errorf("PASS tree depth spread = %d, want <= band+1", spread)
	}
}

func TestLeavesPartitionItems(t *testing.T) {
	d, tr, items := buildTaxi(t, 3, 64, PolicyPASS)
	seen := make([]bool, d.N())
	total := 0
	for leaf := 0; leaf < tr.NumLeaves(); leaf++ {
		if n := tr.LeafAgg(leaf).N; len(items[leaf]) != n {
			t.Fatalf("leaf %d holds %d tuples, its aggregate counts %d", leaf, len(items[leaf]), n)
		}
		for _, it := range items[leaf] {
			if seen[it] {
				t.Fatalf("tuple %d appears in two leaves", it)
			}
			seen[it] = true
			total++
		}
	}
	if total != d.N() {
		t.Fatalf("leaves hold %d tuples, want %d", total, d.N())
	}
}

func TestLeafRectsContainItems(t *testing.T) {
	d, tr, items := buildTaxi(t, 2, 32, PolicyPASS)
	for leaf := 0; leaf < tr.NumLeaves(); leaf++ {
		r := tr.LeafRect(leaf)
		for _, it := range items[leaf] {
			if !r.Contains(d.Point(it)) {
				t.Fatalf("leaf %d rect %v does not contain its item %d", leaf, r, it)
			}
		}
	}
}

func TestFrontierAccountsAllMatching(t *testing.T) {
	d, tr, items := buildTaxi(t, 2, 64, PolicyPASS)
	rng := stats.NewRNG(5)
	for trial := 0; trial < 100; trial++ {
		q := randomRect(rng, 2)
		f := tr.Frontier(q, false)
		// every tuple matching q must be inside a cover or partial node
		accounted := f.CoverAgg().N
		for _, p := range f.Partial {
			accounted += p.Agg.N
		}
		matching := d.CountMatching(q)
		if matching > accounted {
			t.Fatalf("trial %d: %d matching tuples but only %d accounted", trial, matching, accounted)
		}
		// cover nodes must be genuinely covered: their items all match
		for _, c := range f.Cover {
			for _, it := range coverItems(tr, items, c.Node) {
				if !d.Matches(it, q) {
					t.Fatalf("trial %d: cover node contains non-matching tuple", trial)
				}
			}
		}
	}
}

func coverItems(t *Tree, items [][]int, id int) []int {
	if t.numKids[id] == 0 {
		return items[t.leafOf[id]]
	}
	var out []int
	first := int(t.firstKid[id])
	for ch := first; ch < first+int(t.numKids[id]); ch++ {
		out = append(out, coverItems(t, items, ch)...)
	}
	return out
}

func randomRect(rng *stats.RNG, dims int) dataset.Rect {
	scales := []float64{24, 31, 263, 31, 24}
	lo := make([]float64, dims)
	hi := make([]float64, dims)
	for c := 0; c < dims; c++ {
		a, b := rng.Float64()*scales[c], rng.Float64()*scales[c]
		lo[c], hi[c] = math.Min(a, b), math.Max(a, b)
	}
	return dataset.Rect{Lo: lo, Hi: hi}
}

func TestFrontierWorkloadShiftNoCover(t *testing.T) {
	// 2D tree queried with a 3D rectangle: no node can be certified
	// covered, everything intersecting must be partial
	_, tr, _ := buildTaxi(t, 2, 32, PolicyPASS)
	q := dataset.Rect{Lo: []float64{0, 0, 0}, Hi: []float64{24, 31, 263}}
	f := tr.Frontier(q, false)
	if len(f.Cover) != 0 {
		t.Errorf("extra-dimension query produced %d cover nodes, want 0", len(f.Cover))
	}
	if len(f.Partial) == 0 {
		t.Error("expected partial leaves for an all-covering 3D query on a 2D tree")
	}
}

func TestFrontierFewerDimsThanTree(t *testing.T) {
	// 1D query on a 2D tree: unconstrained second dimension, so a query
	// covering the full first-dimension range covers the root
	_, tr, _ := buildTaxi(t, 2, 32, PolicyPASS)
	q := dataset.Rect{Lo: []float64{-1}, Hi: []float64{25}}
	f := tr.Frontier(q, false)
	if len(f.Cover) != 1 || f.Visited != 1 {
		t.Errorf("full-range 1D query: cover=%d visited=%d, want 1/1", len(f.Cover), f.Visited)
	}
}

func TestFrontierSkipsDisjoint(t *testing.T) {
	_, tr, _ := buildTaxi(t, 2, 64, PolicyPASS)
	q := dataset.Rect{Lo: []float64{100, 100}, Hi: []float64{200, 200}}
	f := tr.Frontier(q, false)
	if len(f.Cover)+len(f.Partial) != 0 {
		t.Errorf("disjoint query returned non-empty frontier")
	}
}

func TestPASSBeatsUSOnScore(t *testing.T) {
	// on the adversarial-style data (heavy variance in one region), the
	// PASS policy should achieve a lower worst leaf variance score
	d := dataset.New("adv2d", 2)
	rng := stats.NewRNG(9)
	for i := 0; i < 4000; i++ {
		x, y := rng.Float64(), rng.Float64()
		v := 0.0
		if x > 0.875 { // hot corner
			v = rng.NormMS(100, 25)
		}
		d.Append([]float64{x, y}, v)
	}
	pass, _, err := Build(d, PolicyPASS, Options{MaxLeaves: 32, Kind: dataset.Sum})
	if err != nil {
		t.Fatal(err)
	}
	us, _, err := Build(d, PolicyUniform, Options{MaxLeaves: 32, Kind: dataset.Sum})
	if err != nil {
		t.Fatal(err)
	}
	worst := func(tr *Tree) float64 {
		w := 0.0
		for leaf := 0; leaf < tr.NumLeaves(); leaf++ {
			a := tr.LeafAgg(leaf)
			if s := float64(a.N) * a.Var(); s > w {
				w = s
			}
		}
		return w
	}
	if wp, wu := worst(pass), worst(us); wp >= wu {
		t.Errorf("PASS worst leaf score %v should beat US %v", wp, wu)
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, _, err := Build(dataset.New("e", 1), PolicyPASS, Options{MaxLeaves: 4}); err == nil {
		t.Error("empty dataset accepted")
	}
	d := dataset.GenUniform(10, 1, 1, 1)
	if _, _, err := Build(d, PolicyPASS, Options{MaxLeaves: 0}); err == nil {
		t.Error("zero leaf budget accepted")
	}
}

func TestUnsplittableIdenticalPoints(t *testing.T) {
	d := dataset.New("same", 2)
	for i := 0; i < 100; i++ {
		d.Append([]float64{1, 1}, float64(i))
	}
	tr, _, err := Build(d, PolicyPASS, Options{MaxLeaves: 8, Kind: dataset.Sum})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() != 1 {
		t.Errorf("identical points should stay in one leaf, got %d", tr.NumLeaves())
	}
}

func TestAvgKindBuild(t *testing.T) {
	d := dataset.GenNYCTaxi(3000, 2, 3)
	tr, _, err := Build(d, PolicyPASS, Options{MaxLeaves: 16, Kind: dataset.Avg, Delta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() < 8 {
		t.Errorf("AVG tree has only %d leaves", tr.NumLeaves())
	}
}

func TestZeroVarianceRuleKD(t *testing.T) {
	// half the plane is constant zero: partial nodes there collapse to
	// covered under the rule
	d := dataset.New("halfzero", 2)
	rng := stats.NewRNG(4)
	for i := 0; i < 2000; i++ {
		x, y := rng.Float64(), rng.Float64()
		v := 0.0
		if x >= 0.5 {
			v = rng.Float64() * 10
		}
		d.Append([]float64{x, y}, v)
	}
	tr, _, err := Build(d, PolicyUniform, Options{MaxLeaves: 64, Kind: dataset.Avg})
	if err != nil {
		t.Fatal(err)
	}
	q := dataset.Rect{Lo: []float64{0.01, 0.01}, Hi: []float64{0.43, 0.97}}
	off := tr.Frontier(q, false)
	on := tr.Frontier(q, true)
	if len(on.Partial) > len(off.Partial) {
		t.Errorf("rule increased partials: %d > %d", len(on.Partial), len(off.Partial))
	}
}

func TestMemoryBytes(t *testing.T) {
	_, tr, _ := buildTaxi(t, 2, 16, PolicyPASS)
	if tr.MemoryBytes() <= 0 {
		t.Error("MemoryBytes must be positive")
	}
}
