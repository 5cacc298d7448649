package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestAggKindRoundTrip(t *testing.T) {
	for _, k := range []AggKind{Sum, Count, Avg, Min, Max} {
		got, err := ParseAggKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseAggKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseAggKind("MEDIAN"); err == nil {
		t.Error("ParseAggKind accepted unknown aggregate")
	}
	if got, err := ParseAggKind("sum"); err != nil || got != Sum {
		t.Errorf("case-insensitive parse failed: %v %v", got, err)
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect([]float64{0, 10}, []float64{5, 20})
	cases := []struct {
		p    []float64
		want bool
	}{
		{[]float64{0, 10}, true},   // inclusive lower
		{[]float64{5, 20}, true},   // inclusive upper
		{[]float64{2.5, 15}, true}, // interior
		{[]float64{-1, 15}, false},
		{[]float64{2.5, 21}, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRectContainsIgnoresExtraDims(t *testing.T) {
	r := Rect1(0, 5)
	if !r.Contains([]float64{3, 999}) {
		t.Error("1D rectangle should ignore the second coordinate")
	}
}

func TestRectRelations(t *testing.T) {
	outer := NewRect([]float64{0, 0}, []float64{10, 10})
	inner := NewRect([]float64{2, 2}, []float64{5, 5})
	disjoint := NewRect([]float64{11, 11}, []float64{12, 12})
	touching := NewRect([]float64{10, 5}, []float64{15, 6})
	if !outer.ContainsRect(inner) {
		t.Error("outer should contain inner")
	}
	if inner.ContainsRect(outer) {
		t.Error("inner should not contain outer")
	}
	if !outer.Intersects(inner) || !outer.Intersects(touching) {
		t.Error("intersection with inner/touching expected")
	}
	if outer.Intersects(disjoint) {
		t.Error("no intersection with disjoint expected")
	}
}

func TestAppendAndAccess(t *testing.T) {
	d := New("t", 2)
	d.Append([]float64{1, 2}, 10)
	d.Append([]float64{3, 4}, 20)
	if d.N() != 2 || d.Dims() != 2 {
		t.Fatalf("N=%d Dims=%d", d.N(), d.Dims())
	}
	p := d.Point(1)
	if p[0] != 3 || p[1] != 4 {
		t.Errorf("Point(1) = %v", p)
	}
}

func TestSortByPred(t *testing.T) {
	d := New("t", 1)
	vals := []float64{5, 3, 9, 1, 7}
	for i, v := range vals {
		d.Append([]float64{v}, float64(i))
	}
	d.SortByPred(0)
	for i := 1; i < d.N(); i++ {
		if d.Pred[0][i] < d.Pred[0][i-1] {
			t.Fatalf("not sorted at %d: %v", i, d.Pred[0])
		}
	}
	// aggregate must move with its tuple: pred 1 carried agg 3
	if d.Pred[0][0] != 1 || d.Agg[0] != 3 {
		t.Errorf("tuple integrity broken after sort: pred=%v agg=%v", d.Pred[0][0], d.Agg[0])
	}
}

func TestExactAggregates(t *testing.T) {
	d := New("t", 1)
	// predicate values 0..9, aggregate = 2*i
	for i := 0; i < 10; i++ {
		d.Append([]float64{float64(i)}, float64(2*i))
	}
	r := Rect1(2, 5) // matches i = 2,3,4,5 → agg 4,6,8,10
	if got, _ := d.Exact(Sum, r); got != 28 {
		t.Errorf("SUM = %v, want 28", got)
	}
	if got, _ := d.Exact(Count, r); got != 4 {
		t.Errorf("COUNT = %v, want 4", got)
	}
	if got, _ := d.Exact(Avg, r); got != 7 {
		t.Errorf("AVG = %v, want 7", got)
	}
	if got, _ := d.Exact(Min, r); got != 4 {
		t.Errorf("MIN = %v, want 4", got)
	}
	if got, _ := d.Exact(Max, r); got != 10 {
		t.Errorf("MAX = %v, want 10", got)
	}
}

func TestExactEmptySelection(t *testing.T) {
	d := New("t", 1)
	d.Append([]float64{1}, 5)
	r := Rect1(10, 20)
	if got, err := d.Exact(Sum, r); err != nil || got != 0 {
		t.Errorf("empty SUM = %v, %v", got, err)
	}
	if got, err := d.Exact(Count, r); err != nil || got != 0 {
		t.Errorf("empty COUNT = %v, %v", got, err)
	}
	for _, k := range []AggKind{Avg, Min, Max} {
		if _, err := d.Exact(k, r); err != ErrNoMatch {
			t.Errorf("empty %v: err = %v, want ErrNoMatch", k, err)
		}
	}
}

func TestBounds(t *testing.T) {
	d := New("t", 2)
	d.Append([]float64{1, 5}, 0)
	d.Append([]float64{-2, 9}, 0)
	d.Append([]float64{4, 7}, 0)
	b := d.Bounds()
	if b.Lo[0] != -2 || b.Hi[0] != 4 || b.Lo[1] != 5 || b.Hi[1] != 9 {
		t.Errorf("Bounds = %v", b)
	}
}

func TestSliceSharesBacking(t *testing.T) {
	d := GenUniform(100, 1, 10, 1)
	s := d.Slice(10, 20)
	if s.N() != 10 {
		t.Fatalf("slice N = %d", s.N())
	}
	s.Agg[0] = -99
	if d.Agg[10] != -99 {
		t.Error("Slice should share backing arrays")
	}
}

func TestCloneIndependent(t *testing.T) {
	d := GenUniform(50, 2, 10, 2)
	c := d.Clone()
	c.Agg[0] = -1
	c.Pred[0][0] = -1
	if d.Agg[0] == -1 || d.Pred[0][0] == -1 {
		t.Error("Clone should not share backing arrays")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := GenUniform(200, 3, 50, 3)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf, "roundtrip")
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got.N() != d.N() || got.Dims() != d.Dims() {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", got.N(), got.Dims(), d.N(), d.Dims())
	}
	for i := 0; i < d.N(); i++ {
		if got.Agg[i] != d.Agg[i] {
			t.Fatalf("agg mismatch at %d", i)
		}
		for c := 0; c < d.Dims(); c++ {
			if got.Pred[c][i] != d.Pred[c][i] {
				t.Fatalf("pred mismatch at %d,%d", i, c)
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString(""), "x"); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := ReadCSV(bytes.NewBufferString("a\n1\n"), "x"); err == nil {
		t.Error("single-column input should fail")
	}
	if _, err := ReadCSV(bytes.NewBufferString("a,b\nfoo,2\n"), "x"); err == nil {
		t.Error("non-numeric input should fail")
	}
}

// TestReadCSVRejectsNonFinite: NaN and infinities, which strconv
// accepts, are refused with the row and column they sit in.
func TestReadCSVRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct{ csv, want string }{
		{"hour,light\n1,2\n3,NaN\n", `row 2 aggregate column "light": non-finite value "NaN"`},
		{"hour,light\n-Inf,2\n", `row 1 column "hour": non-finite value "-Inf"`},
		{"hour,day,light\n1,+infinity,2\n", `row 1 column "day": non-finite value "+infinity"`},
	} {
		_, err := ReadCSV(bytes.NewBufferString(tc.csv), "x")
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ReadCSV(%q) = %v, want an error containing %s", tc.csv, err, tc.want)
		}
	}
}

func TestGenerators(t *testing.T) {
	cases := []struct {
		name string
		d    *Dataset
		dims int
	}{
		{"intel", GenIntelWireless(5000, 1), 1},
		{"instacart", GenInstacart(5000, 1), 1},
		{"nyctaxi1", GenNYCTaxi(5000, 1, 1), 1},
		{"nyctaxi5", GenNYCTaxi(5000, 5, 1), 5},
		{"adversarial", GenAdversarial(5000, 1), 1},
		{"uniform", GenUniform(5000, 2, 10, 1), 2},
	}
	for _, c := range cases {
		if c.d.N() != 5000 {
			t.Errorf("%s: N = %d", c.name, c.d.N())
		}
		if c.d.Dims() != c.dims {
			t.Errorf("%s: dims = %d, want %d", c.name, c.d.Dims(), c.dims)
		}
		for _, a := range c.d.Agg {
			if math.IsNaN(a) || math.IsInf(a, 0) {
				t.Errorf("%s: non-finite aggregate", c.name)
				break
			}
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := GenNYCTaxi(1000, 3, 42)
	b := GenNYCTaxi(1000, 3, 42)
	for i := 0; i < a.N(); i++ {
		if a.Agg[i] != b.Agg[i] {
			t.Fatal("same-seed generation diverged")
		}
	}
}

func TestAdversarialShape(t *testing.T) {
	d := GenAdversarial(8000, 1)
	zeros := 0
	for _, a := range d.Agg[:7000] {
		if a == 0 {
			zeros++
		}
	}
	if zeros != 7000 {
		t.Errorf("first 7/8 should be all zeros, got %d of 7000", zeros)
	}
	tail := 0.0
	for _, a := range d.Agg[7000:] {
		tail += a
	}
	if tail/1000 < 50 {
		t.Errorf("tail mean = %v, want ~100", tail/1000)
	}
}

func TestInstacartBinary(t *testing.T) {
	d := GenInstacart(3000, 5)
	for i, a := range d.Agg {
		if a != 0 && a != 1 {
			t.Fatalf("reordered flag at %d = %v, want 0/1", i, a)
		}
	}
	// sorted by product id
	for i := 1; i < d.N(); i++ {
		if d.Pred[0][i] < d.Pred[0][i-1] {
			t.Fatal("instacart not sorted by product_id")
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"intel", "instacart", "nyctaxi", "adversarial", "uniform"} {
		d, ok := ByName(name, 500, 1)
		if !ok || d.N() != 500 {
			t.Errorf("ByName(%q) failed", name)
		}
	}
	if _, ok := ByName("nope", 10, 1); ok {
		t.Error("ByName accepted unknown dataset")
	}
}

// Property: Exact COUNT equals the brute-force match count for random
// rectangles.
func TestExactCountProperty(t *testing.T) {
	d := GenUniform(300, 2, 10, 7)
	f := func(a, b, c, e float64) bool {
		lo0, hi0 := math.Min(a, b), math.Max(a, b)
		lo1, hi1 := math.Min(c, e), math.Max(c, e)
		r := NewRect([]float64{lo0, lo1}, []float64{hi0, hi1})
		got, _ := d.Exact(Count, r)
		return int(got) == d.CountMatching(r)
	}
	cfg := &quick.Config{MaxCount: 100, Values: nil}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPermutePanics(t *testing.T) {
	d := GenUniform(10, 1, 1, 1)
	defer func() {
		if recover() == nil {
			t.Error("Permute with wrong length should panic")
		}
	}()
	d.Permute([]int{0, 1})
}
