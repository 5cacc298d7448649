package pass

import (
	"bytes"
	"math"
	"testing"
)

// boroughTable builds a table with a dictionary-encoded categorical
// column (borough) and a numeric column (hour).
func boroughTable(t *testing.T) (*Table, *Dict) {
	t.Helper()
	boroughs := []string{"bronx", "brooklyn", "manhattan", "queens", "staten"}
	var names []string
	var hours []float64
	var fares []float64
	seed := uint64(99)
	next := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>11) / (1 << 53)
	}
	for i := 0; i < 20000; i++ {
		b := int(next() * 5)
		if b > 4 {
			b = 4
		}
		names = append(names, boroughs[b])
		hours = append(hours, next()*24)
		fares = append(fares, 10+float64(b)*5+next()*3)
	}
	codes, dict := EncodeStrings(names)
	tbl := NewTable([]string{"borough", "hour"}, "fare")
	for i := range codes {
		tbl.Append([]float64{codes[i], hours[i]}, fares[i])
	}
	if err := tbl.SetDict("borough", dict); err != nil {
		t.Fatal(err)
	}
	return tbl, dict
}

// tripsSession serves syn as table "trips" on a fresh session.
func tripsSession(t *testing.T, syn *Synopsis) *Session {
	t.Helper()
	sess := NewSession()
	if err := sess.Register("trips", syn); err != nil {
		t.Fatal(err)
	}
	return sess
}

func TestSQLScalar(t *testing.T) {
	tbl, _ := boroughTable(t)
	syn, err := BuildMulti(tbl, Options{Partitions: 64, SampleRate: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tripsSession(t, syn).Exec("SELECT AVG(fare) FROM trips WHERE borough = 'manhattan' AND hour BETWEEN 7 AND 9")
	if err != nil {
		t.Fatal(err)
	}
	code, _ := tbl.dicts["borough"].Code("manhattan")
	truth, _ := tbl.Exact(Avg, Range{code, code}, Range{7, 9})
	if math.Abs(res.Scalar.Estimate-truth)/truth > 0.1 {
		t.Errorf("SQL AVG %v far from exact %v", res.Scalar.Estimate, truth)
	}
}

func TestSQLGroupBy(t *testing.T) {
	tbl, dict := boroughTable(t)
	syn, err := BuildMulti(tbl, Options{Partitions: 64, SampleRate: 0.05, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tripsSession(t, syn).Exec("SELECT AVG(fare) FROM trips GROUP BY borough")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != dict.Categories() {
		t.Fatalf("groups = %d, want %d", len(res.Groups), dict.Categories())
	}
	// per-borough means rise by 5 per code; check the ordering and labels
	prev := -math.MaxFloat64
	for _, g := range res.Groups {
		if g.NoMatch {
			t.Fatalf("group %v (%s) unexpectedly empty", g.Group, g.Label)
		}
		if g.Label == "" {
			t.Fatalf("group %v missing label", g.Group)
		}
		if g.Answer.Estimate < prev-1 {
			t.Errorf("group means should be (weakly) increasing: %v after %v", g.Answer.Estimate, prev)
		}
		prev = g.Answer.Estimate
	}
	if res.Groups[0].Label != "bronx" || res.Groups[4].Label != "staten" {
		t.Errorf("labels wrong: %v / %v", res.Groups[0].Label, res.Groups[4].Label)
	}
}

func TestSQLErrors(t *testing.T) {
	tbl, _ := boroughTable(t)
	syn, err := BuildMulti(tbl, Options{Partitions: 16, SampleRate: 0.02, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sess := tripsSession(t, syn)
	bad := []string{
		"SELECT MEDIAN(fare) FROM trips",
		"SELECT SUM(fare) FROM trips WHERE borough = 'atlantis'",
		"SELECT SUM(fare) FROM trips WHERE hour = 1 OR hour = 2",
		"SELECT SUM(nope) FROM trips",
		"SELECT SUM(fare) FROM trips GROUP BY hour", // numeric group-by needs GroupBy()
	}
	for _, sql := range bad {
		if _, err := sess.Exec(sql); err == nil {
			t.Errorf("SQL accepted %q", sql)
		}
	}
}

func TestGroupByNumericViaAPI(t *testing.T) {
	tbl := DemoTaxi(10000, 2, 4)
	syn, err := BuildMulti(tbl, Options{Partitions: 64, SampleRate: 0.05, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// group by day-of-month buckets on column 1
	groups := []float64{0, 1, 2, 3, 4}
	res, err := syn.GroupBy(Count, 1, groups, Range{Lo: 0, Hi: 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("groups = %d", len(res))
	}
	total := 0.0
	for _, g := range res {
		if !g.NoMatch {
			total += g.Answer.Estimate
		}
	}
	truth, _ := tbl.Exact(Count, Range{0, 24}, Range{0, 4})
	if math.Abs(total-truth)/truth > 0.1 {
		t.Errorf("summed group counts %v far from %v", total, truth)
	}
}

func TestSaveLoadWithSchema(t *testing.T) {
	tbl, err := Demo("nyctaxi", 5000, 6)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := Build(tbl, Options{Partitions: 16, SampleRate: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := syn.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSynopsis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// serving before SetSchema must fail gracefully
	sess := NewSession()
	if err := sess.Register("trips", got); err == nil {
		t.Error("a synopsis without schema was registered")
	}
	got.SetSchema([]string{"pickup_time"}, "trip_distance", nil)
	if err := sess.Register("trips", got); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Exec("SELECT SUM(trip_distance) FROM trips WHERE pickup_time BETWEEN 6 AND 18")
	if err != nil {
		t.Fatal(err)
	}
	want, err := syn.Sum(Range{6, 18})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Scalar.Estimate-want.Estimate) > 1e-3*(1+math.Abs(want.Estimate)) {
		t.Errorf("loaded SQL answer %v != original %v", res.Scalar.Estimate, want.Estimate)
	}
}

func TestSetDictValidation(t *testing.T) {
	tbl := NewTable([]string{"a"}, "v")
	_, dict := EncodeStrings([]string{"x"})
	if err := tbl.SetDict("nope", dict); err == nil {
		t.Error("SetDict on unknown column accepted")
	}
	if err := tbl.SetDict("v", dict); err == nil {
		t.Error("SetDict on the aggregate column accepted")
	}
}
