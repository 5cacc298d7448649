package sqlfe

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataset"
)

func mustNormalize(t *testing.T, sql string) *Template {
	t.Helper()
	tm, err := Normalize(sql)
	if err != nil {
		t.Fatalf("Normalize(%q): %v", sql, err)
	}
	return tm
}

func TestNormalizeCanonicalText(t *testing.T) {
	// Whitespace and keyword case must not affect the template; literal
	// values must not appear in it.
	variants := []string{
		"SELECT SUM(trip_distance) FROM taxi WHERE pickup_time >= 8 AND pickup_time <= 10",
		"select   sum( trip_distance )\n\tfrom TAXI\nwhere pickup_time>=8 and pickup_time<=10",
		"SeLeCt SuM(trip_distance) FrOm Taxi WhErE pickup_time >= 99.5 AnD pickup_time <= -3e2",
	}
	base := mustNormalize(t, variants[0])
	for _, v := range variants[1:] {
		tm := mustNormalize(t, v)
		if tm.Text != base.Text {
			t.Errorf("templates differ:\n%q\n%q\nfor %q", base.Text, tm.Text, v)
		}
		if tm.Table != "taxi" {
			t.Errorf("table = %q, want taxi", tm.Table)
		}
	}
	if base.NumParams() != 2 {
		t.Fatalf("params = %d, want 2", base.NumParams())
	}
	if p := base.Params(); p[0].Num != 8 || p[1].Num != 10 || p[0].IsStr || p[1].IsStr {
		t.Errorf("params = %+v", p)
	}
	// The third variant's literals must come through its own param vector.
	tm := mustNormalize(t, variants[2])
	if p := tm.Params(); p[0].Num != 99.5 || p[1].Num != -3e2 {
		t.Errorf("params = %+v", p)
	}
}

func TestNormalizeQuotedKeywords(t *testing.T) {
	// A string literal containing keywords must be lifted verbatim, never
	// folded or confused with grammar.
	tm := mustNormalize(t, "SELECT COUNT(*) FROM t WHERE name = 'SELECT and FROM where GROUP'")
	if tm.NumParams() != 1 {
		t.Fatalf("params = %d, want 1", tm.NumParams())
	}
	p := tm.Params()[0]
	if !p.IsStr || p.Str != "SELECT and FROM where GROUP" {
		t.Errorf("param = %+v", p)
	}
	// And the '' escape survives.
	tm = mustNormalize(t, "SELECT COUNT(*) FROM t WHERE name = 'O''Hare'")
	if p := tm.Params()[0]; p.Str != "O'Hare" {
		t.Errorf("param = %+v", p)
	}
}

func TestNormalizeNumberForms(t *testing.T) {
	// Negative, explicit-positive, scientific and bare-dot spellings all
	// normalize to the same template with the literal in the vector.
	cases := map[string]float64{
		"SELECT COUNT(*) FROM t WHERE a = -2e3":   -2e3,
		"SELECT COUNT(*) FROM t WHERE a = +1.5":   1.5,
		"SELECT COUNT(*) FROM t WHERE a = .5":     0.5,
		"SELECT COUNT(*) FROM t WHERE a = 1.5E-2": 1.5e-2,
		"SELECT COUNT(*) FROM t WHERE a = 12":     12,
	}
	var text string
	for sql, want := range cases {
		tm := mustNormalize(t, sql)
		if text == "" {
			text = tm.Text
		} else if tm.Text != text {
			t.Errorf("template for %q = %q, want %q", sql, tm.Text, text)
		}
		if got := tm.Params()[0].Num; got != want {
			t.Errorf("param for %q = %v, want %v", sql, got, want)
		}
	}
}

func TestNormalizeMixedCaseBetweenGroupBy(t *testing.T) {
	a := mustNormalize(t, "SELECT AVG(x) FROM t WHERE a BETWEEN 1 AND 2 GROUP BY b")
	b := mustNormalize(t, "select avg(x) from T where a between 3 and 4 group by b")
	if a.Text != b.Text {
		t.Errorf("templates differ:\n%q\n%q", a.Text, b.Text)
	}
	if a.stmt.groupBy != "b" || a.stmt.conds[0].op != OpBetween {
		t.Errorf("stmt = %+v", a.stmt)
	}
}

func TestNormalizeNoCollisions(t *testing.T) {
	// Pairs of statements with different semantics must never share a
	// template. Notably: numeric vs string literal on the same column
	// (typed placeholders), and column-name case (resolution is
	// case-exact).
	pairs := [][2]string{
		{"SELECT COUNT(*) FROM t WHERE c = 5", "SELECT COUNT(*) FROM t WHERE c = '5'"},
		{"SELECT COUNT(*) FROM t WHERE a = 1", "SELECT COUNT(*) FROM t WHERE A = 1"},
		{"SELECT SUM(x) FROM t WHERE a = 1", "SELECT SUM(X) FROM t WHERE a = 1"},
		{"SELECT SUM(x) FROM t WHERE a BETWEEN 1 AND 2", "SELECT SUM(x) FROM t WHERE a >= 1 AND a <= 2"},
		{"SELECT SUM(x) FROM t WHERE a < 1", "SELECT SUM(x) FROM t WHERE a <= 1"},
		{"SELECT SUM(x) FROM t GROUP BY a", "SELECT SUM(x) FROM t GROUP BY A"},
	}
	for _, pr := range pairs {
		x, y := mustNormalize(t, pr[0]), mustNormalize(t, pr[1])
		if x.Text == y.Text {
			t.Errorf("collision: %q and %q both normalize to %q", pr[0], pr[1], x.Text)
		}
	}
	// Table names, by contrast, resolve case-insensitively everywhere, so
	// they SHOULD share a template.
	x, y := mustNormalize(t, "SELECT SUM(x) FROM Taxi"), mustNormalize(t, "SELECT SUM(x) FROM TAXI")
	if x.Text != y.Text {
		t.Errorf("table case split templates: %q vs %q", x.Text, y.Text)
	}
}

func TestNormalizeKeywordNamedColumns(t *testing.T) {
	// Columns that happen to be named like keywords parse as identifiers
	// in the grammar positions where the parser accepts identifiers; the
	// normalizer must preserve them verbatim there.
	tm := mustNormalize(t, "SELECT SUM(x) FROM t WHERE between >= 1 AND and = 2")
	if len(tm.stmt.conds) != 2 ||
		tm.stmt.conds[0].column != "between" || tm.stmt.conds[1].column != "and" {
		t.Fatalf("conds = %+v", tm.stmt.conds)
	}
}

func TestNormalizeRejectsWhatParseRejects(t *testing.T) {
	bad := []string{
		"SELECT SUM(x) FROM t WHERE a = 1 OR b = 2",
		"SELECT SUM(x) FROM t WHERE a != 1",
		"SELECT SUM(x) FROM t WHERE a <> 1",
		"SELECT MEDIAN(x) FROM t",
		"SELECT SUM(*) FROM t",
		"SELECT SUM(x) FROM t trailing",
		"SELECT SUM(x) FROM t WHERE a BETWEEN 1 AND 'b'",
		"SELECT SUM(x)",
	}
	for _, sql := range bad {
		if _, errN := Normalize(sql); errN == nil {
			t.Errorf("Normalize accepted %q", sql)
		}
		if _, errP := Parse(sql); errP == nil {
			t.Errorf("Parse accepted %q (test premise broken)", sql)
		}
	}
}

// TestBindMatchesCompile is the template-correctness twin: for a battery
// of statements, Normalize → CompileTemplate → Bind must produce exactly
// the Plan that Parse → Compile produces.
func TestBindMatchesCompile(t *testing.T) {
	schema := Schema{
		Table:       "taxi",
		PredColumns: []string{"pickup_time", "pickup_date", "pu_location"},
		AggColumn:   "trip_distance",
		Dicts: map[string]*dataset.Dict{
			"pu_location": dataset.BuildDict([]string{"JFK", "LGA", "EWR"}),
		},
	}
	stmts := []string{
		"SELECT SUM(trip_distance) FROM taxi",
		"SELECT COUNT(*) FROM taxi WHERE pickup_time >= 8 AND pickup_time < 10",
		"SELECT AVG(trip_distance) FROM Taxi WHERE pickup_date BETWEEN 100 AND 200 AND pu_location = 'JFK'",
		"SELECT MIN(trip_distance) FROM taxi WHERE pu_location BETWEEN 'EWR' AND 'LGA'",
		"SELECT MAX(trip_distance) FROM taxi WHERE pickup_time > -2e1 AND pickup_time <= .5 AND pickup_time >= -100",
		"SELECT COUNT(*) FROM taxi GROUP BY pu_location",
		"SELECT SUM(trip_distance) FROM taxi WHERE pickup_time = 7 GROUP BY pu_location",
	}
	for _, sql := range stmts {
		want, err := ParseAndCompile(sql, schema)
		if err != nil {
			t.Fatalf("ParseAndCompile(%q): %v", sql, err)
		}
		tm := mustNormalize(t, sql)
		prep, err := CompileTemplate(tm, schema)
		if err != nil {
			t.Fatalf("CompileTemplate(%q): %v", sql, err)
		}
		got, err := prep.Bind(tm.Params())
		if err != nil {
			t.Fatalf("Bind(%q): %v", sql, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("plan mismatch for %q:\n got %+v\nwant %+v", sql, got, want)
		}
	}
	// Error parity for resolution failures.
	for _, sql := range []string{
		"SELECT SUM(trip_distance) FROM other",
		"SELECT SUM(fare) FROM taxi",
		"SELECT SUM(trip_distance) FROM taxi WHERE nope = 1",
		"SELECT SUM(trip_distance) FROM taxi WHERE pickup_time = 'JFK'",
		"SELECT SUM(trip_distance) FROM taxi WHERE pu_location = 'SFO'",
	} {
		_, errC := ParseAndCompile(sql, schema)
		if errC == nil {
			t.Fatalf("ParseAndCompile accepted %q", sql)
		}
		tm, errN := Normalize(sql)
		if errN != nil {
			continue // rejected even earlier — fine
		}
		prep, errT := CompileTemplate(tm, schema)
		if errT != nil {
			continue
		}
		if _, errB := prep.Bind(tm.Params()); errB == nil {
			t.Errorf("prepared path accepted %q which Compile rejects: %v", sql, errC)
		}
	}
}

func TestBindRebindsNewLiterals(t *testing.T) {
	schema := Schema{PredColumns: []string{"a", "b"}, AggColumn: "v"}
	tm := mustNormalize(t, "SELECT SUM(v) FROM t WHERE a BETWEEN 1 AND 2")
	prep, err := CompileTemplate(tm, schema)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := prep.Bind([]Param{NumParam(5), NumParam(9)})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Rect.Lo[0] != 5 || plan.Rect.Hi[0] != 9 {
		t.Errorf("rect = %+v", plan.Rect)
	}
	if !math.IsInf(plan.Rect.Lo[1], -1) || !math.IsInf(plan.Rect.Hi[1], 1) {
		t.Errorf("unconstrained dim clipped: %+v", plan.Rect)
	}
	// Arity and kind mismatches must be rejected.
	if _, err := prep.Bind([]Param{NumParam(5)}); err == nil {
		t.Error("short param vector accepted")
	}
	if _, err := prep.Bind([]Param{NumParam(5), StrParam("x")}); err == nil {
		t.Error("kind mismatch accepted")
	}
}

func TestPlanCacheLRUAndInvalidation(t *testing.T) {
	c := NewPlanCache(2)
	ownerA, ownerB := new(int), new(int)
	p1, p2, p3 := &Prepared{Text: "t1"}, &Prepared{Text: "t2"}, &Prepared{Text: "t3"}

	if _, ok := c.Lookup("t1", ownerA, 0); ok {
		t.Fatal("hit on empty cache")
	}
	c.Store("t1", ownerA, 0, p1)
	c.Store("t2", ownerA, 0, p2)
	if got, ok := c.Lookup("t1", ownerA, 0); !ok || got != p1 {
		t.Fatal("t1 not cached")
	}
	// t2 is now LRU; storing t3 evicts it.
	c.Store("t3", ownerA, 0, p3)
	if _, ok := c.Lookup("t2", ownerA, 0); ok {
		t.Error("t2 should have been evicted")
	}
	// Generation bump invalidates.
	if _, ok := c.Lookup("t1", ownerA, 1); ok {
		t.Error("stale generation served")
	}
	// ... and the stale entry was dropped, so the old pair misses too.
	if _, ok := c.Lookup("t1", ownerA, 0); ok {
		t.Error("stale entry not dropped")
	}
	// Owner change (drop + re-register) invalidates even at generation 0.
	c.Store("t3", ownerA, 0, p3)
	if _, ok := c.Lookup("t3", ownerB, 0); ok {
		t.Error("entry served across owners")
	}
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 || st.Evictions != 1 || st.Capacity != 2 {
		t.Errorf("stats = %+v", st)
	}
	// Nil cache is inert.
	var nilC *PlanCache
	nilC.Store("x", ownerA, 0, p1)
	if _, ok := nilC.Lookup("x", ownerA, 0); ok {
		t.Error("nil cache hit")
	}
	if s := nilC.Stats(); s != (PlanCacheStats{}) {
		t.Errorf("nil stats = %+v", s)
	}
}

// kdStmt is the shape of one batch_kd benchmark statement: a 3-D box
// spelled as six numeric comparisons.
const kdStmt = "SELECT SUM(fare) FROM taxi WHERE pickup_time >= 6.3125 AND pickup_time <= 9.5 " +
	"AND trip_distance >= 1.25 AND trip_distance <= 7.0625 AND passenger_count >= 1 AND passenger_count <= 4"

// TestNormalizeAllocates pins the allocation-light normalizer: with a
// pooled scratch, Normalize allocates only what the returned Template
// keeps — the Template, its Text, and its parameter and condition
// vectors (at most one more is tolerated: a GC may empty the pool).
func TestNormalizeAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	for _, c := range []struct {
		sql  string
		want float64
	}{
		{kdStmt, 5},
		{"SELECT COUNT(*) FROM taxi WHERE pickup_time >= 8 AND pickup_time <= 10.5", 4},
	} {
		mustNormalize(t, c.sql)
		if n := testing.AllocsPerRun(200, func() { _, _ = Normalize(c.sql) }); n > c.want {
			t.Errorf("%v allocs per Normalize, want at most %v: %s", n, c.want, c.sql)
		}
	}
}

// BenchmarkNormalize times one batch_kd-shaped statement.
func BenchmarkNormalize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = Normalize(kdStmt)
	}
}

// TestNormalizeTemplateOwnsItsText checks that no pooled scratch leaks
// into a returned Template: a template kept by one caller must not
// change while other goroutines normalize different statements.
func TestNormalizeTemplateOwnsItsText(t *testing.T) {
	a := mustNormalize(t, "SELECT AVG(fare) FROM Taxi WHERE zone = 'O''Hare' AND pickup_time BETWEEN 1 AND 2 GROUP BY zone")
	wantText, wantTable := a.Text, a.Table
	wantParams := append([]Param(nil), a.Params()...)
	wantStmt := a.stmt
	wantStmt.conds = append([]tmplCond(nil), a.stmt.conds...)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b, err := Normalize(kdStmt)
				if err != nil || b.Text == wantText {
					t.Errorf("Normalize(kdStmt) = %v, %v", b, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if a.Text != wantText || a.Table != wantTable || !reflect.DeepEqual(a.Params(), wantParams) ||
		!reflect.DeepEqual(a.stmt, wantStmt) {
		t.Fatalf("template changed under concurrent Normalize:\n%q %q %+v %+v\nwant\n%q %q %+v %+v",
			a.Text, a.Table, a.Params(), a.stmt, wantText, wantTable, wantParams, wantStmt)
	}
}
