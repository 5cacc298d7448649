package sqlfe

import (
	"reflect"
	"testing"
)

// FuzzNormalize cross-checks the two front-end walks that must stay
// structurally identical: Parse (builds a Stmt) and Normalize (emits the
// canonical template that keys the plan cache). For any input the two
// must agree on accept/reject; on accepted statements the prepared path
// (CompileTemplate + Bind) must produce exactly the Plan that Compile
// produces — against a schema derived from the statement itself, so the
// planner's name resolution is exercised rather than short-circuited.
// Normalize reuses pooled scratch, so it also checks that normalizing a
// second statement leaves an earlier template untouched.
func FuzzNormalize(f *testing.F) {
	for _, sql := range []string{
		"SELECT SUM(x) FROM t",
		"SELECT COUNT(*) FROM taxi WHERE pickup_time >= 8 AND pickup_time < 10",
		"SELECT AVG(v) FROM t WHERE a BETWEEN 1 AND 2 GROUP BY b",
		"SELECT MIN(v) FROM t WHERE s = 'O''Hare'",
		"SELECT QUANTILE(x, 0.5) FROM t",
		"SELECT TOPK(x, 10) FROM t",
		"SELECT COUNT(DISTINCT x) FROM t",
		"SELECT COUNT(distinct) FROM t",
		"SELECT QUANTILE(x, 1.5) FROM t",
		"SELECT TOPK(x, 0) FROM t",
		"SELECT QUANTILE(x, 0.5) FROM t WHERE a = 1",
		"SELECT MEDIAN(x) FROM t",
		"SELECT SUM(x) FROM t WHERE a = 1 OR b = 2",
		"select sum ( x ) from t where between >= 1 and and = 2",
		"SELECT",
		"",
		"\x00\xff'(",
		kdStmt,
		"SELECT COUNT(*) FROM taxi WHERE pickup_time >= 0.5 AND pickup_time <= 23 AND trip_distance >= 2 " +
			"AND trip_distance <= 9.75 AND passenger_count >= 2 AND passenger_count <= 5",
		"SELECT AVG(fare) FROM Taxi WHERE pickup_time >= -1.5e1 AND pickup_time <= .5 AND zone = 'O''Hare'",
	} {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, errP := Parse(sql)
		tm, errN := Normalize(sql)
		if (errP == nil) != (errN == nil) {
			t.Fatalf("Parse/Normalize disagree on %q: %v vs %v", sql, errP, errN)
		}
		if errP != nil {
			return
		}
		// Normalization is deterministic, and a second statement through
		// the same scratch does not reach into the first template.
		text, table, params := tm.Text, tm.Table, append([]Param(nil), tm.Params()...)
		if _, err := Normalize(kdStmt); err != nil {
			t.Fatal(err)
		}
		tm2, err := Normalize(sql)
		if err != nil || tm2.Text != tm.Text || !reflect.DeepEqual(tm2.Params(), tm.Params()) {
			t.Fatalf("re-normalizing %q changed the template: %v", sql, err)
		}
		if tm.Text != text || tm.Table != table || !reflect.DeepEqual(tm.Params(), params) {
			t.Fatalf("normalizing other statements mutated the template of %q", sql)
		}
		// Resolve against a schema shaped like the statement: its predicate
		// and grouping columns exist, its aggregate column matches.
		schema := Schema{AggColumn: stmt.AggColumn}
		if stmt.AggColumn == "*" {
			schema.AggColumn = "v"
		}
		seen := map[string]bool{}
		for _, c := range stmt.Conds {
			if !seen[c.Column] {
				seen[c.Column] = true
				schema.PredColumns = append(schema.PredColumns, c.Column)
			}
		}
		if stmt.GroupBy != "" && !seen[stmt.GroupBy] {
			schema.PredColumns = append(schema.PredColumns, stmt.GroupBy)
		}
		want, errC := Compile(stmt, schema)
		prep, errT := CompileTemplate(tm, schema)
		var got *Plan
		errB := errT
		if errT == nil {
			got, errB = prep.Bind(tm.Params())
		}
		if (errC == nil) != (errB == nil) {
			t.Fatalf("compile paths disagree on %q: %v vs %v", sql, errC, errB)
		}
		if errC == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("plan mismatch for %q:\n got %+v\nwant %+v", sql, got, want)
		}
	})
}
