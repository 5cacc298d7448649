package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/jsonout"
	"repro/internal/obs"
	"repro/internal/sqlfe"
	"repro/pass"
)

// TestMain lets the tests run passquery end to end: the test binary,
// re-executed with PASSQUERY_AS_MAIN=1, is the command itself.
func TestMain(m *testing.M) {
	if os.Getenv("PASSQUERY_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// passquery runs the command with args (plus -json) in a child process
// and decodes what it printed.
func passquery(t *testing.T, args ...string) jsonOutput {
	t.Helper()
	cmd := exec.Command(os.Args[0], append(args, "-json")...)
	cmd.Env = append(os.Environ(), "PASSQUERY_AS_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	raw, err := cmd.Output()
	if err != nil {
		t.Fatalf("passquery %v: %v\n%s", args, err, stderr.String())
	}
	var out jsonOutput
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("passquery %v: decode %q: %v", args, raw, err)
	}
	return out
}

// taxiCSV writes the simulated taxi table with dims predicate columns
// (pickup_time, pickup_date, pu_location, ...; trip_distance last).
func taxiCSV(t *testing.T, dims int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), fmt.Sprintf("taxi%dd.csv", dims))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.GenNYCTaxi(4000, dims, 7).WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

var aggs = []string{"sum", "count", "avg", "min", "max"}

// TestAggWhereMatchesSQL: -agg/-where is the statement -sql would give, so
// both answer bit for bit alike, on 1-D and 3-D tables and every aggregate.
func TestAggWhereMatchesSQL(t *testing.T) {
	for _, tc := range []struct {
		dims        int
		where, cond string
	}{
		{1, "6:18", "pickup_time BETWEEN 6 AND 18"},
		{3, "6:18,3:20,-inf:9.5", "pickup_time BETWEEN 6 AND 18 AND pickup_date BETWEEN 3 AND 20 AND pu_location <= 9.5"},
	} {
		csv := taxiCSV(t, tc.dims)
		for _, agg := range aggs {
			byFlags := passquery(t, "-in", csv, "-agg", agg, "-where", tc.where)
			bySQL := passquery(t, "-in", csv, "-sql",
				fmt.Sprintf("SELECT %s(trip_distance) FROM t WHERE %s", strings.ToUpper(agg), tc.cond))
			if byFlags.Answer == nil || !reflect.DeepEqual(byFlags.Answer, bySQL.Answer) {
				t.Errorf("%d-D %s: -agg/-where answered %+v, -sql %+v", tc.dims, agg, byFlags.Answer, bySQL.Answer)
			}
		}
	}
}

// TestSaveThenLoad: a table saved into a data directory answers, loaded
// back, what it answered when built — within the snapshot codec's
// precision — and the directory holds the one-shard fileset passd serves.
func TestSaveThenLoad(t *testing.T) {
	csv, dir := taxiCSV(t, 1), filepath.Join(t.TempDir(), "data")
	built := passquery(t, "-in", csv, "-save", dir, "-table", "taxi", "-where", "6:18")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range ents {
		files = append(files, e.Name())
	}
	if got := strings.Join(files, " "); got != "taxi.manifest taxi.s0.snap taxi.wal" {
		t.Fatalf("-save wrote %s", got)
	}
	// the codec stores sample values to ~1e-6 of the answer's magnitude,
	// which bounds the drift of the estimate and of its interval alike
	close := func(want, got *jsonout.Answer) bool {
		tol := 1e-6 * math.Max(1, math.Abs(want.Estimate))
		return got != nil && math.Abs(want.Estimate-got.Estimate) <= tol && math.Abs(want.CIHalf-got.CIHalf) <= tol
	}
	for _, agg := range aggs {
		want := passquery(t, "-in", csv, "-agg", agg, "-where", "6:18").Answer
		if got := passquery(t, "-load", dir, "-agg", agg, "-where", "6:18"); got.Table != "taxi" || !close(want, got.Answer) {
			t.Errorf("%s: loaded %+v, built %+v", agg, got.Answer, want)
		}
	}
	if sum := passquery(t, "-load", dir, "-sql", "SELECT SUM(trip_distance) FROM taxi WHERE pickup_time BETWEEN 6 AND 18"); !close(built.Answer, sum.Answer) {
		t.Errorf("-load -sql SUM = %v, built %v", sum.Answer.Estimate, built.Answer.Estimate)
	}
}

// TestComparatorAnswersSQL: a comparator engine is one more table behind
// the session, so it takes -sql like PASS does.
func TestComparatorAnswersSQL(t *testing.T) {
	csv := taxiCSV(t, 1)
	bySQL := passquery(t, "-in", csv, "-engine", "us", "-sql", "SELECT COUNT(*) FROM t WHERE pickup_time >= 6")
	byFlags := passquery(t, "-in", csv, "-engine", "us", "-agg", "count", "-where", "6:inf")
	if bySQL.Engine != "US" || bySQL.Answer == nil || !reflect.DeepEqual(bySQL.Answer, byFlags.Answer) {
		t.Errorf("US -sql answered %+v (engine %s), -agg/-where %+v", bySQL.Answer, bySQL.Engine, byFlags.Answer)
	}
}

// TestRenderSQLBindsParsedRect: the statement rendered from -where binds
// to exactly the rectangle the ranges parse to — open sides, infinities
// and scientific notation included, bit for bit.
func TestRenderSQLBindsParsedRect(t *testing.T) {
	info := pass.TableInfo{Name: "t", PredColumns: []string{"a", "b", "c"}, AggColumn: "v"}
	inf := math.Inf(1)
	for _, tc := range []struct {
		where  string
		lo, hi []float64
	}{
		{"", []float64{-inf, -inf, -inf}, []float64{inf, inf, inf}},
		{"-inf:inf", []float64{-inf, -inf, -inf}, []float64{inf, inf, inf}},
		{"6:18", []float64{6, -inf, -inf}, []float64{18, inf, inf}},
		{"-inf:1e-300, 2.5e+10:inf", []float64{-inf, 2.5e10, -inf}, []float64{1e-300, inf, inf}},
		{"-0:0,0.1:0.30000000000000004,-1.7976931348623157e308:4.9e-324",
			[]float64{math.Copysign(0, -1), 0.1, -math.MaxFloat64}, []float64{0, 0.30000000000000004, 5e-324}},
		{"-5E3:-inf", nil, nil}, // hi may not be -inf
		{"inf:inf", nil, nil},   // nor lo +inf
		{"1:2,3:4,5:6,7:8", nil, nil},
	} {
		stmt, err := renderSQL("SUM", tc.where, info)
		if tc.lo == nil {
			if err == nil {
				t.Errorf("%q rendered as %q, want an error", tc.where, stmt)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%q: %v", tc.where, err)
		}
		plan, err := sqlfe.ParseAndCompile(stmt, sqlfe.Schema{PredColumns: info.PredColumns, AggColumn: info.AggColumn})
		if err != nil {
			t.Fatalf("%q rendered as %q: %v", tc.where, stmt, err)
		}
		for i := range tc.lo {
			if math.Float64bits(plan.Rect.Lo[i]) != math.Float64bits(tc.lo[i]) ||
				math.Float64bits(plan.Rect.Hi[i]) != math.Float64bits(tc.hi[i]) {
				t.Errorf("%q rendered as %q binds %v, want lo %v hi %v", tc.where, stmt, plan.Rect, tc.lo, tc.hi)
				break
			}
		}
	}
}

func TestExplainSQLIdempotent(t *testing.T) {
	want := "EXPLAIN ANALYZE SELECT SUM(v) FROM t"
	if got := explainSQL("SELECT SUM(v) FROM t"); got != want {
		t.Fatalf("plain: %q", got)
	}
	if got := explainSQL("explain analyze SELECT SUM(v) FROM t"); got != want {
		t.Fatalf("already-prefixed: %q", got)
	}
}

// capture runs fn with os.Stdout redirected to a pipe and returns what
// it printed.
func capture(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	fn()
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestPrintTrace(t *testing.T) {
	if out := capture(t, func() { printTrace(nil) }); out != "" {
		t.Fatalf("nil trace printed %q", out)
	}
	root := &obs.SpanJSON{
		Name: "query", DurationUS: 120,
		Children: []*obs.SpanJSON{
			{Name: "compile", DurationUS: 40, Attrs: map[string]any{"plan_cache": "miss"}},
			{Name: "execute", DurationUS: 75, Attrs: map[string]any{
				"tuples_read": 7, "leaf_exact": 3,
			}},
		},
	}
	out := capture(t, func() { printTrace(root) })
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 || lines[0] != "trace:" {
		t.Fatalf("shape: %q", out)
	}
	if !strings.Contains(lines[1], "query") || !strings.Contains(lines[1], "120µs") {
		t.Fatalf("root line: %q", lines[1])
	}
	// children indent deeper than the root and carry attrs in key order
	if !strings.HasPrefix(lines[2], "    compile") || !strings.Contains(lines[2], "plan_cache=miss") {
		t.Fatalf("compile line: %q", lines[2])
	}
	if !strings.HasPrefix(lines[3], "    execute") ||
		!strings.Contains(lines[3], "leaf_exact=3  tuples_read=7") {
		t.Fatalf("execute line (attrs must be key-sorted): %q", lines[3])
	}
}
