// Command passquery answers one aggregate query over a table it builds
// from a CSV file (-in) or loads from a data directory (-load), through a
// pass.Session: -agg/-where is rendered as the SQL statement -sql would
// give, and every statement runs through Session.Exec. The CSV has a
// header row and its last column is the aggregation column; -where takes
// one lo:hi range per predicate column, in order (-inf or inf leaves a
// side open, missing trailing ranges are unconstrained).
//
//	passquery -in taxi.csv -agg sum -where 6:18 -exact     # also print truth
//	passquery -in taxi5d.csv -agg avg -where 6:18,0:15 -partitions 256
//	passquery -in taxi.csv -sql "SELECT AVG(trip_distance) FROM t WHERE pickup_time BETWEEN 6 AND 18"
//	passquery -in taxi.csv -agg sum -where 6:18 -engine aqpp -explain -json
//
// -save persists the built table into a data directory, the layout passd
// serves, and -load answers from one without a rebuild:
//
//	passquery -in taxi.csv -save data -table taxi
//	passquery -load data -agg sum -where 6:18
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine/factory"
	"repro/internal/jsonout"
	"repro/internal/obs"
	"repro/internal/sqlfe"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/pass"
)

// jsonOutput is the -json result document; report prints it as text too.
type jsonOutput struct {
	Table       string          `json:"table"`
	Engine      string          `json:"engine"`
	Rows        int             `json:"rows"`
	MemoryBytes int             `json:"memory_bytes"`
	BuildSecs   float64         `json:"build_seconds,omitempty"`
	Aggregate   string          `json:"aggregate,omitempty"`
	SQL         string          `json:"sql"`
	NoMatch     bool            `json:"no_match,omitempty"`
	Answer      *jsonout.Answer `json:"answer,omitempty"`
	Groups      []jsonout.Group `json:"groups,omitempty"`
	Sketch      *jsonout.Sketch `json:"sketch,omitempty"`
	Exact       *jsonTruth      `json:"exact,omitempty"`
	ExactError  string          `json:"exact_error,omitempty"` // why -exact has no truth
	Trace       *obs.SpanJSON   `json:"trace,omitempty"`       // -explain only
}

type jsonTruth struct {
	Value       float64 `json:"value"`
	RelativeErr float64 `json:"relative_error"`
}

func main() {
	var (
		in         = flag.String("in", "", "input CSV to build the table from")
		aggName    = flag.String("agg", "sum", "aggregate: sum, count, avg, min, max")
		where      = flag.String("where", "", "comma-separated lo:hi ranges, one per predicate column")
		partitions = flag.Int("partitions", 64, "leaf partitions k")
		rate       = flag.Float64("rate", 0.005, "sample rate")
		confidence = flag.Float64("confidence", 0.99, "CI coverage")
		seed       = flag.Uint64("seed", 1, "random seed")
		exact      = flag.Bool("exact", false, "also compute the exact answer by full scan of -in")
		sqlQuery   = flag.String("sql", "", "SQL statement (overrides -agg/-where); column names come from the CSV header")
		explainQ   = flag.Bool("explain", false, "run the statement as EXPLAIN ANALYZE and print the span tree (in -json, attach it as \"trace\")")
		engineName = flag.String("engine", "pass", "engine for -in: "+strings.Join(factory.Kinds(), ", ")+", or sharded:<inner>:<n>")
		jsonOut    = flag.Bool("json", false, "emit the result as JSON (machine-readable)")
		saveDir    = flag.String("save", "", "persist the table built from -in into this data directory")
		loadDir    = flag.String("load", "", "answer from a table in this data directory instead of building from -in")
		tableName  = flag.String("table", "", "table name (default: the -sql FROM table, else the CSV basename, or with -load the directory's only table)")
	)
	flag.Parse()
	if (*in == "") == (*loadDir == "") || (*saveDir != "" && *in == "") {
		fmt.Fprintln(os.Stderr, "passquery: give -in (optionally with -save) or -load")
		os.Exit(2)
	}

	sess := pass.NewSession()
	var base *dataset.Dataset // the rows behind a built table, for -exact
	out := jsonOutput{Table: *tableName}
	if out.Table == "" && *sqlQuery != "" {
		stmt, _ := sqlfe.StripExplain(*sqlQuery)
		if tmpl, err := sqlfe.Normalize(stmt); err == nil {
			out.Table = tmpl.Table
		}
	}
	dir := *saveDir
	if *loadDir != "" {
		if _, err := os.Stat(*loadDir); err != nil { // a read must not create it
			fatal(err)
		}
		dir = *loadDir
	}
	if dir != "" {
		st, err := store.Open(dir, store.Options{CheckpointInterval: -1})
		if err != nil {
			fatal(err)
		}
		defer st.Close() // -load: closed without a checkpoint, a read writes no new one
		if _, err := sess.AttachStore(st); err != nil {
			fatal(err)
		}
	}
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		base, err = dataset.ReadCSV(f, "table")
		f.Close()
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		eng, err := factory.Build(*engineName, base, factory.Spec{
			Partitions: *partitions, SampleRate: *rate, Seed: *seed, Lambda: stats.LambdaFor(*confidence),
		})
		if err != nil {
			fatal(err)
		}
		out.BuildSecs = time.Since(start).Seconds()
		if out.Table == "" {
			out.Table = strings.TrimSuffix(filepath.Base(*in), filepath.Ext(*in))
		}
		// with -save the table is persisted on register, and Close checkpoints
		if err := sess.RegisterEngine(out.Table, eng, sqlfe.SchemaFromColNames(base.ColNames)); err != nil {
			fatal(err)
		}
		if err := sess.Close(); err != nil {
			fatal(err)
		}
	}
	tabs := sess.Tables()
	if out.Table == "" && len(tabs) == 1 { // -load of a one-table directory
		out.Table = tabs[0].Name
	}
	i := slices.IndexFunc(tabs, func(t pass.TableInfo) bool { return strings.EqualFold(t.Name, out.Table) })
	if i < 0 {
		fatal(fmt.Errorf("no table %q among the %d loaded; name one with -table", out.Table, len(tabs)))
	}
	info := tabs[i]
	out.Table, out.Engine, out.Rows, out.MemoryBytes = info.Name, info.Engine, info.Rows, info.MemoryBytes

	// one query path: -agg/-where is rendered as the statement -sql gives
	stmt := *sqlQuery
	if stmt == "" {
		var err error
		out.Aggregate = strings.ToUpper(*aggName)
		if stmt, err = renderSQL(out.Aggregate, *where, info); err != nil {
			fatal(err)
		}
	}
	if *explainQ {
		stmt = explainSQL(stmt)
	}
	out.SQL, _ = sqlfe.StripExplain(stmt)
	res, err := sess.Exec(stmt)
	switch {
	case errors.Is(err, pass.ErrNoMatch):
		out.NoMatch = true
	case err != nil:
		fatal(err)
	case res.Groups != nil:
		out.Groups = jsonout.FromGroups(res.Groups)
	case res.Sketch != nil:
		out.Sketch = jsonout.FromSketch(res.Sketch)
	default:
		out.Answer = jsonout.FromAnswer(res.Scalar)
	}
	out.Trace = res.Trace
	if *exact {
		out.Exact, out.ExactError = groundTruth(base, out.SQL, out.Answer)
	}
	report(out, *jsonOut)
}

// renderSQL writes -agg/-where as the statement binding to exactly the
// parsed rectangle: BETWEEN for finite bounds, >= or <= for half-infinite
// ones, nothing for -inf:inf. Bounds print in the shortest form that
// parses back to the same float64.
func renderSQL(agg, where string, t pass.TableInfo) (string, error) {
	var conds []string
	parts := strings.Fields(strings.ReplaceAll(where, ",", " "))
	if len(parts) > len(t.PredColumns) {
		return "", fmt.Errorf("%d ranges for the %d predicate columns %v", len(parts), len(t.PredColumns), t.PredColumns)
	}
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for i, part := range parts {
		bounds := strings.Split(part, ":")
		if len(bounds) != 2 {
			return "", fmt.Errorf("range %q must be lo:hi", part)
		}
		lo, err1 := strconv.ParseFloat(bounds[0], 64)
		hi, err2 := strconv.ParseFloat(bounds[1], 64)
		if err1 != nil || err2 != nil || math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 1) || math.IsInf(hi, -1) {
			return "", fmt.Errorf("range %q must be lo:hi with lo < inf and hi > -inf", part)
		}
		switch col := t.PredColumns[i]; {
		case math.IsInf(lo, -1) && math.IsInf(hi, 1):
		case math.IsInf(hi, 1):
			conds = append(conds, col+" >= "+num(lo))
		case math.IsInf(lo, -1):
			conds = append(conds, col+" <= "+num(hi))
		default:
			conds = append(conds, col+" BETWEEN "+num(lo)+" AND "+num(hi))
		}
	}
	stmt := fmt.Sprintf("SELECT %s(%s) FROM %s", agg, t.AggColumn, t.Name)
	if len(conds) > 0 {
		stmt += " WHERE " + strings.Join(conds, " AND ")
	}
	return stmt, nil
}

// groundTruth answers a scalar statement exactly by a full scan of the
// rows the table was built from.
func groundTruth(base *dataset.Dataset, sql string, ans *jsonout.Answer) (*jsonTruth, string) {
	if base == nil || ans == nil {
		return nil, "-exact needs a scalar answer over -in; a loaded table has only the synopsis"
	}
	plan, err := sqlfe.ParseAndCompile(sql, sqlfe.SchemaFromColNames(base.ColNames))
	if err != nil {
		return nil, err.Error()
	}
	truth, err := base.Exact(plan.Agg, plan.Rect)
	if err != nil {
		return nil, err.Error()
	}
	rel := 0.0
	if truth != 0 {
		rel = math.Abs(ans.Estimate-truth) / math.Abs(truth)
	}
	return &jsonTruth{Value: truth, RelativeErr: rel}, ""
}

// explainSQL rewrites a statement as EXPLAIN ANALYZE (idempotently —
// an existing prefix is stripped first, never doubled).
func explainSQL(sql string) string {
	stmt, _ := sqlfe.StripExplain(sql)
	return "EXPLAIN ANALYZE " + stmt
}

// report prints the result, as JSON or as text.
func report(out jsonOutput, asJSON bool) {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("table %q: %s, %d rows, %.1f KiB\n%s\n", out.Table, out.Engine, out.Rows, float64(out.MemoryBytes)/1024, out.SQL)
	switch a := out.Answer; {
	case out.NoMatch:
		fmt.Println("no tuples match the predicate")
	case out.Sketch != nil:
		fmt.Printf("%s ≈ %.6g (bound %.6g)\n", out.Sketch.Kind, out.Sketch.Value, out.Sketch.Bound)
	case out.Groups != nil:
		for _, g := range out.Groups {
			fmt.Printf("%-8g %-12s ", g.Group, g.Label)
			if g.NoMatch || g.Answer == nil {
				fmt.Println("(no matching tuples)")
				continue
			}
			fmt.Printf("%.6g ± %.6g\n", g.Answer.Estimate, g.Answer.CIHalf)
		}
	default:
		fmt.Printf("≈ %.6g ± %.6g\n", a.Estimate, a.CIHalf)
		if a.HardBounds {
			fmt.Printf("hard bounds: [%.6g, %.6g]\n", a.HardLo, a.HardHi)
		}
		if a.Exact {
			fmt.Println("answer is exact (predicate aligned with partitioning)")
		}
		fmt.Printf("tuples read: %d   skip rate: %.1f%%\n", a.TuplesRead, a.SkipRate*100)
	}
	if out.Exact != nil {
		fmt.Printf("exact: %.6g   relative error: %.4f%%\n", out.Exact.Value, out.Exact.RelativeErr*100)
	} else if out.ExactError != "" {
		fmt.Printf("exact: undefined (%s)\n", out.ExactError)
	}
	printTrace(out.Trace)
}

// printTrace renders the EXPLAIN ANALYZE span tree as an indented text
// tree — one line per span, duration right-aligned, attributes inline in
// key order. No-op on a nil trace.
func printTrace(root *obs.SpanJSON) {
	if root == nil {
		return
	}
	fmt.Println("trace:")
	printSpan(root, 1)
}

func printSpan(sp *obs.SpanJSON, depth int) {
	fmt.Printf("%-36s %8dµs", strings.Repeat("  ", depth)+sp.Name, sp.DurationUS)
	keys := make([]string, 0, len(sp.Attrs))
	for k := range sp.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %s=%v", k, sp.Attrs[k])
	}
	fmt.Println()
	for _, c := range sp.Children {
		printSpan(c, depth+1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "passquery: %v\n", err)
	os.Exit(1)
}
