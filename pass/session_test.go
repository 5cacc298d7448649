package pass

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func sessionFixture(t *testing.T) (*Session, *Table) {
	t.Helper()
	tbl := NewTable([]string{"time"}, "light")
	for i := 0; i < 4000; i++ {
		tbl.Append([]float64{float64(i % 24)}, float64(i%100)/10)
	}
	syn, err := Build(tbl, Options{Partitions: 16, SampleRate: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession()
	if err := sess.Register("sensors", syn); err != nil {
		t.Fatal(err)
	}
	return sess, tbl
}

func TestSessionExec(t *testing.T) {
	sess, tbl := sessionFixture(t)
	res, err := sess.Exec("SELECT SUM(light) FROM sensors WHERE time BETWEEN 6 AND 18")
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	truth, err := tbl.Exact(Sum, Range{Lo: 6, Hi: 18})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.Scalar.Estimate-truth) / truth; rel > 0.05 {
		t.Errorf("estimate %v vs truth %v (rel %v)", res.Scalar.Estimate, truth, rel)
	}
	// case-insensitive FROM resolution
	if _, err := sess.Exec("SELECT COUNT(*) FROM SENSORS"); err != nil {
		t.Errorf("case-insensitive table: %v", err)
	}
}

// TestSessionUnknownTable is the regression test for the pre-catalog
// behavior: the SQL frontend used to parse the FROM table and silently
// discard it, so any table name was accepted. Through a Session, unknown
// names must fail with a diagnostic that lists the registered tables.
func TestSessionUnknownTable(t *testing.T) {
	sess, _ := sessionFixture(t)
	_, err := sess.Exec("SELECT SUM(light) FROM nonexistent WHERE time >= 6")
	if err == nil {
		t.Fatal("unknown FROM table must be an error, not silently accepted")
	}
	if !strings.Contains(err.Error(), "nonexistent") || !strings.Contains(err.Error(), "sensors") {
		t.Errorf("error should name the unknown and the known tables: %v", err)
	}
}

func TestSessionRegisterDropTables(t *testing.T) {
	sess, _ := sessionFixture(t)
	infos := sess.Tables()
	if len(infos) != 1 {
		t.Fatalf("Tables = %+v", infos)
	}
	ti := infos[0]
	if ti.Name != "sensors" || ti.Engine != "PASS" || ti.Rows != 4000 || ti.MemoryBytes <= 0 {
		t.Errorf("TableInfo = %+v", ti)
	}
	if len(ti.PredColumns) != 1 || ti.PredColumns[0] != "time" || ti.AggColumn != "light" {
		t.Errorf("schema in TableInfo = %+v", ti)
	}

	// duplicate names rejected; schema-less synopses rejected
	tbl2 := NewTable([]string{"x"}, "v")
	tbl2.Append([]float64{1}, 1)
	tbl2.Append([]float64{2}, 2)
	syn2, err := Build(tbl2, Options{Partitions: 1, SampleSize: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Register("SENSORS", syn2); err == nil {
		t.Error("duplicate Register should fail")
	}
	if err := sess.Register("other", &Synopsis{inner: syn2.inner}); err == nil {
		t.Error("schema-less Register should fail")
	}

	if err := sess.Drop("sensors"); err != nil {
		t.Fatal(err)
	}
	if len(sess.Tables()) != 0 {
		t.Error("Tables after Drop should be empty")
	}
}

// kdShardedSession serves a 4-shard 3-D table "trips" (hour, day, zone →
// dist).
func kdShardedSession(t *testing.T) *Session {
	t.Helper()
	tbl := NewTable([]string{"hour", "day", "zone"}, "dist")
	for i := 0; i < 6000; i++ {
		tbl.Append([]float64{float64(i % 24), float64(i % 7), float64(i % 31)}, float64(i%113)/8)
	}
	eng, schema, err := BuildShardedEngine(tbl, Options{Partitions: 32, SampleRate: 0.05, Seed: 9}, 4)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession()
	if err := sess.RegisterEngine("trips", eng, schema); err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestSessionExecBatchMatchesExec runs one statement through every
// session entry point — Exec, ExecCtx under a far deadline, EXPLAIN
// ANALYZE, PreparedStmt.Exec, and ExecBatch both alone and mixed with
// other statements — for all five aggregates and one fully pruned
// predicate, on an unsharded 1-D table, a 4-shard 1-D table and a 4-shard
// 3-D table. A single statement is a batch of one at every layer below
// the session, so every answer must be bitwise equal to Exec's; the
// statements mixed in fail alone.
func TestSessionExecBatchMatchesExec(t *testing.T) {
	oneD := func(col string) []string {
		return []string{
			"SELECT SUM(light) FROM sensors WHERE " + col + " BETWEEN 6 AND 18",
			"SELECT COUNT(*) FROM sensors WHERE " + col + " <= 12",
			"SELECT AVG(light) FROM sensors WHERE " + col + " >= 20",
			"SELECT MIN(light) FROM sensors WHERE " + col + " BETWEEN 3 AND 9",
			"SELECT MAX(light) FROM sensors WHERE " + col + " < 7",
			"SELECT COUNT(*) FROM sensors WHERE " + col + " > 100", // fully pruned
		}
	}
	cases := []struct {
		name  string
		sess  func(t *testing.T) *Session
		stmts []string
	}{
		{"unsharded 1-D", func(t *testing.T) *Session { sess, _ := sessionFixture(t); return sess }, oneD("time")},
		{"4-shard 1-D", func(t *testing.T) *Session {
			_, eng := shardedFixture(t, 4)
			sess := NewSession()
			if err := sess.RegisterEngine("sensors", eng, stubSchemaNamed("sensors", "hour", "light")); err != nil {
				t.Fatal(err)
			}
			return sess
		}, oneD("hour")},
		{"4-shard 3-D", kdShardedSession, []string{
			"SELECT SUM(dist) FROM trips WHERE hour BETWEEN 6 AND 18 AND day <= 4",
			"SELECT COUNT(*) FROM trips WHERE hour >= 3 AND zone BETWEEN 5 AND 20",
			"SELECT AVG(dist) FROM trips WHERE day BETWEEN 1 AND 5 AND zone < 17",
			"SELECT MIN(dist) FROM trips WHERE hour <= 10 AND day >= 2 AND zone >= 4",
			"SELECT MAX(dist) FROM trips WHERE hour BETWEEN 12 AND 23 AND zone <= 9",
			"SELECT COUNT(*) FROM trips WHERE hour > 100 AND day <= 3", // fully pruned
		}},
	}
	noise := []string{
		"SELECT SUM(light) FROM missing",               // unknown table: per-statement error
		"SELECT SUM(light) FROM sensors GROUP BY time", // numeric GROUP BY, unknown column or table: error
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sess := tc.sess(t)
			var mixed []string
			for i, sql := range tc.stmts {
				mixed = append(mixed, noise[i%len(noise)], sql)
			}
			batch := sess.ExecBatch(mixed)
			for i, sql := range tc.stmts {
				want, err := sess.Exec(sql)
				if err != nil {
					t.Fatalf("Exec %q: %v", sql, err)
				}
				ps, err := sess.Prepare(sql)
				if err != nil {
					t.Fatalf("Prepare %q: %v", sql, err)
				}
				entry := map[string]func() (SQLResult, error){
					"ExecCtx(far deadline)": func() (SQLResult, error) {
						ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
						defer cancel()
						return sess.ExecCtx(ctx, sql)
					},
					"EXPLAIN ANALYZE":   func() (SQLResult, error) { return sess.Exec("EXPLAIN ANALYZE " + sql) },
					"PreparedStmt.Exec": func() (SQLResult, error) { return ps.Exec() },
					"ExecBatch(alone)": func() (SQLResult, error) {
						sr := sess.ExecBatch([]string{sql})[0]
						return sr.Result, sr.Err
					},
					"ExecBatch(mixed)": func() (SQLResult, error) { return batch[2*i+1].Result, batch[2*i+1].Err },
				}
				for name, run := range entry {
					got, err := run()
					if err != nil {
						t.Fatalf("%s %q: %v", name, sql, err)
					}
					if got.Scalar != want.Scalar {
						t.Errorf("%s %q:\n got %+v\nwant %+v", name, sql, got.Scalar, want.Scalar)
					}
				}
			}
			for i := 0; i < len(mixed); i += 2 {
				if batch[i].Err == nil {
					t.Errorf("mixed-in statement %q must fail", mixed[i])
				}
			}
			if err := batch[0].Err; err == nil || !strings.Contains(err.Error(), "missing") {
				t.Errorf("unknown table in batch: %v", err)
			}
		})
	}
}

func TestSessionExecScript(t *testing.T) {
	sess, _ := sessionFixture(t)
	res := sess.ExecScript(`
		SELECT SUM(light) FROM sensors WHERE time BETWEEN 6 AND 18;
		SELECT COUNT(*) FROM sensors;
	`)
	if len(res) != 2 {
		t.Fatalf("script split into %d statements", len(res))
	}
	for i, sr := range res {
		if sr.Err != nil {
			t.Errorf("stmt %d (%q): %v", i, sr.SQL, sr.Err)
		}
	}
	if res[1].Result.Scalar.Estimate != 4000 {
		t.Errorf("COUNT(*) = %v, want 4000 (exact)", res[1].Result.Scalar.Estimate)
	}
}

func TestSessionInsertDelete(t *testing.T) {
	sess, _ := sessionFixture(t)
	if err := sess.Insert("sensors", []float64{5}, 2.5); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if got := sess.Tables()[0].Rows; got != 4001 {
		t.Errorf("Rows after insert = %d", got)
	}
	if err := sess.Delete("sensors", []float64{5}, 2.5); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := sess.Insert("nope", []float64{1}, 1); err == nil {
		t.Error("Insert into unknown table should fail")
	}
}

// TestSessionConcurrent drives batched queries and updates from many
// goroutines; the per-table RWMutex must keep them race-free (verified
// under -race in CI).
func TestSessionConcurrent(t *testing.T) {
	sess, _ := sessionFixture(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				for _, sr := range sess.ExecBatch([]string{
					"SELECT SUM(light) FROM sensors WHERE time BETWEEN 6 AND 18",
					"SELECT COUNT(*) FROM sensors",
				}) {
					if sr.Err != nil {
						t.Errorf("query: %v", sr.Err)
						return
					}
				}
			}
		}()
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := sess.Insert("sensors", []float64{float64(i % 24)}, 1.0); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
