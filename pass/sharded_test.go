package pass

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sqlfe"
)

// stubSchema builds a one-predicate-column schema for a stub table.
func stubSchema(table string) sqlfe.Schema {
	s := sqlfe.SchemaFromColNames([]string{"x", "v"})
	s.Table = table
	return s
}

// shardedFixture builds a deterministic table and its sharded engine.
func shardedFixture(t *testing.T, shards int) (*Table, engine.Engine) {
	t.Helper()
	tbl := NewTable([]string{"hour"}, "light")
	for i := 0; i < 4000; i++ {
		tbl.Append([]float64{float64(i % 24)}, float64(i%100)/10)
	}
	eng, _, err := BuildShardedEngine(tbl, Options{Partitions: 16, SampleRate: 0.05, Seed: 42}, shards)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, eng
}

func TestSessionServesShardedTable(t *testing.T) {
	tbl, eng := shardedFixture(t, 3)
	sess := NewSession()
	if err := sess.RegisterEngine("sensors", eng, tbl.schema()); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Exec("SELECT SUM(light) FROM sensors WHERE hour BETWEEN 6 AND 18")
	if err != nil {
		t.Fatal(err)
	}
	truth, err := tbl.Exact(Sum, Range{Lo: 6, Hi: 18})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar.HardBounds && (truth < res.Scalar.HardLo-1e-9 || truth > res.Scalar.HardHi+1e-9) {
		t.Errorf("hard bounds [%v, %v] exclude truth %v", res.Scalar.HardLo, res.Scalar.HardHi, truth)
	}
	// shard stats surface through Tables
	infos := sess.Tables()
	if len(infos) != 1 {
		t.Fatalf("%d tables", len(infos))
	}
	ti := infos[0]
	if ti.Shards != 3 || ti.ShardPolicy != "range" || len(ti.ShardRows) != 3 {
		t.Errorf("shard stats = shards:%d policy:%q rows:%v", ti.Shards, ti.ShardPolicy, ti.ShardRows)
	}
	rows := 0
	for _, r := range ti.ShardRows {
		rows += r
	}
	if rows != tbl.Len() {
		t.Errorf("shard rows sum to %d, want %d", rows, tbl.Len())
	}
	// inserts route through the catalog into the sharded engine
	if err := sess.Insert("sensors", []float64{6}, 1.5); err != nil {
		t.Fatal(err)
	}
	if got := sess.Tables()[0].Rows; got != tbl.Len()+1 {
		t.Errorf("rows after insert = %d, want %d", got, tbl.Len()+1)
	}
}

// TestSessionShardedCrashRecoveryTwin is the acceptance scenario for
// per-shard persistence: a durable session serves a sharded table,
// updates reach only the per-shard WALs, the process crashes without a
// checkpoint, and the warm-started session must answer exactly what an
// in-memory twin with the same history answers.
func TestSessionShardedCrashRecoveryTwin(t *testing.T) {
	dir := t.TempDir()
	tbl, eng := shardedFixture(t, 3)
	_, twinEng := shardedFixture(t, 3) // deterministic build: identical state

	sess := NewSession()
	st := testStore(t, dir)
	if _, err := sess.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	if err := sess.RegisterEngine("sensors", eng, tbl.schema()); err != nil {
		t.Fatal(err)
	}
	twin := NewSession()
	if err := twin.RegisterEngine("sensors", twinEng, tbl.schema()); err != nil {
		t.Fatal(err)
	}

	// updates across several shards, journaled but never checkpointed
	points := [][]float64{{0}, {7}, {13}, {23}, {7}}
	values := []float64{1, 2, 3, 4, 5}
	if _, err := sess.InsertMany("sensors", points, values); err != nil {
		t.Fatal(err)
	}
	if _, err := twin.InsertMany("sensors", points, values); err != nil {
		t.Fatal(err)
	}
	if err := sess.Delete("sensors", []float64{7}, 2); err != nil {
		t.Fatal(err)
	}
	if err := twin.Delete("sensors", []float64{7}, 2); err != nil {
		t.Fatal(err)
	}

	// crash: the store closes its WALs, no checkpoint runs
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	revived := NewSession()
	st2 := testStore(t, dir)
	n, err := revived.AttachStore(st2)
	if err != nil {
		t.Fatal(err)
	}
	defer revived.Close()
	if n != 1 {
		t.Fatalf("warm start restored %d tables, want 1", n)
	}
	ti := revived.Tables()[0]
	if ti.Shards != 3 {
		t.Fatalf("restored table has %d shards, want 3 (engine %s)", ti.Shards, ti.Engine)
	}
	for _, sql := range recoveryQueries {
		want, werr := twin.Exec(sql)
		got, gerr := revived.Exec(sql)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: twin err %v vs revived err %v", sql, werr, gerr)
		}
		if werr != nil {
			continue
		}
		if g, w := fmt.Sprintf("%+v", got.Scalar), fmt.Sprintf("%+v", want.Scalar); g != w {
			t.Errorf("%s: revived %s vs twin %s", sql, g, w)
		}
	}
	// and the revived table keeps accepting routed updates durably
	if err := revived.Insert("sensors", []float64{11}, 9.5); err != nil {
		t.Fatal(err)
	}
}

// countingEngine is a stub engine that records how its batches arrive —
// the instrumentation behind the ExecBatch grouping test.
type countingEngine struct {
	name    string
	batches [][]core.BatchQuery
}

func (c *countingEngine) Name() string     { return c.name }
func (c *countingEngine) MemoryBytes() int { return 1 }
func (c *countingEngine) Query(kind dataset.AggKind, q dataset.Rect) (core.Result, error) {
	return core.Result{Estimate: 1, HardValid: true}, nil
}
func (c *countingEngine) QueryBatch(qs []core.BatchQuery) []core.BatchResult {
	c.batches = append(c.batches, qs)
	out := make([]core.BatchResult, len(qs))
	for i := range out {
		out[i].Result = core.Result{Estimate: 1, HardValid: true}
		out[i].Elapsed = time.Nanosecond
	}
	return out
}

// TestExecBatchGroupsPerTableAcrossInterleaving: a script that alternates
// tables statement by statement must still dispatch exactly one
// engine-level batch per table — per-table batched execution, not a fall
// back to singles at every table switch — and in deterministic
// first-appearance order.
func TestExecBatchGroupsPerTableAcrossInterleaving(t *testing.T) {
	sess := NewSession()
	a := &countingEngine{name: "stub-a"}
	b := &countingEngine{name: "stub-b"}
	if err := sess.RegisterEngine("alpha", a, stubSchema("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := sess.RegisterEngine("beta", b, stubSchema("beta")); err != nil {
		t.Fatal(err)
	}
	stmts := []string{
		"SELECT SUM(v) FROM alpha WHERE x >= 1",
		"SELECT SUM(v) FROM beta WHERE x >= 2",
		"SELECT COUNT(*) FROM alpha WHERE x >= 3",
		"SELECT COUNT(*) FROM beta WHERE x >= 4",
		"SELECT AVG(v) FROM alpha WHERE x >= 5",
	}
	out := sess.ExecBatch(stmts)
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("statement %d: %v", i, r.Err)
		}
	}
	if len(a.batches) != 1 || len(a.batches[0]) != 3 {
		t.Errorf("alpha got %d batches (sizes %v), want one batch of 3", len(a.batches), batchSizes(a.batches))
	}
	if len(b.batches) != 1 || len(b.batches[0]) != 2 {
		t.Errorf("beta got %d batches (sizes %v), want one batch of 2", len(b.batches), batchSizes(b.batches))
	}
}

func batchSizes(batches [][]core.BatchQuery) []int {
	out := make([]int, len(batches))
	for i, b := range batches {
		out[i] = len(b)
	}
	return out
}

// TestTablesDeterministicOrder: listings sort case-insensitively, so the
// order is stable no matter the registration order or name casing.
func TestTablesDeterministicOrder(t *testing.T) {
	sess := NewSession()
	for _, name := range []string{"Zulu", "alpha", "Mike", "bravo"} {
		e := &countingEngine{name: "stub"}
		if err := sess.RegisterEngine(name, e, stubSchema(name)); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]string, 0, 4)
	for _, ti := range sess.Tables() {
		got = append(got, ti.Name)
	}
	want := []string{"alpha", "bravo", "Mike", "Zulu"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tables order = %v, want %v (case-insensitive sort)", got, want)
		}
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return strings.ToLower(got[i]) < strings.ToLower(got[j]) }) {
		t.Errorf("Tables not sorted case-insensitively: %v", got)
	}
}
