package pass

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sqlfe"
)

// collectSpans flattens a span tree into name → node for assertions.
func collectSpans(root *obs.SpanJSON) map[string][]*obs.SpanJSON {
	out := make(map[string][]*obs.SpanJSON)
	var walk func(n *obs.SpanJSON)
	walk = func(n *obs.SpanJSON) {
		if n == nil {
			return
		}
		out[n.Name] = append(out[n.Name], n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	return out
}

// TestExplainAnalyzeTwin is the acceptance scenario: EXPLAIN ANALYZE on a
// sharded, plan-cached query returns a span tree whose counters match the
// engine's own stats, and the traced answer is bitwise identical to the
// untraced twin.
func TestExplainAnalyzeTwin(t *testing.T) {
	tbl, eng := shardedFixture(t, 4)
	_ = tbl
	sess := NewSession()
	if err := sess.RegisterEngine("sensors", eng, stubSchemaNamed("sensors", "hour", "light")); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT SUM(light) FROM sensors WHERE hour BETWEEN 6 AND 18"

	// warm the plan cache and take the untraced answer
	plain, err := sess.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	prunedBefore := sess.Tables()[0].ShardPruned

	traced, err := sess.Exec("EXPLAIN ANALYZE " + q)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Trace == nil {
		t.Fatal("EXPLAIN ANALYZE returned no trace")
	}

	// bitwise-identical answer (the reorder buffer folds shard partials in
	// relevant-shard order on both paths)
	if traced.Scalar != plain.Scalar {
		t.Errorf("traced answer differs from untraced:\n traced: %+v\n plain:  %+v", traced.Scalar, plain.Scalar)
	}

	spans := collectSpans(traced.Trace)
	if len(spans["query"]) != 1 || len(spans["compile"]) != 1 || len(spans["execute"]) != 1 {
		t.Fatalf("span tree missing query/compile/execute: %v", keys(spans))
	}

	// compile span: the statement shape was cached by the warm-up run
	compile := spans["compile"][0]
	if got := compile.Attrs["plan_cache"]; got != "hit" {
		t.Errorf("plan_cache = %v, want hit (warmed)", got)
	}
	if tmpl, _ := compile.Attrs["template"].(string); !strings.Contains(tmpl, "?") {
		t.Errorf("template %q should carry placeholders, not literals", tmpl)
	}

	// scatter span counters must match the engine's own stats
	if len(spans["scatter"]) != 1 {
		t.Fatalf("want one scatter span, got %d", len(spans["scatter"]))
	}
	scatter := spans["scatter"][0]
	ti := sess.Tables()[0]
	if got := jsonInt(t, scatter.Attrs["shards_total"]); got != int64(ti.Shards) {
		t.Errorf("scatter shards_total = %d, want %d", got, ti.Shards)
	}
	prunedDelta := ti.ShardPruned - prunedBefore
	if got := jsonInt(t, scatter.Attrs["shards_pruned"]); got != prunedDelta {
		t.Errorf("scatter shards_pruned = %d, want engine delta %d", got, prunedDelta)
	}
	relevant := jsonInt(t, scatter.Attrs["shards_relevant"])
	if got := jsonInt(t, scatter.Attrs["shards_answered"]); got != relevant {
		t.Errorf("shards_answered = %d, want %d (nothing dropped)", got, relevant)
	}
	if got := int64(len(spans["shard[0]"]) + len(spans["shard[1]"]) + len(spans["shard[2]"]) + len(spans["shard[3]"])); got != relevant {
		t.Errorf("%d per-shard spans, want %d", got, relevant)
	}

	// span durations sum sanely: children never exceed their parent by
	// more than scheduling noise, and the root covers the execute span
	root := spans["query"][0]
	execute := spans["execute"][0]
	if execute.DurationUS > root.DurationUS {
		t.Errorf("execute (%dus) exceeds root (%dus)", execute.DurationUS, root.DurationUS)
	}
	if scatter.DurationUS > execute.DurationUS {
		t.Errorf("scatter (%dus) exceeds execute (%dus)", scatter.DurationUS, execute.DurationUS)
	}
	if root.DurationUS <= 0 {
		t.Errorf("root duration %dus, want > 0", root.DurationUS)
	}

	// the whole tree must survive a JSON round trip (the passd wire path)
	if _, err := json.Marshal(traced.Trace); err != nil {
		t.Fatal(err)
	}
}

// TestExplainAnalyzeInBatch routes explain statements through the
// individual traced path inside a batch.
func TestExplainAnalyzeInBatch(t *testing.T) {
	tbl, eng := shardedFixture(t, 2)
	_ = tbl
	sess := NewSession()
	if err := sess.RegisterEngine("sensors", eng, stubSchemaNamed("sensors", "hour", "light")); err != nil {
		t.Fatal(err)
	}
	out := sess.ExecBatch([]string{
		"SELECT SUM(light) FROM sensors WHERE hour BETWEEN 1 AND 5",
		"EXPLAIN ANALYZE SELECT SUM(light) FROM sensors WHERE hour BETWEEN 1 AND 5",
	})
	if out[0].Err != nil || out[1].Err != nil {
		t.Fatalf("errs: %v, %v", out[0].Err, out[1].Err)
	}
	if out[0].Result.Trace != nil {
		t.Error("plain statement must carry no trace")
	}
	if out[1].Result.Trace == nil {
		t.Fatal("explain statement in batch carries no trace")
	}
	if out[0].Result.Scalar != out[1].Result.Scalar {
		t.Errorf("batch twin mismatch: %+v vs %+v", out[0].Result.Scalar, out[1].Result.Scalar)
	}
}

// TestSlowQueryLog checks threshold filtering and that literals are
// elided from the logged statement.
func TestSlowQueryLog(t *testing.T) {
	tbl, eng := shardedFixture(t, 2)
	_ = tbl
	sess := NewSession()
	if err := sess.RegisterEngine("sensors", eng, stubSchemaNamed("sensors", "hour", "light")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sess.SetSlowQueryLog(&buf, 0) // log everything
	if _, err := sess.Exec("SELECT SUM(light) FROM sensors WHERE hour BETWEEN 7 AND 11"); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	if line == "" {
		t.Fatal("threshold 0 should log every statement")
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v\n%s", err, line)
	}
	if rec["event"] != "slow_query" || rec["table"] != "sensors" {
		t.Errorf("record: %+v", rec)
	}
	sql, _ := rec["sql"].(string)
	if strings.Contains(sql, "7") || strings.Contains(sql, "11") {
		t.Errorf("literals leaked into the slow-query log: %q", sql)
	}
	if !strings.Contains(sql, "?") {
		t.Errorf("logged statement should be the template: %q", sql)
	}
	if _, ok := rec["duration_ms"]; !ok {
		t.Error("missing duration_ms")
	}

	// a high threshold suppresses fast statements
	buf.Reset()
	sess.SetSlowQueryLog(&buf, time.Hour)
	if _, err := sess.Exec("SELECT SUM(light) FROM sensors WHERE hour BETWEEN 7 AND 11"); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("fast statement logged despite threshold: %s", buf.String())
	}
}

// jsonInt reads an attribute that may be int64 (in-process) or float64
// (after a JSON round trip).
func jsonInt(t *testing.T, v any) int64 {
	t.Helper()
	switch n := v.(type) {
	case int64:
		return n
	case float64:
		return int64(n)
	default:
		t.Fatalf("attribute %v (%T) is not numeric", v, v)
		return 0
	}
}

func keys(m map[string][]*obs.SpanJSON) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// stubSchemaNamed builds a schema with the given predicate and aggregate
// column names.
func stubSchemaNamed(table, pred, agg string) sqlfe.Schema {
	s := sqlfe.SchemaFromColNames([]string{pred, agg})
	s.Table = table
	return s
}
