package pass

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// sketchFixtureTable has a discrete aggregate column (100 distinct
// values, 30 rows each) so every sketch aggregate has a meaningful
// exact twin.
func sketchFixtureTable() *Table {
	tbl := NewTable([]string{"hour"}, "light")
	for i := 0; i < 3000; i++ {
		tbl.Append([]float64{float64(i % 24)}, float64(i%100)/10)
	}
	return tbl
}

var sketchSQL = []string{
	"SELECT QUANTILE(light, 0.5) FROM sensors",
	"SELECT COUNT(DISTINCT light) FROM sensors",
	"SELECT TOPK(light, 5) FROM sensors",
}

// TestSessionSketchSQL drives the sketch aggregates end to end through
// Session.Exec and ExecBatch: answers must agree between the two paths,
// carry the row count, and sit within their stated bounds against the
// exact twin (100 distinct values, 30 rows each, median 4.95-ish).
func TestSessionSketchSQL(t *testing.T) {
	sess := NewSession()
	syn, err := Build(sketchFixtureTable(), Options{Partitions: 16, SampleRate: 0.05, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Register("sensors", syn); err != nil {
		t.Fatal(err)
	}

	batch := sess.ExecBatch(sketchSQL)
	for i, q := range sketchSQL {
		single, err := sess.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if batch[i].Err != nil {
			t.Fatalf("%s (batch): %v", q, batch[i].Err)
		}
		if single.Sketch == nil || batch[i].Result.Sketch == nil {
			t.Fatalf("%s: sketch answer missing (single %v, batch %v)", q, single.Sketch, batch[i].Result.Sketch)
		}
		if !reflect.DeepEqual(single.Sketch, batch[i].Result.Sketch) {
			t.Errorf("%s: batch answer diverges from single execution: %+v vs %+v",
				q, batch[i].Result.Sketch, single.Sketch)
		}
		if single.Sketch.Rows != 3000 {
			t.Errorf("%s: Rows = %d, want 3000", q, single.Sketch.Rows)
		}
	}

	med, _ := sess.Exec(sketchSQL[0])
	// rank bound: the returned value's rank must be within Bound of 1500;
	// every value spans 30 ranks, so the answer is within Bound/30+1
	// value steps of the true median
	if math.Abs(med.Sketch.Value-4.9) > (med.Sketch.Bound/30+1)*0.1 {
		t.Errorf("QUANTILE(0.5) = %g (bound %g ranks), exact median 4.9", med.Sketch.Value, med.Sketch.Bound)
	}
	dist, _ := sess.Exec(sketchSQL[1])
	if math.Abs(dist.Sketch.Value-100) > (dist.Sketch.Hi-dist.Sketch.Lo)/2 {
		t.Errorf("COUNT(DISTINCT) = %g outside its interval [%g, %g], exact 100",
			dist.Sketch.Value, dist.Sketch.Lo, dist.Sketch.Hi)
	}
	topk, _ := sess.Exec(sketchSQL[2])
	if len(topk.Sketch.Entries) == 0 {
		t.Fatal("TOPK(5): no entries")
	}
	for _, e := range topk.Sketch.Entries {
		if math.Abs(e.Count-30) > e.ErrBound {
			t.Errorf("TOPK entry %g: count %g (exact 30) outside bound %g", e.Value, e.Count, e.ErrBound)
		}
	}

	// EXPLAIN ANALYZE: the traced statement answers bitwise like the
	// untraced one and carries a span tree
	traced, err := sess.Exec("EXPLAIN ANALYZE " + sketchSQL[1])
	if err != nil {
		t.Fatal(err)
	}
	if traced.Trace == nil {
		t.Fatal("EXPLAIN ANALYZE returned no trace")
	}
	if !reflect.DeepEqual(traced.Sketch, dist.Sketch) {
		t.Errorf("traced sketch answer diverges: %+v vs %+v", traced.Sketch, dist.Sketch)
	}
}

// TestSessionSketchShardedTwin answers the same sketch statements from
// a 1-shard and a 4-shard adaptive registration of the same rows. COUNT
// DISTINCT must agree exactly (HLL registers are multiset-determined);
// the others must both sit within their stated bounds.
func TestSessionSketchShardedTwin(t *testing.T) {
	answers := map[int]map[string]*SketchAnswer{}
	for _, shards := range []int{1, 4} {
		sess := NewSession()
		if err := sess.EnableAdaptive(AdaptiveConfig{}); err != nil {
			t.Fatal(err)
		}
		if err := sess.RegisterAdaptive("sensors", sketchFixtureTable(),
			Options{Partitions: 16, SampleRate: 0.05, Seed: 42}, shards); err != nil {
			t.Fatal(err)
		}
		answers[shards] = map[string]*SketchAnswer{}
		for _, q := range sketchSQL {
			res, err := sess.Exec(q)
			if err != nil {
				t.Fatalf("%d shards, %s: %v", shards, q, err)
			}
			if res.Sketch == nil || res.Sketch.Rows != 3000 {
				t.Fatalf("%d shards, %s: bad answer %+v", shards, q, res.Sketch)
			}
			answers[shards][q] = res.Sketch
		}
	}
	if !reflect.DeepEqual(answers[1][sketchSQL[1]], answers[4][sketchSQL[1]]) {
		t.Errorf("COUNT DISTINCT diverges between 1 and 4 shards: %+v vs %+v",
			answers[1][sketchSQL[1]], answers[4][sketchSQL[1]])
	}
	for _, shards := range []int{1, 4} {
		med := answers[shards][sketchSQL[0]]
		if math.Abs(med.Value-4.9) > (med.Bound/30+1)*0.1 {
			t.Errorf("%d shards: QUANTILE(0.5) = %g outside rank bound %g", shards, med.Value, med.Bound)
		}
		for _, e := range answers[shards][sketchSQL[2]].Entries {
			if math.Abs(e.Count-30) > e.ErrBound {
				t.Errorf("%d shards: TOPK entry %g count %g outside bound %g", shards, e.Value, e.Count, e.ErrBound)
			}
		}
	}
}

// TestSessionSketchCrashRecovery is the durability twin for sketches:
// journaled inserts reach only the WAL, the store crashes, and the
// reopened session must answer every sketch statement exactly like a
// twin that kept the whole history in memory — the sketch state rides
// in the snapshot and is replayed forward by the WAL.
func TestSessionSketchCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	syn, err := Build(sketchFixtureTable(), Options{Partitions: 16, SampleRate: 0.05, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}

	var payload bytes.Buffer
	if err := syn.Save(&payload); err != nil {
		t.Fatal(err)
	}
	twinSyn, err := LoadSynopsis(&payload)
	if err != nil {
		t.Fatal(err)
	}
	twinSyn.SetSchema([]string{"hour"}, "light", nil)
	twin := NewSession()
	if err := twin.Register("sensors", twinSyn); err != nil {
		t.Fatal(err)
	}

	st := testStore(t, dir)
	sess := NewSession()
	if _, err := sess.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	if err := sess.Register("sensors", syn); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		pt := []float64{float64(i % 24)}
		v := float64(i % 7)
		if err := sess.Insert("sensors", pt, v); err != nil {
			t.Fatal(err)
		}
		if err := twin.Insert("sensors", pt, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil { // crash: WAL intact, snapshot stale
		t.Fatal(err)
	}

	recovered := NewSession()
	st2 := testStore(t, dir)
	defer st2.Close()
	if n, err := recovered.AttachStore(st2); err != nil || n != 1 {
		t.Fatalf("AttachStore = %d, %v", n, err)
	}
	for _, q := range sketchSQL {
		want, err1 := twin.Exec(q)
		got, err2 := recovered.Exec(q)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: twin err %v, recovered err %v", q, err1, err2)
		}
		if !reflect.DeepEqual(want.Sketch, got.Sketch) {
			t.Errorf("%s: recovered %+v, twin %+v", q, got.Sketch, want.Sketch)
		}
	}
}
