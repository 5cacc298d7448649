package pass

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// adaptiveTestTable builds a deterministic 1D table with enough value
// variance that partial-leaf queries come back inexact.
func adaptiveTestTable(n int) *Table {
	tbl := NewTable([]string{"x"}, "v")
	for i := 0; i < n; i++ {
		v := float64(i%97) + 50*float64(i%13)
		tbl.Append([]float64{float64(i)}, v)
	}
	return tbl
}

var hotRanges = [][2]float64{{123, 777}, {1500, 2600}, {3333, 4444}}

func hotSQL(i int) string {
	r := hotRanges[i%len(hotRanges)]
	return fmt.Sprintf("SELECT SUM(v) FROM t WHERE x BETWEEN %g AND %g", r[0], r[1])
}

func newAdaptiveSession(t *testing.T) (*Session, *Table) {
	t.Helper()
	sess := NewSession()
	if err := sess.EnableAdaptive(AdaptiveConfig{}); err != nil {
		t.Fatal(err)
	}
	tbl := adaptiveTestTable(6000)
	if err := sess.CreateTable("t", tbl, Options{Partitions: 32, SampleRate: 0.02, Seed: 7}, 1); err != nil {
		t.Fatal(err)
	}
	return sess, tbl
}

// TestAdaptiveTwinCachedVsUncached is the session-level twin: an adaptive
// session must answer every statement bit-for-bit like a plain one over
// the same build, before and after writes — the collector observes
// answers and must never perturb them.
func TestAdaptiveTwinCachedVsUncached(t *testing.T) {
	adaptive, _ := newAdaptiveSession(t)
	plain := NewSession()
	syn, err := Build(adaptiveTestTable(6000), Options{Partitions: 32, SampleRate: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Register("t", syn); err != nil {
		t.Fatal(err)
	}

	stmts := []string{
		hotSQL(0), hotSQL(1), hotSQL(2),
		"SELECT COUNT(*) FROM t WHERE x >= 1000",
		"SELECT AVG(v) FROM t WHERE x BETWEEN 100 AND 4000",
		"SELECT MIN(v) FROM t WHERE x <= 2500",
		"SELECT MAX(v) FROM t WHERE x BETWEEN 9 AND 5990",
		"SELECT AVG(v) FROM t WHERE x BETWEEN 100000 AND 200000", // no match
		hotSQL(0), hotSQL(1), // repeats
	}
	compare := func(round string) {
		t.Helper()
		got := adaptive.ExecBatch(stmts)
		want := plain.ExecBatch(stmts)
		for i, st := range stmts {
			single, err := adaptive.Exec(st)
			if (err == nil) != (got[i].Err == nil) || (err == nil && single.Scalar != got[i].Result.Scalar) {
				t.Fatalf("%s stmt %d: Exec %+v (%v) vs ExecBatch %+v (%v)", round, i, single.Scalar, err, got[i].Result.Scalar, got[i].Err)
			}
		}
		for i := range stmts {
			if (got[i].Err == nil) != (want[i].Err == nil) {
				t.Fatalf("%s stmt %d: err %v vs %v", round, i, got[i].Err, want[i].Err)
			}
			if got[i].Err != nil {
				if got[i].Err.Error() != want[i].Err.Error() {
					t.Fatalf("%s stmt %d: err %v vs %v", round, i, got[i].Err, want[i].Err)
				}
				continue
			}
			if g, w := got[i].Result.Scalar, want[i].Result.Scalar; g != w {
				t.Fatalf("%s stmt %d (%s): adaptive %+v vs plain %+v", round, i, stmts[i], g, w)
			}
		}
	}
	compare("cold")
	compare("warm")
	if st := adaptive.Tables()[0].Adaptive; st == nil || st.WindowQueries == 0 {
		t.Fatalf("the collector observed nothing: %+v", st)
	}

	// insert the same rows into both sessions: the twins must still agree
	for i := 0; i < 50; i++ {
		p, v := []float64{float64(400 + i)}, float64(1000+i)
		if err := adaptive.Insert("t", p, v); err != nil {
			t.Fatal(err)
		}
		if err := plain.Insert("t", p, v); err != nil {
			t.Fatal(err)
		}
	}
	compare("post-insert")
}

// TestAdaptiveReoptimizeImproves drives a skewed repeated-range workload
// that the ADP partitioning does not answer exactly, re-optimizes, and
// asserts the rebuilt synopsis answers the same workload exactly —
// tighter intervals, higher exact fraction.
func TestAdaptiveReoptimizeImproves(t *testing.T) {
	sess, _ := newAdaptiveSession(t)
	run := func() (exact int, meanCI float64) {
		var stmts []string
		for i := 0; i < 30; i++ {
			stmts = append(stmts, hotSQL(i))
		}
		for _, sr := range sess.ExecBatch(stmts) {
			if sr.Err != nil {
				t.Fatal(sr.Err)
			}
			if sr.Result.Scalar.Exact {
				exact++
			}
			meanCI += sr.Result.Scalar.CIHalf
		}
		return exact, meanCI / 30
	}

	exactBefore, ciBefore := run()
	if exactBefore == 30 {
		t.Fatal("test premise broken: hot ranges already exact before re-optimization")
	}
	out, err := sess.Reoptimize("t")
	if err != nil {
		t.Fatal(err)
	}
	if !out.Rebuilt || out.Boundaries != 2*len(hotRanges) {
		t.Fatalf("outcome = %+v, want rebuild with %d boundaries", out, 2*len(hotRanges))
	}
	exactAfter, ciAfter := run()
	if exactAfter != 30 {
		t.Fatalf("exact after re-optimization = %d/30, want all (before: %d)", exactAfter, exactBefore)
	}
	if ciAfter >= ciBefore {
		t.Fatalf("mean CI half-width %v did not improve on %v", ciAfter, ciBefore)
	}
	info := sess.Tables()[0].Adaptive
	if info == nil || info.Rebuilds != 1 || !info.Rebuildable {
		t.Fatalf("adaptive info = %+v", info)
	}
}

// TestAdaptiveSessionInvalidationRace is the session-level twin of the
// catalog race test: concurrent inserts and repeated queries on an
// adaptive session, where any reader observing a count decrease proves a
// stale answer.
func TestAdaptiveSessionInvalidationRace(t *testing.T) {
	sess, _ := newAdaptiveSession(t)
	const sql = "SELECT COUNT(*) FROM t WHERE x >= 0"
	const inserts = 150

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := -1.0
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := sess.Exec(sql)
				if err != nil {
					t.Errorf("exec: %v", err)
					return
				}
				if res.Scalar.Estimate < last {
					t.Errorf("count went back: %v after having seen %v", res.Scalar.Estimate, last)
					return
				}
				last = res.Scalar.Estimate
			}
		}()
	}
	for i := 0; i < inserts; i++ {
		if err := sess.Insert("t", []float64{float64(i)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	res, err := sess.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar.Estimate != 6000+inserts {
		t.Fatalf("final count = %v, want %d", res.Scalar.Estimate, 6000+inserts)
	}
}

// TestAdaptiveRebuildDuringInserts exercises the delta-capture path: a
// re-optimization racing a stream of inserts must lose none of them.
func TestAdaptiveRebuildDuringInserts(t *testing.T) {
	sess, _ := newAdaptiveSession(t)
	for i := 0; i < 40; i++ {
		if _, err := sess.Exec(hotSQL(i)); err != nil {
			t.Fatal(err)
		}
	}
	const inserts = 300
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < inserts; i++ {
			if err := sess.Insert("t", []float64{float64(i % 6000)}, 1); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	if _, err := sess.Reoptimize("t"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	res, err := sess.Exec("SELECT COUNT(*) FROM t WHERE x >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar.Estimate != 6000+inserts {
		t.Fatalf("count after rebuild-under-inserts = %v, want %d (updates lost in the swap?)",
			res.Scalar.Estimate, 6000+inserts)
	}
}

// TestAdaptiveShardedReoptimizePersists covers the sharded rebuild path
// end to end: build sharded + persisted, re-optimize, verify improvement
// survives hot-swap, then warm-start a fresh session from the store and
// confirm the rebuilt synopsis (and its alignment) was persisted via the
// manifest.
func TestAdaptiveShardedReoptimizePersists(t *testing.T) {
	dir, err := os.MkdirTemp("", "adaptive-sharded")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)

	st, err := store.Open(dir, store.Options{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession()
	if err := sess.EnableAdaptive(AdaptiveConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	if err := sess.CreateTable("t", adaptiveTestTable(6000),
		Options{Partitions: 32, SampleRate: 0.02, Seed: 7}, 3); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 40; i++ {
		if _, err := sess.Exec(hotSQL(i)); err != nil {
			t.Fatal(err)
		}
	}
	out, err := sess.Reoptimize("t")
	if err != nil {
		t.Fatal(err)
	}
	if !out.Rebuilt {
		t.Fatalf("outcome = %+v", out)
	}
	// post-rebuild, hot ranges are exact even across shard merges
	for i := 0; i < len(hotRanges); i++ {
		res, err := sess.Exec(hotSQL(i))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Scalar.Exact {
			t.Fatalf("hot range %d inexact after sharded re-optimization: %+v", i, res.Scalar)
		}
	}
	// inserts after the rebuild journal through the refreshed router
	if err := sess.Insert("t", []float64{123.5}, 42); err != nil {
		t.Fatal(err)
	}
	want, err := sess.Exec("SELECT COUNT(*) FROM t WHERE x >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	// warm start: the rebuilt sharded synopsis must come back
	st2, err := store.Open(dir, store.Options{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	sess2 := NewSession()
	n, err := sess2.AttachStore(st2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored %d tables, want 1", n)
	}
	defer sess2.Close()
	info := sess2.Tables()[0]
	if info.Shards != 3 {
		t.Fatalf("restored shards = %d, want 3", info.Shards)
	}
	got, err := sess2.Exec("SELECT COUNT(*) FROM t WHERE x >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if got.Scalar.Estimate != want.Scalar.Estimate {
		t.Fatalf("count after warm start = %v, want %v", got.Scalar.Estimate, want.Scalar.Estimate)
	}
	for i := 0; i < len(hotRanges); i++ {
		res, err := sess2.Exec(hotSQL(i))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Scalar.Exact {
			t.Fatalf("hot range %d lost its alignment across warm start", i)
		}
	}
}

// TestCreateTableAdaptiveMultiDim: multi-dimensional tables join
// statistics but are not rebuildable.
func TestCreateTableAdaptiveMultiDim(t *testing.T) {
	sess := NewSession()
	if err := sess.EnableAdaptive(AdaptiveConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := sess.CreateTable("taxi", DemoTaxi(3000, 2, 1),
		Options{Partitions: 32, SampleRate: 0.05, Seed: 1}, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := sess.Exec("SELECT SUM(trip_distance) FROM taxi WHERE pickup_time BETWEEN 5 AND 10"); err != nil {
			t.Fatal(err)
		}
	}
	out, err := sess.Reoptimize("taxi")
	if err != nil {
		t.Fatal(err)
	}
	if out.Rebuilt {
		t.Fatalf("multi-dimensional table must not rebuild: %+v", out)
	}
	info := sess.Tables()[0].Adaptive
	if info == nil || info.Rebuildable || info.WindowQueries == 0 {
		t.Fatalf("adaptive info = %+v", info)
	}
}

// TestEnableAdaptiveGuards covers double-enable, Reoptimize of an unknown
// table, and dropping an adaptive table.
func TestEnableAdaptiveGuards(t *testing.T) {
	sess := NewSession()
	if err := sess.EnableAdaptive(AdaptiveConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := sess.EnableAdaptive(AdaptiveConfig{}); err == nil {
		t.Fatal("double EnableAdaptive must fail")
	}
	if _, err := sess.Reoptimize("missing"); err == nil {
		t.Fatal("Reoptimize of an unknown table must fail")
	}
	// dropping clears adaptive state without error
	if err := sess.CreateTable("t", adaptiveTestTable(100), Options{Partitions: 4, SampleRate: 0.1, Seed: 1}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("SELECT COUNT(*) FROM t WHERE x >= 0"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Drop("T"); err != nil { // case-insensitive
		t.Fatal(err)
	}
	if info := sess.Tables(); len(info) != 0 {
		t.Fatalf("tables after drop: %+v", info)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond) // Close stops the (idle) reoptimizer cleanly
}
