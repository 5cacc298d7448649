// Black-box tests of sharded scatter-gather execution, built through the
// factory the way serving code builds it. The parity tests use a 100%
// sample rate, which makes every stratified estimate exact: sharded and
// unsharded twins must then agree to floating-point tolerance on the
// estimate AND the error bounds, for all five aggregates.
package shard_test

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/engine/factory"
	"repro/internal/shard"
)

const twinRows = 4000

func twinData(t testing.TB) *dataset.Dataset {
	t.Helper()
	return dataset.GenIntelWireless(twinRows, 13)
}

// buildTwins constructs an unsharded PASS engine and its sharded twin
// over the same data with the same (full) budget.
func buildTwins(t testing.TB, d *dataset.Dataset, spec string) (unsharded, sharded engine.Engine) {
	t.Helper()
	sp := factory.Spec{Partitions: 32, SampleSize: d.N(), Seed: 5}
	var err error
	unsharded, err = factory.Build("pass", d, sp)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err = factory.Build(spec, d, sp)
	if err != nil {
		t.Fatal(err)
	}
	return unsharded, sharded
}

func twinWorkload() []core.BatchQuery {
	kinds := []dataset.AggKind{dataset.Sum, dataset.Count, dataset.Avg, dataset.Min, dataset.Max}
	var qs []core.BatchQuery
	for _, k := range kinds {
		for i := 0; i < 12; i++ {
			lo := float64(i * 2)
			qs = append(qs, core.BatchQuery{Kind: k, Rect: dataset.Rect1(lo, lo+9)})
		}
	}
	return qs
}

func TestShardedAnswersMatchUnshardedTwin(t *testing.T) {
	for _, spec := range []string{"sharded:pass:4", "sharded:pass:4:hash"} {
		t.Run(spec, func(t *testing.T) {
			d := twinData(t)
			mono, shrd := buildTwins(t, d, spec)
			for _, q := range twinWorkload() {
				want, werr := mono.Query(q.Kind, q.Rect)
				got, gerr := shrd.Query(q.Kind, q.Rect)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("%v %v: err %v vs %v", q.Kind, q.Rect, gerr, werr)
				}
				if werr != nil {
					continue
				}
				if want.NoMatch != got.NoMatch {
					t.Fatalf("%v %v: NoMatch %v vs %v", q.Kind, q.Rect, got.NoMatch, want.NoMatch)
				}
				if want.NoMatch {
					continue
				}
				if !close9(got.Estimate, want.Estimate) {
					t.Errorf("%v %v: estimate %v vs %v", q.Kind, q.Rect, got.Estimate, want.Estimate)
				}
				// full sampling: both confidence intervals collapse to zero
				if got.CIHalf > 1e-9 || want.CIHalf > 1e-9 {
					t.Errorf("%v %v: CIHalf %v vs %v, want both ~0 at full sampling", q.Kind, q.Rect, got.CIHalf, want.CIHalf)
				}
				// hard bounds: both must contain the ground truth
				truth, terr := d.Exact(q.Kind, q.Rect)
				if terr != nil {
					continue
				}
				for name, r := range map[string]core.Result{"sharded": got, "unsharded": want} {
					if !r.HardValid {
						t.Errorf("%v %v: %s hard bounds invalid", q.Kind, q.Rect, name)
						continue
					}
					if truth < r.HardLo-1e-9 || truth > r.HardHi+1e-9 {
						t.Errorf("%v %v: %s hard bounds [%v, %v] exclude truth %v",
							q.Kind, q.Rect, name, r.HardLo, r.HardHi, truth)
					}
				}
			}
		})
	}
}

func close9(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= 1e-9*scale
}

func TestShardedBatchMatchesScalarQueries(t *testing.T) {
	d := twinData(t)
	_, shrd := buildTwins(t, d, "sharded:pass:3")
	qs := twinWorkload()
	batch := shrd.QueryBatch(qs)
	if len(batch) != len(qs) {
		t.Fatalf("batch returned %d results for %d queries", len(batch), len(qs))
	}
	for i, q := range qs {
		seq, err := shrd.Query(q.Kind, q.Rect)
		br := batch[i]
		if (err == nil) != (br.Err == nil) {
			t.Fatalf("query %d: err %v vs %v", i, br.Err, err)
		}
		if err != nil {
			continue
		}
		if br.Result.Estimate != seq.Estimate || br.Result.CIHalf != seq.CIHalf ||
			br.Result.NoMatch != seq.NoMatch {
			t.Errorf("query %d: batch %+v != sequential %+v", i, br.Result, seq)
		}
	}
}

// TestScatterNeverTouchesDisjointShards is the instrumented-executor
// test: a query whose rectangle is disjoint from a shard's key range must
// not reach that shard, for single queries, batches and GROUP BY alike.
func TestScatterNeverTouchesDisjointShards(t *testing.T) {
	d := twinData(t)
	_, eng := buildTwins(t, d, "sharded:pass:4")
	shrd := eng.(*shard.Engine)
	info := shrd.ShardInfo()
	if info.Shards < 2 {
		t.Fatalf("need ≥ 2 shards, got %d", info.Shards)
	}
	// a rectangle strictly inside shard 0's key range and strictly below
	// every other shard's lower bound
	hi := info.Cuts[0] - 1e-9
	lo := info.Bounds[0].Lo[0]
	q := dataset.Rect1(lo, hi)
	st := shrd.ScatterStats()
	before, prunedBefore := st.Scattered, st.Pruned

	if _, err := shrd.Query(dataset.Sum, q); err != nil {
		t.Fatal(err)
	}
	if _, err := shrd.GroupBy(dataset.Sum, q, 0, []float64{lo}); err != nil {
		t.Fatal(err)
	}
	shrd.QueryBatch([]core.BatchQuery{
		{Kind: dataset.Count, Rect: q},
		{Kind: dataset.Avg, Rect: q},
	})

	st = shrd.ScatterStats()
	after := st.Scattered
	if after[0] != before[0]+4 {
		t.Errorf("shard 0 executed %d queries, want 4", after[0]-before[0])
	}
	for i := 1; i < info.Shards; i++ {
		if after[i] != before[i] {
			t.Errorf("disjoint shard %d was scattered to %d time(s)", i, after[i]-before[i])
		}
	}
	if got := st.Pruned - prunedBefore; got != int64(4*(info.Shards-1)) {
		t.Errorf("pruned %d (query, shard) pairs, want %d", got, 4*(info.Shards-1))
	}
}

func TestShardedGroupByMatchesUnshardedTwin(t *testing.T) {
	d := twinData(t)
	mono, shrd := buildTwins(t, d, "sharded:pass:4")
	groups := []float64{2, 5, 11, 17}
	q := dataset.Rect1(0, 24)
	mg, ok := mono.(engine.Grouper)
	if !ok {
		t.Fatal("PASS engine must be a Grouper")
	}
	sg, ok := shrd.(engine.Grouper)
	if !ok {
		t.Fatal("sharded engine must be a Grouper")
	}
	want, err := mg.GroupBy(dataset.Sum, q, 0, groups)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sg.GroupBy(dataset.Sum, q, 0, groups)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d groups, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Group != want[i].Group {
			t.Fatalf("group key %v != %v", got[i].Group, want[i].Group)
		}
		if got[i].Result.NoMatch != want[i].Result.NoMatch {
			t.Errorf("group %v: NoMatch %v vs %v", want[i].Group, got[i].Result.NoMatch, want[i].Result.NoMatch)
			continue
		}
		if !want[i].Result.NoMatch && !close9(got[i].Result.Estimate, want[i].Result.Estimate) {
			t.Errorf("group %v: estimate %v vs %v", want[i].Group, got[i].Result.Estimate, want[i].Result.Estimate)
		}
	}
	if _, err := sg.GroupBy(dataset.Sum, q, 99, groups); err == nil {
		t.Error("GroupBy on an out-of-range dimension must error, not panic")
	}
}

func TestInsertRoutesToOwningShardAndGrowsBounds(t *testing.T) {
	d := twinData(t)
	_, eng := buildTwins(t, d, "sharded:pass:4")
	shrd := eng.(*shard.Engine)
	info := shrd.ShardInfo()
	beyond := info.Bounds[info.Shards-1].Hi[0] + 100

	owner, err := shrd.Route([]float64{beyond})
	if err != nil {
		t.Fatal(err)
	}
	if owner != info.Shards-1 {
		t.Fatalf("key beyond the last cut routes to shard %d, want %d", owner, info.Shards-1)
	}
	rowsBefore := shrd.ShardRows()
	if err := shrd.Insert([]float64{beyond}, 42); err != nil {
		t.Fatal(err)
	}
	rowsAfter := shrd.ShardRows()
	for i := range rowsBefore {
		wantDelta := 0
		if i == owner {
			wantDelta = 1
		}
		if rowsAfter[i]-rowsBefore[i] != wantDelta {
			t.Errorf("shard %d rows changed by %d, want %d", i, rowsAfter[i]-rowsBefore[i], wantDelta)
		}
	}
	// the shard's bounding rectangle must have grown to cover the insert:
	// a query at the new key has to scatter to the owning shard rather
	// than being pruned (what the inner engine answers for keys outside
	// its build range is the inner engine's business — pruning must never
	// pre-empt it)
	countsBefore := shrd.ScatterStats().Scattered
	if _, err := shrd.Query(dataset.Count, dataset.Rect1(beyond, beyond)); err != nil {
		t.Fatal(err)
	}
	countsAfter := shrd.ScatterStats().Scattered
	if countsAfter[owner] != countsBefore[owner]+1 {
		t.Errorf("query at the inserted key did not scatter to the owning shard (bounds must grow with inserts)")
	}
	// visible behaviour stays in lock-step with an unsharded twin given
	// the same insert: a whole-table COUNT includes the new tuple
	mono, _ := buildTwins(t, d, "sharded:pass:2")
	if u, ok := mono.(engine.Updatable); ok {
		if err := u.Insert([]float64{beyond}, 42); err != nil {
			t.Fatal(err)
		}
	} else {
		t.Fatal("PASS engine must be Updatable")
	}
	all := dataset.Rect1(math.Inf(-1), math.Inf(1))
	want, err := mono.Query(dataset.Count, all)
	if err != nil {
		t.Fatal(err)
	}
	got, err := shrd.Query(dataset.Count, all)
	if err != nil {
		t.Fatal(err)
	}
	if !close9(got.Estimate, want.Estimate) {
		t.Errorf("whole-table COUNT after insert: sharded %v vs unsharded %v", got.Estimate, want.Estimate)
	}
	if err := shrd.Delete([]float64{beyond}, 42); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentUpdatesAndQueries exercises the per-shard locks under
// -race: inserts hammer the last shard while queries scan the first.
func TestConcurrentUpdatesAndQueries(t *testing.T) {
	d := twinData(t)
	_, eng := buildTwins(t, d, "sharded:pass:4")
	shrd := eng.(*shard.Engine)
	info := shrd.ShardInfo()
	hotKey := info.Bounds[info.Shards-1].Hi[0]
	coldQ := dataset.Rect1(info.Bounds[0].Lo[0], info.Cuts[0]-1e-9)

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := shrd.Insert([]float64{hotKey}, float64(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := shrd.Query(dataset.Sum, coldQ); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestShardedBaselineInnerAnswersLiveQueries guards the merge evidence
// path for non-PASS inners: the sampling baselines report
// MatchEst/MatchCertain, so a sharded US table must answer AVG and
// MIN/MAX with real estimates, never a spurious NoMatch.
func TestShardedBaselineInnerAnswersLiveQueries(t *testing.T) {
	d := twinData(t)
	e, err := factory.Build("sharded:us:2", d, factory.Spec{SampleSize: d.N(), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	q := dataset.Rect1(0, 20)
	for _, kind := range []dataset.AggKind{dataset.Avg, dataset.Min, dataset.Max} {
		r, err := e.Query(kind, q)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if r.NoMatch {
			t.Fatalf("%v over a matching predicate merged to NoMatch", kind)
		}
		truth, terr := d.Exact(kind, q)
		if terr != nil {
			t.Fatal(terr)
		}
		// full-sample US: estimates are exact
		if !close9(r.Estimate, truth) {
			t.Errorf("%v estimate %v, want %v", kind, r.Estimate, truth)
		}
	}
}

func TestFactoryShardedSpecParsing(t *testing.T) {
	d := twinData(t)
	sp := factory.Spec{Partitions: 8, SampleSize: 500, Seed: 3}
	if e, err := factory.Build("sharded:pass", d, sp); err != nil || e == nil {
		t.Errorf("sharded:pass (GOMAXPROCS default) failed: %v", err)
	}
	for _, bad := range []string{"sharded:pass:0", "sharded:pass:x", "sharded:nope:2", "sharded:pass:2:mod"} {
		if _, err := factory.Build(bad, d, sp); err == nil {
			t.Errorf("%q should fail to parse", bad)
		}
	}
	e, err := factory.Build("SHARDED:PASS:2", d, sp)
	if err != nil {
		t.Fatalf("spec should be case-insensitive: %v", err)
	}
	if e.Name() != "SHARDED[PASS x2]" {
		t.Errorf("Name = %q", e.Name())
	}
	s := e.(engine.Sharded)
	if s.ShardInfo().Shards != 2 || s.Shard(0) == nil {
		t.Errorf("ShardInfo = %+v", s.ShardInfo())
	}
}
