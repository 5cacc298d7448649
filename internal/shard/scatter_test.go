// One-scatter tests: every entry point of the sharded engine runs the
// same executor, fold and drop rule, so their answers must be bitwise
// equal, must match a hand fold of the per-shard partials, and must treat
// a missing partial the same way whether a deadline or an error caused it.
package shard_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/engine/factory"
	"repro/internal/merge"
	"repro/internal/obs"
	"repro/internal/shard"
)

// handFold merges parts the way the scatter does: one pooled accumulator,
// Add in shard order, Result.
func handFold(kind dataset.AggKind, parts []core.Result) core.Result {
	m := merge.Get(kind)
	defer merge.Put(m)
	for _, p := range parts {
		m.Add(p)
	}
	return m.Result()
}

// TestEntryPointsAgree runs all five aggregates through every entry point
// on range- and hash-sharded engines: the answers must be bitwise equal to
// Query's, and Query's must match a hand fold over every shard's partial
// for the unclipped rectangle. (It replaces the former streamed-vs-
// materialized twin and TestQueryCtxWithoutDeadlineIsExact, whose two
// sides are now the same function.)
func TestEntryPointsAgree(t *testing.T) {
	far := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), time.Minute)
	}
	traced := func(ctx context.Context) context.Context {
		return obs.WithSpan(ctx, obs.StartTrace("test"))
	}
	single := map[string]func(*shard.Engine, core.BatchQuery) (core.Result, error){
		"QueryCtx(Background)": func(e *shard.Engine, q core.BatchQuery) (core.Result, error) {
			return e.QueryCtx(context.Background(), q.Kind, q.Rect)
		},
		"QueryCtx(far deadline)": func(e *shard.Engine, q core.BatchQuery) (core.Result, error) {
			ctx, cancel := far()
			defer cancel()
			return e.QueryCtx(ctx, q.Kind, q.Rect)
		},
		"QueryCtx(traced)": func(e *shard.Engine, q core.BatchQuery) (core.Result, error) {
			return e.QueryCtx(traced(context.Background()), q.Kind, q.Rect)
		},
	}
	batch := map[string]func(*shard.Engine, []core.BatchQuery) []core.BatchResult{
		"QueryBatch": func(e *shard.Engine, qs []core.BatchQuery) []core.BatchResult {
			return e.QueryBatch(qs)
		},
		"QueryBatchCtx(far deadline)": func(e *shard.Engine, qs []core.BatchQuery) []core.BatchResult {
			ctx, cancel := far()
			defer cancel()
			return e.QueryBatchCtx(ctx, qs)
		},
		"QueryBatchCtx(traced)": func(e *shard.Engine, qs []core.BatchQuery) []core.BatchResult {
			return e.QueryBatchCtx(traced(context.Background()), qs)
		},
	}
	for _, spec := range []string{"sharded:pass:4", "sharded:pass:4:hash"} {
		t.Run(spec, func(t *testing.T) {
			_, eng := buildTwins(t, twinData(t), spec)
			e := eng.(*shard.Engine)
			qs := twinWorkload()
			// a predicate below every shard's keys: the fully pruned answer
			qs = append(qs, core.BatchQuery{Kind: dataset.Count, Rect: dataset.Rect1(-20, -10)})
			streamedBefore := e.ScatterStats().Streamed

			want := make([]core.Result, len(qs))
			for i, q := range qs {
				var err error
				if want[i], err = e.Query(q.Kind, q.Rect); err != nil {
					t.Fatalf("Query %v %v: %v", q.Kind, q.Rect, err)
				}
				parts := make([]core.Result, e.ShardInfo().Shards)
				for si := range parts {
					if parts[si], err = e.Shard(si).Query(q.Kind, q.Rect); err != nil {
						t.Fatal(err)
					}
				}
				hand := handFold(q.Kind, parts)
				if hand.NoMatch != want[i].NoMatch {
					t.Fatalf("%v %v: NoMatch %v, hand fold %v", q.Kind, q.Rect, want[i].NoMatch, hand.NoMatch)
				}
				if !hand.NoMatch && (!close9(want[i].Estimate, hand.Estimate) || !close9(want[i].CIHalf, hand.CIHalf) ||
					!close9(want[i].HardLo, hand.HardLo) || !close9(want[i].HardHi, hand.HardHi)) {
					t.Errorf("%v %v: scatter %+v != hand fold %+v", q.Kind, q.Rect, want[i], hand)
				}
			}
			if e.ScatterStats().Streamed == streamedBefore {
				t.Error("Streamed did not advance over a scattered workload")
			}
			for name, run := range single {
				for i, q := range qs {
					got, err := run(e, q)
					if err != nil {
						t.Fatalf("%s %v %v: %v", name, q.Kind, q.Rect, err)
					}
					if got != want[i] {
						t.Errorf("%s %v %v:\n got %+v\nwant %+v", name, q.Kind, q.Rect, got, want[i])
					}
				}
			}
			for name, run := range batch {
				out := run(e, qs)
				if len(out) != len(qs) {
					t.Fatalf("%s returned %d results for %d queries", name, len(out), len(qs))
				}
				for i, q := range qs {
					if out[i].Err != nil {
						t.Fatalf("%s %v %v: %v", name, q.Kind, q.Rect, out[i].Err)
					}
					if out[i].Result != want[i] {
						t.Errorf("%s %v %v:\n got %+v\nwant %+v", name, q.Kind, q.Rect, out[i].Result, want[i])
					}
				}
			}
		})
	}
}

// failingEngine answers every query with an error.
type failingEngine struct{ engine.Engine }

var errShardDown = errors.New("shard down")

func (f failingEngine) Underlying() engine.Engine { return f.Engine }

func (f failingEngine) Query(dataset.AggKind, dataset.Rect) (core.Result, error) {
	return core.Result{}, errShardDown
}

func (f failingEngine) QueryBatch(qs []core.BatchQuery) []core.BatchResult {
	out := make([]core.BatchResult, len(qs))
	for i := range out {
		out[i].Err = errShardDown
	}
	return out
}

// buildWithFailingShards range-shards d three ways at full sampling, with
// the listed shards erroring on every query.
func buildWithFailingShards(t *testing.T, d *dataset.Dataset, failing ...int) *shard.Engine {
	t.Helper()
	e, err := shard.Build(d, shard.Range, 0, 3, func(i int, part *dataset.Dataset) (engine.Engine, error) {
		inner, err := factory.Build("pass", part, factory.Spec{Partitions: 16, SampleSize: part.N(), Seed: 3})
		for _, f := range failing {
			if f == i && err == nil {
				return failingEngine{inner}, nil
			}
		}
		return inner, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestErroringShardFollowsDropRule: a shard that errors is dropped exactly
// like one that misses a deadline — with no deadline anywhere, the answer
// degrades (soundly), strict mode fails it, a scatter nobody answered
// fails, and the batch front-end agrees with the single one.
func TestErroringShardFollowsDropRule(t *testing.T) {
	d := twinData(t)
	e := buildWithFailingShards(t, d, 1)
	q := fullSpan(e)
	truth := float64(d.CountMatching(q))

	res, err := e.Query(dataset.Count, q)
	if err != nil {
		t.Fatalf("one erroring shard must degrade, not fail: %v", err)
	}
	if !res.Degraded || res.Exact || res.ShardsTotal != 3 || res.ShardsAnswered != 2 {
		t.Fatalf("want a degraded 2/3 answer, got %+v", res)
	}
	if math.Abs(res.Estimate-truth) > res.CIHalf || truth < res.HardLo || truth > res.HardHi {
		t.Fatalf("degraded COUNT %+v does not contain ground truth %v", res, truth)
	}
	confined := dataset.Rect1(e.ShardInfo().Bounds[0].Lo[0], e.ShardInfo().Bounds[0].Hi[0])
	qs := []core.BatchQuery{{Kind: dataset.Count, Rect: q}, {Kind: dataset.Count, Rect: confined}}
	out := e.QueryBatch(qs)
	if out[0].Err != nil || out[0].Result != res {
		t.Fatalf("batch %+v (err %v) disagrees with single %+v", out[0].Result, out[0].Err, res)
	}
	if out[1].Err != nil || out[1].Result.Degraded {
		t.Fatalf("a query that never touched the erroring shard must stay complete: %+v, %v", out[1].Result, out[1].Err)
	}

	e.SetStrict(true)
	_, err = e.Query(dataset.Count, q)
	if !errors.Is(err, errShardDown) || !strings.Contains(err.Error(), "strict scatter") {
		t.Fatalf("strict single = %v, want a strict-scatter error wrapping the shard's", err)
	}
	out = e.QueryBatch(qs)
	if !errors.Is(out[0].Err, errShardDown) || !strings.Contains(out[0].Err.Error(), "strict scatter") {
		t.Fatalf("strict batch = %v, want a strict-scatter error wrapping the shard's", out[0].Err)
	}
	if out[1].Err != nil {
		t.Fatalf("strict mode must not fail an untouched query: %v", out[1].Err)
	}

	none := buildWithFailingShards(t, d, 0, 1, 2)
	if _, err := none.Query(dataset.Count, q); !errors.Is(err, errShardDown) {
		t.Fatalf("no shard answered: err = %v, want the shard error in the chain", err)
	}
	if out := none.QueryBatch(qs[:1]); !errors.Is(out[0].Err, errShardDown) {
		t.Fatalf("no shard answered (batch): err = %v, want the shard error in the chain", out[0].Err)
	}
}

// TestTracedBatchUnderDeadlineCarriesSpan: the batch span no longer
// depends on the context having no deadline.
func TestTracedBatchUnderDeadlineCarriesSpan(t *testing.T) {
	_, eng := buildTwins(t, twinData(t), "sharded:pass:4")
	e := eng.(*shard.Engine)
	qs := twinWorkload()
	root := obs.StartTrace("test")
	ctx, cancel := context.WithTimeout(obs.WithSpan(context.Background(), root), time.Minute)
	defer cancel()
	folded := 0
	for _, br := range e.QueryBatchCtx(ctx, qs) {
		if br.Err != nil {
			t.Fatal(br.Err)
		}
		folded += br.Result.ShardsAnswered
	}
	root.End()
	tree := root.Export()
	if len(tree.Children) != 1 || tree.Children[0].Name != "scatter" {
		t.Fatalf("trace = %+v, want one scatter child", tree)
	}
	attrs := tree.Children[0].Attrs
	if attrs["queries"] != int64(len(qs)) || attrs["shards_total"] != int64(4) ||
		attrs["partials_folded"] != int64(folded) ||
		attrs["shards_pruned"] != int64(4*len(qs)-folded) {
		t.Fatalf("scatter attrs = %v (folded %d of %d pairs)", attrs, folded, 4*len(qs))
	}
}

// TestTracedDropMarksShardSpan: under a trace, a shard dropped because it
// errored or because it missed the deadline carries "dropped" on its own
// span, and the scatter span counts it — whether the shard's task ended
// the span or was abandoned with it still open.
func TestTracedDropMarksShardSpan(t *testing.T) {
	d := twinData(t)
	for _, tc := range []struct {
		name    string
		eng     *shard.Engine
		timeout time.Duration
	}{
		{"erroring shard", buildWithFailingShards(t, d, 1), time.Minute},
		{"straggler", buildWithSlowShard(t, d, 3, map[int]bool{1: true}, 500*time.Millisecond), 60 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := obs.StartTrace("test")
			ctx, cancel := context.WithTimeout(obs.WithSpan(context.Background(), root), tc.timeout)
			defer cancel()
			res, err := tc.eng.QueryCtx(ctx, dataset.Count, fullSpan(tc.eng))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Degraded || res.ShardsAnswered != 2 {
				t.Skipf("want shard 1 alone dropped, got %d/%d answered", res.ShardsAnswered, res.ShardsTotal)
			}
			root.End()
			scatter := root.Export().Children[0]
			if scatter.Attrs["shards_dropped"] != int64(1) || scatter.Attrs["shards_answered"] != int64(2) {
				t.Fatalf("scatter attrs = %v, want 1 dropped and 2 answered", scatter.Attrs)
			}
			for _, c := range scatter.Children {
				if dropped := c.Attrs["dropped"] == true; dropped != (c.Name == "shard[1]") {
					t.Errorf("%s: dropped = %v, attrs %v", c.Name, dropped, c.Attrs)
				}
			}
		})
	}
}

// TestDegradedMatchesHandFold: a scatter that dropped a shard at the
// deadline must answer within 1e-9 of a hand fold over the surviving
// shards, degraded by the dropped shard's cardinality.
func TestDegradedMatchesHandFold(t *testing.T) {
	d := twinData(t)
	e := buildWithSlowShard(t, d, 4, map[int]bool{1: true}, 500*time.Millisecond)
	q := fullSpan(e)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	got, err := e.QueryCtx(ctx, dataset.Count, q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Degraded {
		t.Skip("slow shard answered inside the deadline; nothing to compare")
	}
	if got.ShardsAnswered != 3 {
		t.Skipf("%d/4 shards answered; twin assumes exactly the slow shard dropped", got.ShardsAnswered)
	}

	rows := e.ShardRows()
	var parts []core.Result
	for _, si := range []int{0, 2, 3} {
		p, err := e.Shard(si).Query(dataset.Count, q)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	want := handFold(dataset.Count, parts)
	merge.Degrade(dataset.Count, &want, []int{rows[1]})

	if !close9(got.Estimate, want.Estimate) || !close9(got.CIHalf, want.CIHalf) ||
		!close9(got.HardHi, want.HardHi) || !close9(got.HardLo, want.HardLo) {
		t.Errorf("degraded scatter %+v != hand fold %+v", got, want)
	}
}

// TestShardedBatchAllocations pins the allocation count of a 64-statement
// 3-D batch on four shards — routing arenas, one clip buffer and one
// result slice per shard sub-batch, the scatter's goroutines, and nothing
// per statement (it was 2 slices per statement and shard for the clipped
// rectangle plus ~11 per core query) — and of a batch of one, the body
// every single query runs. Each input must also allocate exactly as much
// with tracing enabled but no span attached as with tracing off: the
// per-shard spans exist only under a trace. The count is deterministic
// for a GOMAXPROCS; AllocsPerRun measures at 1.
func TestShardedBatchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	d := dataset.GenNYCTaxi(20000, 3, 61)
	eng, err := factory.Build("sharded:pass:4", d, factory.Spec{Partitions: 64, SampleSize: 2000, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	kinds := []dataset.AggKind{dataset.Sum, dataset.Count, dataset.Avg, dataset.Min, dataset.Max}
	qs := make([]core.BatchQuery, 64)
	for i := range qs {
		lo := float64(i % 12)
		qs[i] = core.BatchQuery{Kind: kinds[i%len(kinds)], Rect: dataset.Rect{
			Lo: []float64{lo, 2, 30},
			Hi: []float64{lo + 9.5, 25.5, 220},
		}}
	}
	for _, tc := range []struct {
		name    string
		qs      []core.BatchQuery
		ceiling float64
	}{
		{"64 statements", qs, 60},     // measured 50
		{"one statement", qs[:1], 30}, // measured 30
	} {
		scanned := 0
		for _, br := range eng.QueryBatch(tc.qs) {
			if br.Err != nil {
				t.Fatal(br.Err)
			}
			scanned += br.Result.TuplesRead
		}
		if scanned == 0 {
			t.Fatalf("%s: no statement reached a leaf scan", tc.name)
		}
		allocs := func(tracing bool) float64 {
			defer obs.SetTracingEnabled(obs.SetTracingEnabled(tracing))
			return testing.AllocsPerRun(50, func() { eng.QueryBatch(tc.qs) })
		}
		on, off := allocs(true), allocs(false)
		t.Logf("%s: %v allocs per sharded batch (tracing off: %v)", tc.name, on, off)
		if on > tc.ceiling {
			t.Errorf("%s: %v allocs per sharded batch, want at most %v", tc.name, on, tc.ceiling)
		}
		if on != off {
			t.Errorf("%s: %v allocs with tracing enabled and no span attached, %v with tracing off", tc.name, on, off)
		}
	}
}
