// Deadline-bounded scatter tests: a slow shard must be dropped at the
// parent deadline, the merged answer must stay sound (its widened CI
// contains the ground truth), wall time must respect the deadline, and
// strict mode must fail instead of degrading.
package shard_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/engine/factory"
	"repro/internal/shard"
)

// slowEngine wraps an inner engine and delays every query by delay.
// Underlying exposes the wrapped engine so capability checks (Sized,
// Updatable) still see it.
type slowEngine struct {
	inner engine.Engine
	delay time.Duration
	// entered, when set, receives a token as a single query starts its
	// delay (under the shard's read lock).
	entered chan struct{}
}

func (s *slowEngine) Name() string              { return s.inner.Name() }
func (s *slowEngine) MemoryBytes() int          { return s.inner.MemoryBytes() }
func (s *slowEngine) Underlying() engine.Engine { return s.inner }

func (s *slowEngine) Query(kind dataset.AggKind, q dataset.Rect) (core.Result, error) {
	if s.entered != nil {
		s.entered <- struct{}{}
	}
	time.Sleep(s.delay)
	return s.inner.Query(kind, q)
}

func (s *slowEngine) QueryBatch(qs []core.BatchQuery) []core.BatchResult {
	time.Sleep(s.delay)
	return s.inner.QueryBatch(qs)
}

// buildWithSlowShard constructs a range-sharded PASS engine over d where
// the shards listed in slow answer only after delay. Full sampling, so
// answered shards are exact.
func buildWithSlowShard(t *testing.T, d *dataset.Dataset, shards int, slow map[int]bool, delay time.Duration) *shard.Engine {
	t.Helper()
	e, err := shard.Build(d, shard.Range, 0, shards, func(i int, part *dataset.Dataset) (engine.Engine, error) {
		inner, err := factory.Build("pass", part, factory.Spec{Partitions: 16, SampleSize: part.N(), Seed: 3})
		if err != nil {
			return nil, err
		}
		if slow[i] {
			return &slowEngine{inner: inner, delay: delay}, nil
		}
		return inner, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// fullSpan returns a rect covering every shard's key range.
func fullSpan(e *shard.Engine) dataset.Rect {
	info := e.ShardInfo()
	lo := info.Bounds[0].Lo[0]
	hi := info.Bounds[len(info.Bounds)-1].Hi[0]
	return dataset.Rect1(lo, hi)
}

func TestQueryCtxDeadlineDropsSlowShard(t *testing.T) {
	d := twinData(t)
	e := buildWithSlowShard(t, d, 3, map[int]bool{1: true}, 5*time.Second)
	q := fullSpan(e) // touches every shard
	truth := float64(d.CountMatching(q))

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := e.QueryCtx(ctx, dataset.Count, q)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	// the parent deadline bounds the wall time: nobody waited out the
	// 5-second shard
	if wall > 2*time.Second {
		t.Fatalf("query took %s, deadline was 150ms", wall)
	}
	if !res.Degraded {
		t.Fatal("result with a dropped shard must be marked Degraded")
	}
	if res.ShardsTotal != 3 || res.ShardsAnswered != 2 {
		t.Fatalf("shards = %d/%d, want 2/3", res.ShardsAnswered, res.ShardsTotal)
	}
	if res.Exact {
		t.Fatal("a partial COUNT cannot claim exactness")
	}
	// soundness: the widened CI must contain the ground truth
	if math.Abs(res.Estimate-truth) > res.CIHalf {
		t.Fatalf("degraded COUNT %v ± %v does not contain ground truth %v", res.Estimate, res.CIHalf, truth)
	}
	// and the hard bounds, when valid, must bracket it too
	if res.HardValid && (truth < res.HardLo-1e-9 || truth > res.HardHi+1e-9) {
		t.Fatalf("hard bounds [%v, %v] exclude ground truth %v", res.HardLo, res.HardHi, truth)
	}
}

func TestQueryCtxStrictModeFails(t *testing.T) {
	d := twinData(t)
	e := buildWithSlowShard(t, d, 3, map[int]bool{2: true}, 5*time.Second)
	e.SetStrict(true)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	_, err := e.QueryCtx(ctx, dataset.Count, fullSpan(e))
	if err == nil {
		t.Fatal("strict mode must fail when a shard is dropped")
	}
	if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "strict scatter") {
		t.Fatalf("strict error = %v, want a strict-scatter error wrapping DeadlineExceeded", err)
	}
}

func TestQueryCtxNoShardAnswered(t *testing.T) {
	d := twinData(t)
	e := buildWithSlowShard(t, d, 2, map[int]bool{0: true, 1: true}, 5*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := e.QueryCtx(ctx, dataset.Count, fullSpan(e))
	if err == nil {
		t.Fatal("a scatter where zero shards answered cannot return a result")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want DeadlineExceeded in the chain", err)
	}
}

func TestQueryCtxAlreadyCancelled(t *testing.T) {
	d := twinData(t)
	e := buildWithSlowShard(t, d, 2, nil, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.QueryCtx(ctx, dataset.Count, fullSpan(e)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func TestQueryBatchCtxDegradesOnlyTouchedQueries(t *testing.T) {
	d := twinData(t)
	// range sharding on column 0: shard 2 (the slow one) owns the upper
	// part of the key space
	e := buildWithSlowShard(t, d, 3, map[int]bool{2: true}, 5*time.Second)
	info := e.ShardInfo()

	// one query confined to shard 0's range, one spanning everything
	confined := dataset.Rect1(info.Bounds[0].Lo[0], info.Bounds[0].Hi[0])
	full := fullSpan(e)
	qs := []core.BatchQuery{
		{Kind: dataset.Count, Rect: confined},
		{Kind: dataset.Count, Rect: full},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	out := e.QueryBatchCtx(ctx, qs)
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("batch took %s, deadline was 200ms", wall)
	}

	if out[0].Err != nil {
		t.Fatalf("confined query: %v", out[0].Err)
	}
	if out[0].Result.Degraded {
		t.Fatal("a query that never touched the slow shard must not degrade")
	}
	if want := float64(d.CountMatching(confined)); math.Abs(out[0].Result.Estimate-want) > 1e-9 {
		t.Fatalf("confined COUNT = %v, want %v", out[0].Result.Estimate, want)
	}

	if out[1].Err != nil {
		t.Fatalf("spanning query: %v", out[1].Err)
	}
	r := out[1].Result
	if !r.Degraded || r.ShardsAnswered >= r.ShardsTotal {
		t.Fatalf("spanning query should be degraded with a dropped shard, got %+v", r)
	}
	truth := float64(d.CountMatching(full))
	if math.Abs(r.Estimate-truth) > r.CIHalf {
		t.Fatalf("degraded batch COUNT %v ± %v does not contain ground truth %v", r.Estimate, r.CIHalf, truth)
	}
}

func TestQueryBatchCtxStrictFailsTouchedQueries(t *testing.T) {
	d := twinData(t)
	e := buildWithSlowShard(t, d, 3, map[int]bool{2: true}, 5*time.Second)
	e.SetStrict(true)
	info := e.ShardInfo()
	confined := dataset.Rect1(info.Bounds[0].Lo[0], info.Bounds[0].Hi[0])
	qs := []core.BatchQuery{
		{Kind: dataset.Count, Rect: confined},
		{Kind: dataset.Count, Rect: fullSpan(e)},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	out := e.QueryBatchCtx(ctx, qs)
	if out[0].Err != nil {
		t.Fatalf("confined query must still succeed in strict mode: %v", out[0].Err)
	}
	if out[1].Err == nil {
		t.Fatal("strict mode must fail the query that lost a shard")
	}
}

// TestDegradeDoesNotWaitOnAbandonedShard is the regression test for the
// degrade path taking the abandoned shard's read lock: with a slow scan
// holding shard 1's read lock and an insert queued on its write lock, a
// new RLock parks behind the writer, so a deadline-bounded query that
// asked shard 1 for its cardinality returned only when the slow scan did.
func TestDegradeDoesNotWaitOnAbandonedShard(t *testing.T) {
	const delay = time.Second
	d := twinData(t)
	entered := make(chan struct{}, 4) // every query of the test can signal without blocking
	e, err := shard.Build(d, shard.Range, 0, 3, func(i int, part *dataset.Dataset) (engine.Engine, error) {
		inner, err := factory.Build("pass", part, factory.Spec{Partitions: 16, SampleSize: part.N(), Seed: 3})
		if i == 1 && err == nil {
			return &slowEngine{inner: inner, delay: delay, entered: entered}, nil
		}
		return inner, err
	})
	if err != nil {
		t.Fatal(err)
	}
	info := e.ShardInfo()
	q := fullSpan(e)

	var wg sync.WaitGroup
	defer wg.Wait()
	wg.Add(1)
	go func() { // the slow scan: holds shard 1's read lock for delay
		defer wg.Done()
		if _, err := e.Query(dataset.Count, q); err != nil {
			t.Error(err)
		}
	}()
	<-entered
	wg.Add(1)
	go func() { // the writer: queues on shard 1's write lock
		defer wg.Done()
		if err := e.Insert([]float64{info.Bounds[1].Lo[0]}, 1); err != nil {
			t.Error(err)
		}
	}()
	// No event marks "parked in Lock"; give the writer a moment to get
	// there. If it has not, the test passes trivially rather than flaking.
	time.Sleep(20 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := e.QueryCtx(ctx, dataset.Count, q)
	if wall := time.Since(start); wall > delay/2 {
		t.Fatalf("degraded query took %s: it waited on the shard it abandoned (deadline 50ms, shard delay %s)", wall, delay)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.ShardsAnswered != 2 {
		t.Fatalf("want a degraded 2/3 answer, got %+v", res)
	}
	// the fully pruned answer reads the table cardinality the same way
	start = time.Now()
	if _, err := e.Query(dataset.Count, dataset.Rect1(info.Bounds[0].Lo[0]-20, info.Bounds[0].Lo[0]-10)); err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > delay/2 {
		t.Fatalf("fully pruned query took %s behind a queued writer", wall)
	}
}
