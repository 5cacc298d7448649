package shard_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine/factory"
	"repro/internal/merge"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/stats"
)

// BenchmarkShardedQueryBatch measures the scatter-gather batch path with
// allocation reporting: routing, clipping and the shard workers allocate
// per batch and per shard, never per statement, and partials fold through
// one pooled accumulator, so steady-state allocs/op stays flat as the
// workload grows (run with -benchmem; CI holds the allocs/op figure under
// a ceiling).
func BenchmarkShardedQueryBatch(b *testing.B) {
	d := dataset.GenIntelWireless(20000, 13)
	eng, err := factory.Build("sharded:pass:4", d, factory.Spec{Partitions: 32, SampleSize: d.N() / 10, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]core.BatchQuery, 0, 64)
	kinds := []dataset.AggKind{dataset.Sum, dataset.Count, dataset.Avg, dataset.Min}
	for i := 0; i < 64; i++ {
		lo := float64(i % 16)
		qs = append(qs, core.BatchQuery{Kind: kinds[i%len(kinds)], Rect: dataset.Rect1(lo, lo+9)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eng.QueryBatch(qs)
		if len(res) != len(qs) {
			b.Fatal("short batch result")
		}
	}
	b.StopTimer()
	acquires, allocated := merge.PoolStats()
	b.ReportMetric(float64(acquires-allocated), "pool-reuses")
}

// benchCtxEngine builds the standard 4-shard fixture.
func benchCtxEngine(b *testing.B) *shard.Engine {
	b.Helper()
	d := dataset.GenIntelWireless(20000, 13)
	eng, err := factory.Build("sharded:pass:4", d, factory.Spec{Partitions: 32, SampleSize: d.N() / 10, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	return eng.(*shard.Engine)
}

// BenchmarkShardedQueryCtxNoTrace measures the instrumented query path
// with tracing enabled but no trace attached: the cost of the
// obs.SpanFrom fast path (one atomic load plus one context lookup) on
// top of the plain scatter; compare with
// BenchmarkShardedQueryCtxTracingOff.
func BenchmarkShardedQueryCtxNoTrace(b *testing.B) {
	eng := benchCtxEngine(b)
	prev := obs.SetTracingEnabled(true)
	defer obs.SetTracingEnabled(prev)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := float64(i % 16)
		if _, err := eng.QueryCtx(ctx, dataset.Sum, dataset.Rect1(lo, lo+9)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedQueryCtxTracingOff is the baseline twin: the global
// tracing kill switch is off, so SpanFrom returns before even touching
// the context.
func BenchmarkShardedQueryCtxTracingOff(b *testing.B) {
	eng := benchCtxEngine(b)
	prev := obs.SetTracingEnabled(false)
	defer obs.SetTracingEnabled(prev)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := float64(i % 16)
		if _, err := eng.QueryCtx(ctx, dataset.Sum, dataset.Rect1(lo, lo+9)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedQuery measures the undeadlined single-query entry point:
// Query is a batch of one under context.Background(), so this is the same
// goroutine-per-shard scatter and shard-order fold the served path runs.
func BenchmarkShardedQuery(b *testing.B) {
	d := dataset.GenIntelWireless(20000, 13)
	eng, err := factory.Build("sharded:pass:4", d, factory.Spec{Partitions: 32, SampleSize: d.N() / 10, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := float64(i % 16)
		if _, err := eng.Query(dataset.Sum, dataset.Rect1(lo, lo+9)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSplit range-splits a table shaped like the served benchmark's
// 1-D one — 1M rows of pickup hours in four decimals, so heavy with ties
// and in no order, and trip distances — into 4 shards, as POST /tables
// does: go test -run '^$' -bench Split ./internal/shard/
func BenchmarkSplit(b *testing.B) {
	rng := stats.NewRNG(7)
	d := dataset.New("taxi", 1)
	for i := 0; i < 1_000_000; i++ {
		hour := math.Round(rng.Float64()*24e4) / 1e4
		d.Append([]float64{hour}, math.Round(rng.LogNormal(0.6, 0.8)*1e4)/1e4)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := shard.Split(d, shard.Range, 0, 4); err != nil {
			b.Fatal(err)
		}
	}
}
