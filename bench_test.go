// Benchmarks regenerating every table and figure of the paper's evaluation
// (run with `go test -bench=. -benchmem`), plus micro-benchmarks of the
// core operations. Each experiment benchmark renders its tables to the
// test log once so the numbers are inspectable in benchmark output; the
// full-scale runs live behind cmd/passbench, which accepts -rows/-queries.
package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"testing"

	"repro/internal/baselines"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine/factory"
	"repro/internal/stats"
	"repro/internal/workload"
)

// benchCfg keeps experiment benchmarks fast enough for -bench=. while
// preserving every curve's shape.
func benchCfg() bench.Config {
	return bench.Config{Rows: 20000, Queries: 60, Seed: 1}
}

func runExperiment(b *testing.B, id string, render bool) {
	b.Helper()
	fn := bench.Experiments[id]
	if fn == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		tables := fn(cfg)
		if len(tables) == 0 {
			b.Fatalf("experiment %q produced no tables", id)
		}
		if render && i == 0 {
			var w io.Writer = io.Discard
			if testing.Verbose() {
				w = os.Stdout
			}
			for _, t := range tables {
				t.Render(w)
			}
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (US/ST/AQP++/PASS accuracy matrix).
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1", true) }

// BenchmarkFigure3 regenerates Figure 3 (error vs #partitions).
func BenchmarkFigure3(b *testing.B) { runExperiment(b, "fig3", true) }

// BenchmarkFigure4 regenerates Figure 4 (error vs sample rate).
func BenchmarkFigure4(b *testing.B) { runExperiment(b, "fig4", true) }

// BenchmarkFigure5 regenerates Figure 5 (CI ratio vs sample rate).
func BenchmarkFigure5(b *testing.B) { runExperiment(b, "fig5", true) }

// BenchmarkFigure6 regenerates Figure 6 (ADP vs EQ, adversarial data).
func BenchmarkFigure6(b *testing.B) { runExperiment(b, "fig6", true) }

// BenchmarkFigure7 regenerates Figure 7 (ADP vs EQ, challenging queries).
func BenchmarkFigure7(b *testing.B) { runExperiment(b, "fig7", true) }

// BenchmarkFigure8 regenerates Figure 8 (KD-PASS vs KD-US, 1D-5D).
func BenchmarkFigure8(b *testing.B) { runExperiment(b, "fig8", true) }

// BenchmarkFigure9 regenerates Figure 9 (workload shift).
func BenchmarkFigure9(b *testing.B) { runExperiment(b, "fig9", true) }

// BenchmarkTable2 regenerates Table 2 (VerdictDB/DeepDB comparison).
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2", true) }

// BenchmarkTable3 regenerates Table 3 (preprocessing cost vs k).
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3", true) }

// BenchmarkDPVariants regenerates the Section 4.3 algorithm ladder.
func BenchmarkDPVariants(b *testing.B) { runExperiment(b, "dpcost", true) }

// BenchmarkAblation runs the design-choice ablations from DESIGN.md.
func BenchmarkAblation(b *testing.B) { runExperiment(b, "ablation", true) }

// BenchmarkAdaptive runs the workload-adaptive experiment: skewed-
// workload accuracy before/after re-optimization.
func BenchmarkAdaptive(b *testing.B) { runExperiment(b, "adaptive", true) }

// --- micro-benchmarks -------------------------------------------------

func buildSyn(b *testing.B, n int) (*dataset.Dataset, *core.Synopsis) {
	b.Helper()
	d := dataset.GenNYCTaxi(n, 1, 1)
	s, err := core.Build(d, core.Options{Partitions: 64, SampleRate: 0.005, Kind: dataset.Sum, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	return d, s
}

// BenchmarkBuild measures 1D synopsis construction (ADP + tree + samples):
// the two-pointer monotone DP, the pair-sorted predicate ordering, the
// parallel leaf aggregation and the parallel columnar sample fill.
func BenchmarkBuild(b *testing.B) {
	d := dataset.GenNYCTaxi(100000, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(d, core.Options{Partitions: 64, SampleRate: 0.005, Kind: dataset.Sum, Seed: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildKD measures multi-dimensional construction.
func BenchmarkBuildKD(b *testing.B) {
	d := dataset.GenNYCTaxi(100000, 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildKD(d, core.Options{Partitions: 256, SampleRate: 0.005, Kind: dataset.Sum, Seed: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuerySum measures PASS query latency on selective intervals.
func BenchmarkQuerySum(b *testing.B) {
	_, s := buildSyn(b, 100000)
	rng := stats.NewRNG(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := rng.Float64() * 20
		if _, err := s.Query(dataset.Sum, dataset.Rect1(a, a+2)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryAvg measures AVG latency (weighted stratified path).
func BenchmarkQueryAvg(b *testing.B) {
	_, s := buildSyn(b, 100000)
	rng := stats.NewRNG(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := rng.Float64() * 20
		if _, err := s.Query(dataset.Avg, dataset.Rect1(a, a+2)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryBatch measures a 256-query workload through the batched
// parallel execution path (per-op time is for the whole batch).
func BenchmarkQueryBatch(b *testing.B) {
	_, s := buildSyn(b, 100000)
	rng := stats.NewRNG(5)
	qs := make([]core.BatchQuery, 256)
	for i := range qs {
		a := rng.Float64() * 20
		qs[i] = core.BatchQuery{Kind: dataset.Sum, Rect: dataset.Rect1(a, a+2)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := s.QueryBatch(qs)
		if len(res) != len(qs) {
			b.Fatal("short batch result")
		}
	}
}

// BenchmarkQueryUS measures the uniform-sampling baseline for comparison.
func BenchmarkQueryUS(b *testing.B) {
	d := dataset.GenNYCTaxi(100000, 1, 1)
	u := baselines.NewUniform(d, 500, 0, 5)
	rng := stats.NewRNG(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := rng.Float64() * 20
		if _, err := u.Query(dataset.Sum, dataset.Rect1(a, a+2)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsert measures reservoir-maintained dynamic inserts.
func BenchmarkInsert(b *testing.B) {
	_, s := buildSyn(b, 100000)
	rng := stats.NewRNG(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Insert([]float64{rng.Float64() * 24}, rng.Float64()*10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroundTruth1D measures the prefix-sum exact evaluator used by
// the harness.
func BenchmarkGroundTruth1D(b *testing.B) {
	d := dataset.GenNYCTaxi(100000, 1, 1)
	ev := workload.NewEvaluator(d)
	rng := stats.NewRNG(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, c := rng.Float64()*24, rng.Float64()*24
		ev.Exact(dataset.Sum, dataset.Rect1(math.Min(a, c), math.Max(a, c)))
	}
}

// shardCounts are the configurations the sharded benchmarks compare: a
// single shard (the scatter-gather machinery with no parallelism to win)
// against one shard per core.
func shardCounts() []int {
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	} else {
		counts = append(counts, 4) // still exercise the multi-shard path
	}
	return counts
}

// BenchmarkShardedBuild measures sharded synopsis construction: N shards
// build concurrently on the worker pool with the total budget divided
// among them.
func BenchmarkShardedBuild(b *testing.B) {
	d := dataset.GenIntelWireless(100000, 1)
	sp := factory.Spec{Partitions: 64, SampleRate: 0.005, Seed: 1}
	for _, n := range shardCounts() {
		spec := fmt.Sprintf("sharded:pass:%d", n)
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := factory.Build(spec, d, sp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedQueryBatch measures batched scatter-gather execution:
// the workload fans shard-first across the pool and per-query partials
// merge on the way back.
func BenchmarkShardedQueryBatch(b *testing.B) {
	d := dataset.GenIntelWireless(100000, 1)
	sp := factory.Spec{Partitions: 64, SampleRate: 0.005, Seed: 1}
	rng := stats.NewRNG(9)
	qs := make([]core.BatchQuery, 256)
	for i := range qs {
		lo := rng.Float64() * 20
		qs[i] = core.BatchQuery{Kind: dataset.Sum, Rect: dataset.Rect1(lo, lo+4)}
	}
	for _, n := range shardCounts() {
		e, err := factory.Build(fmt.Sprintf("sharded:pass:%d", n), d, sp)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out := e.QueryBatch(qs)
				if len(out) != len(qs) {
					b.Fatal("short batch")
				}
			}
		})
	}
}
