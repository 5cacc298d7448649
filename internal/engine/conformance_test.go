// Engine conformance suite: every AQP system in the repository — PASS and
// the five comparators — must satisfy the same contract beyond the type
// signature of engine.Engine:
//
//   - QueryBatch answers are identical to sequential Query answers;
//   - MemoryBytes is positive after a build;
//   - unsupported aggregates return errors, never panic;
//   - concurrent batched queries are race-free (run under -race in CI).
//
// The suite constructs engines through the factory, so adding an engine
// kind there automatically enrols it here.
package engine_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/engine/factory"
)

const confRows = 3000

func confDataset(t testing.TB) *dataset.Dataset {
	t.Helper()
	return dataset.GenIntelWireless(confRows, 7)
}

// shardedSpecs are the sharded scatter-gather configurations enrolled in
// the conformance suite alongside the six base engines: the sharded
// engine must honour the same contract regardless of its inner kind or
// partitioning policy.
var shardedSpecs = []string{"sharded:pass:4", "sharded:pass:3:hash", "sharded:us:2"}

// buildAll constructs one engine of every kind over the same dataset —
// the six base engines plus the sharded configurations.
func buildAll(t testing.TB, d *dataset.Dataset) map[string]engine.Engine {
	t.Helper()
	kinds := append(append([]string{}, factory.Kinds()...), shardedSpecs...)
	out := make(map[string]engine.Engine, len(kinds))
	for _, kind := range kinds {
		e, err := factory.Build(kind, d, factory.Spec{Partitions: 16, SampleRate: 0.02, Seed: 11})
		if err != nil {
			t.Fatalf("factory.Build(%s): %v", kind, err)
		}
		out[kind] = e
	}
	return out
}

func confWorkload() []core.BatchQuery {
	var qs []core.BatchQuery
	for _, kind := range []dataset.AggKind{dataset.Count, dataset.Sum, dataset.Avg} {
		for i := 0; i < 8; i++ {
			lo := float64(i * 3)
			qs = append(qs, core.BatchQuery{Kind: kind, Rect: dataset.Rect1(lo, lo+10)})
		}
	}
	return qs
}

func TestFactoryCoversAllSixEngines(t *testing.T) {
	kinds := factory.Kinds()
	if len(kinds) != 6 {
		t.Fatalf("factory kinds = %v, want the six engines of the paper's evaluation", kinds)
	}
	if _, err := factory.Build("no-such-engine", confDataset(t), factory.Spec{}); err == nil {
		t.Error("unknown engine kind should fail")
	}
}

func TestConformanceBatchMatchesSequential(t *testing.T) {
	d := confDataset(t)
	qs := confWorkload()
	for kind, e := range buildAll(t, d) {
		t.Run(kind, func(t *testing.T) {
			batch := e.QueryBatch(qs)
			if len(batch) != len(qs) {
				t.Fatalf("QueryBatch returned %d results for %d queries", len(batch), len(qs))
			}
			for i, q := range qs {
				seq, seqErr := e.Query(q.Kind, q.Rect)
				br := batch[i]
				if (seqErr == nil) != (br.Err == nil) {
					t.Fatalf("query %d: batch err %v vs sequential err %v", i, br.Err, seqErr)
				}
				if seqErr != nil {
					continue
				}
				if br.Result.Estimate != seq.Estimate || br.Result.CIHalf != seq.CIHalf ||
					br.Result.NoMatch != seq.NoMatch || br.Result.Exact != seq.Exact {
					t.Errorf("query %d: batch (%v ± %v) != sequential (%v ± %v)",
						i, br.Result.Estimate, br.Result.CIHalf, seq.Estimate, seq.CIHalf)
				}
			}
		})
	}
}

func TestConformanceMemoryBytesPositive(t *testing.T) {
	d := confDataset(t)
	for kind, e := range buildAll(t, d) {
		if e.MemoryBytes() <= 0 {
			t.Errorf("%s: MemoryBytes = %d after build, want > 0", kind, e.MemoryBytes())
		}
		if e.Name() == "" {
			t.Errorf("%s: empty engine name", kind)
		}
	}
}

// TestConformanceUnsupportedAggregates drives every aggregate kind —
// including ones an engine does not implement — through Query and asserts
// errors come back as errors, not panics.
func TestConformanceUnsupportedAggregates(t *testing.T) {
	d := confDataset(t)
	kinds := []dataset.AggKind{dataset.Sum, dataset.Count, dataset.Avg, dataset.Min, dataset.Max}
	for name, e := range buildAll(t, d) {
		t.Run(name, func(t *testing.T) {
			for _, k := range kinds {
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s panicked on %v: %v", name, k, r)
						}
					}()
					_, _ = e.Query(k, dataset.Rect1(0, 25))
				}()
			}
			// engines without MIN/MAX support must say so explicitly
			switch name {
			case "st", "aqpp", "deepdb":
				if _, err := e.Query(dataset.Min, dataset.Rect1(0, 25)); err == nil {
					t.Errorf("%s: MIN should return an unsupported-aggregate error", name)
				}
			}
		})
	}
}

// TestConformanceConcurrentBatches hammers each engine with concurrent
// batched workloads; under -race (CI) this verifies queries are
// shared-state safe.
func TestConformanceConcurrentBatches(t *testing.T) {
	d := confDataset(t)
	qs := confWorkload()
	for kind, e := range buildAll(t, d) {
		t.Run(kind, func(t *testing.T) {
			want := e.QueryBatch(qs)
			var wg sync.WaitGroup
			errs := make(chan error, 4)
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for rep := 0; rep < 3; rep++ {
						got := e.QueryBatch(qs)
						for i := range got {
							if (got[i].Err == nil) != (want[i].Err == nil) {
								errs <- fmt.Errorf("query %d: err mismatch across concurrent batches", i)
								return
							}
							if got[i].Err == nil && got[i].Result.Estimate != want[i].Result.Estimate {
								errs <- fmt.Errorf("query %d: %v != %v under concurrency",
									i, got[i].Result.Estimate, want[i].Result.Estimate)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestCapabilitySplit documents which engines expose the optional
// capability interfaces: PASS is Updatable, Serializable, Grouper and
// Sized; the sampling baselines US and ST are Serializable and Sized
// (plain sample arrays persist trivially) but query-only otherwise; the
// model-based comparators have no optional capability at all. Sharded
// engines carry the update/grouping/sharding surfaces (erroring at call
// time when an inner engine lacks the ability) but deliberately not the
// single-stream Serializable — they persist per shard through the store's
// manifest path.
func TestCapabilitySplit(t *testing.T) {
	d := confDataset(t)
	engines := buildAll(t, d)
	for kind, e := range engines {
		_, upd := e.(engine.Updatable)
		_, ser := e.(engine.Serializable)
		_, grp := e.(engine.Grouper)
		_, shr := e.(engine.Sharded)
		_, skt := engine.Underlying(e).(engine.Sketcher)
		if isSharded := strings.HasPrefix(kind, "sharded:"); isSharded {
			// sharded engines carry the Sketcher surface too, erroring at
			// call time when an inner engine keeps no sketches
			if !upd || !grp || !shr || !skt || ser {
				t.Errorf("%s: capabilities updatable=%v grouper=%v sharded=%v sketcher=%v serializable=%v, want t/t/t/t/f",
					kind, upd, grp, shr, skt, ser)
			}
			continue
		}
		isPass := kind == "pass"
		isSampling := isPass || kind == "us" || kind == "st"
		if upd != isPass || grp != isPass || skt != isPass {
			t.Errorf("%s: capabilities updatable=%v grouper=%v sketcher=%v, want all %v", kind, upd, grp, skt, isPass)
		}
		if ser != isSampling {
			t.Errorf("%s: serializable=%v, want %v", kind, ser, isSampling)
		}
		if shr {
			t.Errorf("%s: unsharded engine claims sharded", kind)
		}
	}
	// every serializable engine must have a registered loader, or a
	// snapshot written today is unreadable tomorrow
	for kind, e := range engines {
		if _, ok := e.(engine.Serializable); !ok {
			continue
		}
		if _, ok := factory.Loader(e.Name()); !ok {
			t.Errorf("%s: engine %q is Serializable but has no factory loader", kind, e.Name())
		}
	}
}

// TestConformanceGroupBy drives every Grouper engine through the GROUP BY
// contract: each group's result must be consistent with a per-group Query
// over the group-equality rectangle (how Section 4.5 defines grouping),
// bad dimensions and empty group lists must error rather than panic, and
// engines whose inner layers cannot group must say so with an error.
func TestConformanceGroupBy(t *testing.T) {
	d := confDataset(t)
	q := dataset.Rect1(0, 30)
	groups := []float64{3, 9, 21}
	for kind, e := range buildAll(t, d) {
		g, ok := engine.Underlying(e).(engine.Grouper)
		if !ok {
			continue
		}
		t.Run(kind, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s panicked in GroupBy: %v", kind, r)
				}
			}()
			res, err := g.GroupBy(dataset.Sum, q, 0, groups)
			mustGroup := kind == "pass" || strings.HasPrefix(kind, "sharded:pass")
			if err != nil {
				if mustGroup {
					t.Fatalf("GroupBy failed on a grouping engine: %v", err)
				}
				return // inner engine cannot group; erroring is the contract
			}
			if len(res) != len(groups) {
				t.Fatalf("%d group results for %d groups", len(res), len(groups))
			}
			for i, gr := range res {
				if gr.Group != groups[i] {
					t.Fatalf("group key %v at position %d, want %v", gr.Group, i, groups[i])
				}
				want, qerr := e.Query(dataset.Sum, dataset.Rect1(groups[i], groups[i]))
				if qerr != nil {
					t.Fatalf("per-group query: %v", qerr)
				}
				if gr.Result.NoMatch != want.NoMatch {
					t.Errorf("group %v: NoMatch %v but per-group query says %v", gr.Group, gr.Result.NoMatch, want.NoMatch)
					continue
				}
				if diff := gr.Result.Estimate - want.Estimate; diff > 1e-9 || diff < -1e-9 {
					t.Errorf("group %v: estimate %v != per-group query %v", gr.Group, gr.Result.Estimate, want.Estimate)
				}
			}
			// bad inputs error, never panic
			if _, err := g.GroupBy(dataset.Sum, q, -1, groups); err == nil {
				t.Error("negative group dimension should error")
			}
			if _, err := g.GroupBy(dataset.Sum, q, 99, groups); err == nil {
				t.Error("out-of-range group dimension should error")
			}
			if _, err := g.GroupBy(dataset.Sum, q, 0, nil); err == nil {
				t.Error("empty group list should error")
			}
		})
	}
}

func TestSequentialBatchAdapter(t *testing.T) {
	d := confDataset(t)
	e, err := factory.Build("us", d, factory.Spec{SampleSize: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	out := engine.SequentialBatch(e, nil)
	if len(out) != 0 {
		t.Errorf("empty batch returned %d results", len(out))
	}
	qs := []core.BatchQuery{{Kind: dataset.Sum, Rect: dataset.Rect1(0, 25)}}
	got := engine.SequentialBatch(e, qs)
	if len(got) != 1 || got[0].Err != nil || got[0].Elapsed < 0 {
		t.Errorf("SequentialBatch = %+v", got)
	}
}

func TestRenameForwardsAndUnwraps(t *testing.T) {
	d := confDataset(t)
	e, err := factory.Build("pass", d, factory.Spec{Partitions: 8, SampleSize: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := engine.Rename(e, "PASS-XL")
	if r.Name() != "PASS-XL" {
		t.Errorf("Name = %q", r.Name())
	}
	if r.MemoryBytes() != e.MemoryBytes() {
		t.Error("Rename must forward MemoryBytes")
	}
	if engine.Underlying(r) != e {
		t.Error("Underlying should unwrap Rename")
	}
	if engine.Underlying(e) != e {
		t.Error("Underlying of an unwrapped engine is itself")
	}
	if _, ok := engine.Underlying(r).(engine.Updatable); !ok {
		t.Error("capabilities reachable through Underlying")
	}
}
