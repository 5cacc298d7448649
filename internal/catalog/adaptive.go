package catalog

// Workload-adaptive serving hooks: the catalog is where queries and
// updates meet the per-table lock, so it is the one place that can feed a
// workload collector, consult a result cache, and hot-swap an engine with
// airtight ordering against concurrent traffic. The hooks are interfaces
// defined here and implemented by internal/adaptive, keeping the catalog
// free of adaptive imports (mirroring the Journal/store split).
//
// # Generation discipline
//
// Every table carries a monotonically increasing generation counter.
// Updates bump it twice — once before journaling/applying, once after —
// and queries read it under the same lock they execute under. A cached
// result is keyed by the generation its query executed at, and lookups
// key by the current generation, so:
//
//   - after any completed update, lookups use a generation strictly
//     greater than anything cached before or during the update — stale
//     answers are unreachable by construction, with no invalidation scan;
//   - while an update is in flight on the shared-lock path (internally
//     synchronised engines), the first bump has already moved the
//     generation, so results computed concurrently with the update can
//     be stored but never served once the update completes (the second
//     bump moves past them too).
//
// On the default exclusive-lock update path the double bump is merely
// redundant; on the shared-lock path it is what makes "a cached answer
// never survives a write it does not reflect" a structural guarantee
// rather than a timing assumption.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sketch"
)

// QueryRecorder receives one observation per served scalar query — both
// engine-executed and cache-served — with the result as returned to the
// client. Implemented by adaptive.Collector. Calls are made while the
// table's read lock is held and must not call back into the table.
type QueryRecorder interface {
	ObserveQuery(table string, kind dataset.AggKind, q dataset.Rect, r core.Result, n int, elapsed time.Duration, cacheHit bool)
}

// SketchRecorder is the optional sketch-family extension of
// QueryRecorder: recorders that also implement it receive one
// observation per served sketch query (QUANTILE, COUNT DISTINCT, TOPK),
// stamped with the generation it executed at. Calls are made while the
// table's read lock is held and must not call back into the table.
type SketchRecorder interface {
	ObserveSketch(table string, q sketch.Query, r sketch.Result, gen uint64)
}

// ResultCache answers repeated scalar queries without touching the
// engine. Implemented by adaptive.Cache. Lookup and Store are called
// under the table's read lock with the generation the query executes at;
// the implementation must be safe for concurrent use.
type ResultCache interface {
	Lookup(table string, gen uint64, kind dataset.AggKind, q dataset.Rect) (core.Result, bool)
	Store(table string, gen uint64, kind dataset.AggKind, q dataset.Rect, r core.Result)
	Forget(table string)
}

// UpdateObserver is notified of every applied update, under the table's
// update lock, after the engine apply succeeds. The serving layer uses it
// to keep a retained base-data copy in lockstep with the engine, so a
// workload-driven rebuild starts from exactly the rows the engine holds.
type UpdateObserver interface {
	ObserveInsert(point []float64, value float64)
	ObserveDelete(point []float64, value float64)
}

// Gen returns the table's current update generation. It increases by two
// per completed update (and engine swap); an odd reading means an update
// is in flight on the shared-lock path.
func (t *Table) Gen() uint64 { return t.gen.Load() }

// AttachAdaptive wires a workload recorder and/or result cache under the
// table. Either may be nil; pass both nil to detach.
func (t *Table) AttachAdaptive(rec QueryRecorder, cache ResultCache) {
	t.mu.Lock()
	t.recorder = rec
	t.cache = cache
	t.mu.Unlock()
}

// AttachObserver wires an update observer under the table (nil detaches).
func (t *Table) AttachObserver(o UpdateObserver) {
	t.mu.Lock()
	t.observer = o
	t.mu.Unlock()
}

// SwapEngine replaces the table's serving engine under the exclusive
// lock: prep receives the engine being replaced and returns its
// successor (typically a freshly rebuilt synopsis, plus any delta
// updates applied inside prep — no update can interleave, the lock is
// held). The generation is bumped on both sides of the swap, so cached
// results for the old engine become unreachable, and the plan generation
// is bumped so cached prepared statements recompile against the new
// engine. The schema is retained; the row count resyncs from the new
// engine.
func (t *Table) SwapEngine(prep func(old engine.Engine) (engine.Engine, error)) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gen.Add(1)
	defer t.gen.Add(1)
	t.planGen.Add(1)
	e, err := prep(t.eng)
	if err != nil {
		return fmt.Errorf("catalog: swap engine of table %q: %w", t.name, err)
	}
	if e == nil {
		return fmt.Errorf("catalog: swap engine of table %q: prep returned nil", t.name)
	}
	t.eng = e
	if sz, ok := engine.Underlying(e).(engine.Sized); ok {
		t.rows.Store(int64(sz.N()))
	}
	return nil
}
