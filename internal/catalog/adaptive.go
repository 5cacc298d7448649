package catalog

// Workload-adaptive serving hooks: the catalog is where queries and
// updates meet the per-table lock, so it is the one place that can feed a
// workload recorder and hot-swap an engine with airtight ordering against
// concurrent traffic. The hooks are interfaces defined here and
// implemented by internal/adaptive and the audit tap in pass, keeping the
// catalog free of their imports (mirroring the Journal/store split).
//
// # Generation discipline
//
// Every table carries a monotonically increasing generation counter.
// Updates and engine swaps bump it twice — once before the in-memory
// apply, once after — so a completed write advances it by exactly two and
// an odd reading means an apply is in flight. A journaled update bumps it
// only around the apply, under the exclusive state lock: its journal
// append comes first, under the write-order lock alone, and changes no
// in-memory state. No answer depends on the counter; its readers are the
// accuracy auditor's two sides:
//
//   - the stamp: QueryBatchCtx and SketchQuery read the generation
//     under the query's read lock and hand it to the recorder;
//   - the stale check: the exact re-execution over the retained rows
//     (pass/audit.go) reads the generation before and after its scan and
//     reports audit.ErrStale when the reading is odd or moved; the auditor
//     also skips a sample whose stamp differs from the re-execution's.
//
// Every apply holds the state lock exclusively, so no write overlaps a
// query: the stamp is even and names exactly the rows the answer saw.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sketch"
)

// QueryRecorder receives one observation per answered scalar query, with
// the result as returned to the client and the generation stamp it was
// answered at (see Generation discipline). Implemented by
// adaptive.Collector and the audit tap. Calls are made while the table's
// read lock is held and must not call back into the table.
type QueryRecorder interface {
	ObserveQuery(table string, kind dataset.AggKind, q dataset.Rect, r core.Result, n int, elapsed time.Duration, gen uint64)
}

// SketchRecorder is the optional sketch-family extension of
// QueryRecorder: recorders that also implement it receive one
// observation per served sketch query (QUANTILE, COUNT DISTINCT, TOPK),
// stamped with the generation it executed at. Calls are made while the
// table's read lock is held and must not call back into the table.
type SketchRecorder interface {
	ObserveSketch(table string, q sketch.Query, r sketch.Result, gen uint64)
}

// UpdateObserver is notified of every applied update, under the table's
// state lock, after the engine apply succeeds. The serving layer uses it
// to keep a retained base-data copy in lockstep with the engine, so a
// workload-driven rebuild starts from exactly the rows the engine holds.
type UpdateObserver interface {
	ObserveInsert(point []float64, value float64)
	ObserveDelete(point []float64, value float64)
}

// Gen returns the table's current update generation. It increases by two
// per completed update (and engine swap); an odd reading means an apply
// is in flight.
func (t *Table) Gen() uint64 { return t.gen.Load() }

// AttachAdaptive wires a query recorder under the table (nil detaches).
func (t *Table) AttachAdaptive(rec QueryRecorder) {
	t.mu.Lock()
	t.recorder = rec
	t.mu.Unlock()
}

// AttachObserver wires an update observer under the table (nil detaches).
func (t *Table) AttachObserver(o UpdateObserver) {
	t.mu.Lock()
	t.observer = o
	t.mu.Unlock()
}

// SwapEngine replaces the table's serving engine under the write-order
// lock and the exclusive state lock: prep receives the engine being
// replaced and returns its successor (typically a freshly rebuilt
// synopsis, plus any delta updates applied inside prep — no update can
// interleave, and a journaled update in flight is applied to the old
// engine first). The generation is bumped on both sides of the swap,
// like an update's, so an audit re-execution that overlaps it is skipped,
// and the plan generation is bumped so cached prepared statements
// recompile against the new engine. The schema is retained; the row
// count resyncs from the new engine.
func (t *Table) SwapEngine(prep func(old engine.Engine) (engine.Engine, error)) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
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
