// Package catalog is the multi-table registry between the SQL frontend
// and the engine layer: a concurrency-safe map from table names to a
// serving engine plus the schema (column names and dictionaries) that SQL
// statements resolve against.
//
// Concurrency model: the catalog itself is guarded by one RWMutex for
// registration lookups, and every table carries two locks of its own. The
// state lock (an RWMutex) guards the in-memory engine: queries — single or
// batched — share it, so any number of them run concurrently and a batched
// workload still fans out across the worker pool inside the engine, while
// writers hold it exclusively only for the in-memory apply. The write-order
// lock orders updates, checkpoints and engine swaps against each other;
// journal appends (write + fsync) and checkpoint file I/O run under it
// alone, so readers never wait for the disk and other tables are never
// blocked.
//
// Two subsystems attach to a table through interfaces defined here, so
// the catalog imports neither: a durable store journals updates through
// Journal (write-ahead, under the write-order lock), and the
// workload-adaptive and audit layers observe served queries through
// QueryRecorder (see adaptive.go). SwapEngine hot-swaps a table's serving
// engine under both locks — the re-optimizer's path for replacing a
// synopsis with a workload-aligned rebuild.
package catalog

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/sqlfe"
)

// Journal is the write-ahead hook a durable store attaches to a table:
// Insert/Delete are called BEFORE the in-memory apply (classic WAL
// ordering — the update must be on disk before it is acknowledged), and
// Rollback undoes the most recent append if that apply then fails, so log
// and engine never diverge. Appends run under the table's write-order lock
// only, so the log order is the apply order while queries proceed; a
// Rollback (and InsertMany's re-journal) runs under the state lock too, so
// readers never see rows the log is about to drop.
// It is satisfied by store.ShardedTableLog; defining it here keeps the
// catalog free of store imports.
type Journal interface {
	Insert(point []float64, value float64) error
	Delete(point []float64, value float64) error
	// InsertMany journals a batch as one group commit (single write +
	// fsync, whatever shards the rows route to); a following Rollback
	// undoes the whole group.
	InsertMany(points [][]float64, values []float64) error
	Rollback() error
}

// Table is one registered table: an engine, its schema, and the locks that
// order queries and updates. rows is atomic so Rows reads it without a
// lock.
type Table struct {
	name string
	// wmu is the write-order lock: updates, CheckpointShards, SwapEngine
	// and AttachJournal take it before mu, so the journal and the engine
	// are stable under either lock.
	wmu     sync.Mutex
	mu      sync.RWMutex
	eng     engine.Engine
	schema  sqlfe.Schema
	rows    atomic.Int64
	journal Journal
	// gen is the update generation: bumped before and after the in-memory
	// apply of every update and engine swap. The auditor reads it to tell
	// whether an answer and its exact re-execution saw the same rows (see
	// adaptive.go).
	gen atomic.Uint64
	// planGen is the plan generation: bumped only when the serving engine
	// is swapped (SwapEngine), not on row updates — compiled plans resolve
	// column names and dictionaries against the schema, which updates never
	// change. It is half of the plan cache's validity pair (the other half
	// is the table's identity), so prepared statements survive inserts and
	// deletes but never outlive an engine swap.
	planGen atomic.Uint64
	// recorder observes served queries (AttachAdaptive); observer tracks
	// applied updates (AttachObserver). Both are optional.
	recorder QueryRecorder
	observer UpdateObserver
}

// Name returns the registered table name.
func (t *Table) Name() string { return t.name }

// PlanGen returns the table's plan generation (see planGen). Plan-cache
// entries stored under an older generation are stale.
func (t *Table) PlanGen() uint64 { return t.planGen.Load() }

// Schema returns the SQL-resolution schema. The returned value is shared
// and must be treated as read-only.
func (t *Table) Schema() sqlfe.Schema {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.schema
}

// EngineName reports the serving engine's display name.
func (t *Table) EngineName() string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.eng.Name()
}

// MemoryBytes reports the serving engine's synopsis footprint.
func (t *Table) MemoryBytes() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.eng.MemoryBytes()
}

// Rows reports the base-table cardinality the engine was built over, or 0
// when the engine does not expose it.
func (t *Table) Rows() int {
	return int(t.rows.Load())
}

// Query answers one aggregate under the table's read lock and reports
// the served query to the recorder, when one is attached (AttachAdaptive).
func (t *Table) Query(kind dataset.AggKind, q dataset.Rect) (core.Result, error) {
	return t.QueryCtx(context.Background(), kind, q)
}

// QueryCtx is Query with deadline propagation, answered as a batch of
// one (QueryBatchCtx).
func (t *Table) QueryCtx(ctx context.Context, kind dataset.AggKind, q dataset.Rect) (core.Result, error) {
	return t.QueryBatchCtx(ctx, []core.BatchQuery{{Kind: kind, Rect: q}})[0].Unpack()
}

// QueryBatch answers a whole workload under one read-lock acquisition;
// engines with a parallel synopsis fan it across the worker pool. Every
// answered query is reported to the recorder, when one is attached.
func (t *Table) QueryBatch(qs []core.BatchQuery) []core.BatchResult {
	return t.QueryBatchCtx(context.Background(), qs)
}

// QueryBatchCtx is QueryBatch with deadline propagation, and the table's
// one read body: a deadline-aware engine (engine.ContextQuerier — the
// scatter-gather executor) observes ctx mid-query and may mark individual
// results Degraded; other engines get a fail-fast admission check, so an
// already-expired ctx fails every query without touching the engine.
func (t *Table) QueryBatchCtx(ctx context.Context, qs []core.BatchQuery) []core.BatchResult {
	t.mu.RLock()
	defer t.mu.RUnlock()
	gen := t.gen.Load()
	out := engine.QueryBatchCtx(ctx, t.eng, qs)
	if rec := t.recorder; rec != nil {
		n := t.Rows()
		for i, br := range out {
			if br.Err == nil {
				rec.ObserveQuery(t.name, qs[i].Kind, qs[i].Rect, br.Result, n, br.Elapsed, gen)
			}
		}
	}
	return out
}

// GroupBy answers one aggregate per group key, when the engine supports
// grouping (engine.Grouper).
func (t *Table) GroupBy(kind dataset.AggKind, q dataset.Rect, dim int, groups []float64) ([]core.GroupResult, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	g, ok := engine.Underlying(t.eng).(engine.Grouper)
	if !ok {
		return nil, fmt.Errorf("catalog: engine %s of table %q does not support GROUP BY", t.eng.Name(), t.name)
	}
	return g.GroupBy(kind, q, dim, groups)
}

// SketchQuery answers a sketch-family aggregate (QUANTILE, COUNT
// DISTINCT, TOPK) under the table's read lock, when the engine maintains
// mergeable sketches (engine.Sketcher). Sketch answers reach only a
// recorder that also implements SketchRecorder (the audit tap): the
// workload collector speaks core.Result over rectangles, and sketch
// queries have no predicate to observe.
func (t *Table) SketchQuery(q sketch.Query) (sketch.Result, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	sk, ok := engine.Underlying(t.eng).(engine.Sketcher)
	if !ok {
		return sketch.Result{}, fmt.Errorf("catalog: engine %s of table %q does not support %s: %w",
			t.eng.Name(), t.name, q.Kind, sketch.ErrUnavailable)
	}
	gen := t.gen.Load()
	r, err := sk.SketchQuery(q)
	if err == nil {
		if rec, isSketch := t.recorder.(SketchRecorder); isSketch {
			rec.ObserveSketch(t.name, q, r, gen)
		}
	}
	return r, err
}

// AttachJournal wires a write-ahead journal under the table: every
// subsequent Insert/Delete is logged before the in-memory apply, making
// updates crash-recoverable. Pass nil to detach.
func (t *Table) AttachJournal(j Journal) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	t.mu.Lock()
	t.journal = j
	t.mu.Unlock()
}

// update is the one body of Insert, Delete and InsertMany, when the engine
// takes updates (engine.Updater). journal appends the update to an
// attached journal; apply changes the engine, notifies the observer and
// returns the row delta.
//
// Every update takes the write-order lock, journals (write + fsync) under
// it alone, and then holds the state lock exclusively just for the apply:
// the log order is the apply order, and an ack follows both durability
// and apply, but readers never wait for the disk.
func (t *Table) update(op string, check func(engine.Engine) error, journal func(Journal) error, apply func(engine.Updatable) (int, error)) (int, error) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	// asked before the journal: a write the engine refuses is never logged
	u, ok := engine.Updater(t.eng)
	if !ok {
		return 0, fmt.Errorf("catalog: engine %s of table %q does not support updates", t.eng.Name(), t.name)
	}
	if check != nil {
		// writers hold wmu, so the state it reads cannot change under it
		if err := check(t.eng); err != nil {
			return 0, fmt.Errorf("catalog: %s %q: %w", op, t.name, err)
		}
	}
	if t.journal != nil {
		if err := journal(t.journal); err != nil {
			return 0, fmt.Errorf("catalog: journal %s %q: %w", op, t.name, err)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// generation discipline: bump before applying and again after, so the
	// auditor can tell a write overlapped its re-execution (adaptive.go)
	t.gen.Add(1)
	defer t.gen.Add(1)
	delta, err := apply(u)
	t.resyncRows(delta)
	return delta, err
}

// Insert adds one tuple (see update). With a journal attached the tuple is
// logged first; a failed in-memory apply rolls the log entry back.
func (t *Table) Insert(point []float64, value float64) error {
	_, err := t.update("insert into", nil, func(j Journal) error { return j.Insert(point, value) },
		func(u engine.Updatable) (int, error) {
			if err := u.Insert(point, value); err != nil {
				return 0, t.unjournal(err)
			}
			if t.observer != nil {
				t.observer.ObserveInsert(point, value)
			}
			return 1, nil
		})
	return err
}

// Delete removes one tuple (see update). Journaling mirrors Insert. A
// delete the engine can tell matches no row (engine.CheckDelete) is
// refused before the journal, with an error wrapping core.ErrNoSuchRow.
func (t *Table) Delete(point []float64, value float64) error {
	_, err := t.update("delete from",
		func(e engine.Engine) error { return engine.CheckDelete(e, point, value) },
		func(j Journal) error { return j.Delete(point, value) },
		func(u engine.Updatable) (int, error) {
			if err := u.Delete(point, value); err != nil {
				return 0, t.unjournal(err)
			}
			if t.observer != nil {
				t.observer.ObserveDelete(point, value)
			}
			return -1, nil
		})
	return err
}

// InsertMany adds a batch of tuples under one lock acquisition with one
// group-committed journal append (single fsync instead of one per row).
// It returns how many tuples were applied; on a mid-batch engine failure
// the journal is rewound to exactly the applied prefix before the state
// lock is released, so log and engine stay in step.
func (t *Table) InsertMany(points [][]float64, values []float64) (int, error) {
	if len(points) != len(values) {
		return 0, fmt.Errorf("catalog: InsertMany got %d points for %d values", len(points), len(values))
	}
	if len(points) == 0 {
		return 0, nil
	}
	return t.update("batch insert into", nil, func(j Journal) error { return j.InsertMany(points, values) },
		func(u engine.Updatable) (int, error) {
			for i := range points {
				if err := u.Insert(points[i], values[i]); err != nil {
					// rewind the whole group, then re-journal the applied prefix
					// so the log matches the in-memory state exactly
					if t.journal != nil {
						if rerr := t.journal.Rollback(); rerr != nil {
							return i, fmt.Errorf("catalog: apply failed at row %d (%v) and journal rollback failed for %q: %w", i, err, t.name, rerr)
						}
						if i > 0 {
							if rerr := t.journal.InsertMany(points[:i], values[:i]); rerr != nil {
								return i, fmt.Errorf("catalog: apply failed at row %d (%v) and re-journaling the applied prefix failed for %q: %w", i, err, t.name, rerr)
							}
						}
					}
					return i, fmt.Errorf("catalog: insert row %d into %q: %w", i, t.name, err)
				}
				if t.observer != nil {
					t.observer.ObserveInsert(points[i], values[i])
				}
			}
			return len(points), nil
		})
}

// unjournal rolls back the last journal append after a failed in-memory
// apply, combining both errors if the rollback itself fails. Callers hold
// both locks, so no reader sees the engine while the log is rewound.
func (t *Table) unjournal(applyErr error) error {
	if t.journal == nil {
		return applyErr
	}
	if rerr := t.journal.Rollback(); rerr != nil {
		return fmt.Errorf("catalog: apply failed (%v) and journal rollback failed for %q: %w", applyErr, t.name, rerr)
	}
	return applyErr
}

// resyncRows refreshes the cached cardinality after an update; callers
// hold the state lock exclusively. Engines that track their own size are
// authoritative; others get the guarded delta.
func (t *Table) resyncRows(delta int) {
	if sz, ok := engine.Underlying(t.eng).(engine.Sized); ok {
		t.rows.Store(int64(sz.N()))
		return
	}
	if int(t.rows.Load())+delta >= 0 {
		t.rows.Add(int64(delta))
	}
}

// Save persists the table's synopsis under the read lock, when the engine
// is serializable (engine.Serializable). Non-serializable engines return
// an error wrapping engine.ErrNotSerializable.
func (t *Table) Save(w io.Writer) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s, ok := engine.Underlying(t.eng).(engine.Serializable)
	if !ok {
		return fmt.Errorf("catalog: table %q (engine %s): %w", t.name, t.eng.Name(), engine.ErrNotSerializable)
	}
	return s.Save(w)
}

// CheckpointShards captures a consistent cut of the table and hands it to
// flush as N ≥ 1 serialised shards plus the routing info for the manifest
// (engine.SnapshotShards: an unsharded engine is the one-shard case). The
// cut is taken under the exclusive state lock; flush then runs under the
// write-order lock alone. Readers proceed during flush's file I/O, but
// updates wait for it, so no update can slip between the serialization and
// whatever flush does with it (write the manifest and snapshots, truncate
// the WAL). This is the atomicity anchor of the durable-store checkpoint
// protocol.
func (t *Table) CheckpointShards(flush func(info engine.ShardInfo, innerEngine string, schema sqlfe.Schema, payloads [][]byte, shardRows []int, rows int) error) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	t.mu.Lock()
	info, inner, payloads, shardRows, err := engine.SnapshotShards(t.eng)
	schema, rows := t.schema, int(t.rows.Load())
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("catalog: table %q: %w", t.name, err)
	}
	return flush(info, inner, schema, payloads, shardRows, rows)
}

// ShardStats reports a sharded table's partitioning, per-shard
// cardinalities and scatter-path instrumentation — how many queries each
// shard executed, how many (query, shard) pairs pruning skipped, how many
// partials were folded — or ok=false for unsharded tables.
func (t *Table) ShardStats() (info engine.ShardInfo, shardRows []int, scatter engine.ScatterStats, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	sh, isSharded := engine.Underlying(t.eng).(engine.Sharded)
	if !isSharded {
		return engine.ShardInfo{}, nil, engine.ScatterStats{}, false
	}
	return sh.ShardInfo(), sh.ShardRows(), sh.ScatterStats(), true
}

// ErrExists tags a Register call that lost to an earlier registration of
// the same name — the one catalog failure that genuinely is a conflict,
// so serving layers can map it to 409 and everything else to 5xx.
var ErrExists = errors.New("table already registered")

// ErrUnknownTable tags a Lookup or Drop of a name no table is registered
// under, so serving layers can map it to 404 and everything else to 5xx.
var ErrUnknownTable = errors.New("unknown table")

// Catalog is a named-table registry safe for concurrent use.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Register adds a table under name. Names are case-insensitive and must
// be unique; Drop an existing table to replace it.
func (c *Catalog) Register(name string, e engine.Engine, schema sqlfe.Schema) (*Table, error) {
	if strings.TrimSpace(name) == "" {
		return nil, fmt.Errorf("catalog: table name must not be empty")
	}
	if e == nil {
		return nil, fmt.Errorf("catalog: table %q needs an engine", name)
	}
	t := &Table{name: name, eng: e, schema: schema}
	if sz, ok := engine.Underlying(e).(engine.Sized); ok {
		t.rows.Store(int64(sz.N()))
	}
	key := strings.ToLower(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[key]; dup {
		return nil, fmt.Errorf("catalog: table %q: %w", name, ErrExists)
	}
	c.tables[key] = t
	return t, nil
}

// Lookup resolves a table name (case-insensitively). Unknown names return
// an error listing the registered tables, so a typo in a FROM clause is
// diagnosable rather than silently accepted.
func (c *Catalog) Lookup(name string) (*Table, error) {
	c.mu.RLock()
	t, ok := c.tables[strings.ToLower(name)]
	c.mu.RUnlock()
	if !ok {
		known := c.List()
		names := make([]string, len(known))
		for i, kt := range known {
			names[i] = kt.Name()
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("catalog: %w %q (no tables registered)", ErrUnknownTable, name)
		}
		return nil, fmt.Errorf("catalog: %w %q (have %s)", ErrUnknownTable, name, strings.Join(names, ", "))
	}
	return t, nil
}

// Drop removes a table by name.
func (c *Catalog) Drop(name string) error {
	key := strings.ToLower(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[key]; !ok {
		return fmt.Errorf("catalog: %w %q", ErrUnknownTable, name)
	}
	delete(c.tables, key)
	return nil
}

// List returns the registered tables in deterministic order: sorted
// case-insensitively (names are case-insensitive everywhere else in the
// catalog), so listings and unknown-table error messages are stable
// across runs regardless of registration order or name casing.
func (c *Catalog) List() []*Table {
	c.mu.RLock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		return strings.ToLower(out[i].name) < strings.ToLower(out[j].name)
	})
	return out
}
