// Package engine defines the common interface implemented by every AQP
// system in this repository — the PASS synopsis (internal/core) and the
// comparators US, ST (internal/baselines), AQP++ (internal/aqpp),
// VerdictDB (internal/verdictdb) and DeepDB (internal/deepdb) — plus the
// optional capability interfaces that expose mutation (Updatable,
// ConcurrentUpdatable), persistence (Serializable), grouping (Grouper),
// sketches (Sketcher), cardinality (Sized), deadline-aware execution
// (ContextQuerier — one batched method, since a single query is a batch of
// one, reached through the QueryBatchCtx adapter) and sharding (Sharded —
// topology, routing, executor statistics and the strict-scatter switch)
// where an engine supports them.
//
// The package is the middle layer of the repository's architecture:
//
//	sqlfe (SQL frontend) → pass.Session / internal/catalog → engine → implementations
//
// Everything above this layer (the SQL session, the catalog, the
// benchmark harness, the serving binaries) is written against Engine and
// the capability interfaces, never against a concrete implementation, so
// new backends plug in without touching the upper layers.
package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/sketch"
)

// ErrNotSerializable is returned (wrapped, with engine and table context)
// when persistence is requested of an engine without the Serializable
// capability — one of the comparator engines. Every PASS synopsis, 1D or
// k-d, sharded or not, is serializable.
var ErrNotSerializable = errors.New("engine is not serializable")

// Engine is the interface every AQP system implements: single queries
// plus whole-workload batched execution. Engines with an internally
// parallel synopsis (PASS) fan batches across the worker pool; the
// sampling baselines satisfy the contract with SequentialBatch. In both
// cases batched answers must be identical to issuing the same queries
// sequentially through Query.
type Engine interface {
	// Name identifies the engine in benchmark tables and catalog listings.
	Name() string
	// Query answers one aggregate over a rectangular predicate.
	Query(kind dataset.AggKind, q dataset.Rect) (core.Result, error)
	// MemoryBytes is the synopsis storage footprint.
	MemoryBytes() int
	// QueryBatch answers a workload of queries, returning results in
	// input order.
	QueryBatch(qs []core.BatchQuery) []core.BatchResult
}

// Updatable is the optional mutation capability: engines whose synopsis
// can absorb inserts and deletes without a rebuild. Updates require
// exclusive access — they must not overlap with queries (the catalog
// layer serialises them behind a per-table RWMutex).
type Updatable interface {
	Insert(point []float64, value float64) error
	Delete(point []float64, value float64) error
}

// Updater returns e's update capability: its Underlying engine as
// Updatable, or false when e takes no updates. A multi-dimensional PASS
// synopsis has the methods but no maintenance path for its k-d tree, so
// neither it nor a sharded engine over such synopses counts; the catalog
// asks before it journals a write, so a write such a table refuses never
// reaches its log.
func Updater(e Engine) (Updatable, bool) {
	e = Underlying(e)
	u, ok := e.(Updatable)
	if !ok {
		return nil, false
	}
	inner := e
	if sh, ok := e.(Sharded); ok {
		inner = Underlying(sh.Shard(0)) // every shard has its engine's kind
	}
	if syn, ok := inner.(*core.Synopsis); ok && !syn.TakesUpdates() {
		return nil, false
	}
	return u, true
}

// Serializable is the optional persistence capability: engines whose
// synopsis persists to a compact binary format. Loading is
// constructor-shaped (it yields a new engine) and therefore lives with
// each implementation — core.Load for PASS — rather than on the
// interface; a Loader value adapts any of them to a uniform signature.
type Serializable interface {
	Save(w io.Writer) error
}

// Loader restores an engine written by a Serializable implementation's
// Save.
type Loader func(r io.Reader) (Engine, error)

// ConcurrentUpdatable is the capability of engines whose Insert/Delete are
// internally synchronised against concurrent queries — a sharded engine
// with per-shard locks, for example — so the serving layer may run updates
// under a shared (read) table lock instead of the exclusive one, and an
// update to one shard no longer blocks queries on the others. The catalog
// still serialises updates (write-order lock, exclusive apply) when a
// write-ahead journal is attached: journal ordering requires it.
type ConcurrentUpdatable interface {
	Updatable
	// ConcurrentUpdates is a marker asserting the internal
	// synchronisation; it performs no work.
	ConcurrentUpdates()
}

// Grouper is the optional GROUP BY capability: one aggregate per group
// key over a shared predicate (PASS Section 4.5).
type Grouper interface {
	GroupBy(kind dataset.AggKind, q dataset.Rect, dim int, groups []float64) ([]core.GroupResult, error)
}

// ContextQuerier is the optional deadline-aware query capability: engines
// that can observe a context's deadline/cancellation mid-query — today the
// scatter-gather shard engine, which drops shards that exceed the deadline
// and merges the rest into a degraded partial answer. It has one method
// because a single query is a batch of one. Engines without the
// capability run to completion once admitted.
type ContextQuerier interface {
	// QueryBatchCtx answers a workload, observing ctx, results in input
	// order. Implementations may return a partial (Result.Degraded) answer
	// when ctx expires mid-query, or an error wrapping ctx.Err() when
	// nothing useful was computed.
	QueryBatchCtx(ctx context.Context, qs []core.BatchQuery) []core.BatchResult
}

// QueryBatchCtx runs a workload on e under ctx. An already-done context
// fails every query with ctx.Err() before any work starts, so every engine
// gets fail-fast admission; past that, a ContextQuerier observes ctx
// mid-flight and any other engine runs QueryBatch to completion.
func QueryBatchCtx(ctx context.Context, e Engine, qs []core.BatchQuery) []core.BatchResult {
	if err := ctx.Err(); err != nil {
		out := make([]core.BatchResult, len(qs))
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	if cq, ok := Underlying(e).(ContextQuerier); ok {
		return cq.QueryBatchCtx(ctx, qs)
	}
	return QueryBatch(e, qs)
}

// QueryBatch answers qs on e. A batch of one goes straight to Query, which
// answers identically without the engine's batch set-up (PASS's worker
// pool), so a single query read as a batch costs what Query costs.
func QueryBatch(e Engine, qs []core.BatchQuery) []core.BatchResult {
	if len(qs) == 1 {
		return SequentialBatch(e, qs)
	}
	return e.QueryBatch(qs)
}

// ShardInfo describes how a sharded engine partitions its data: the
// policy, the dimension it partitions on, the range cut points (range
// policy only), the per-shard bounding rectangles used for scatter
// pruning, and the shard count. It is everything a store manifest needs to
// rebuild the router at warm start.
type ShardInfo struct {
	// Policy is the partitioning policy name: "range" or "hash".
	Policy string
	// Dim is the predicate column the partitioner operates on.
	Dim int
	// Cuts are the range policy's ascending cut points: shard i owns keys
	// in [Cuts[i-1], Cuts[i]) with open ends at the extremes. Empty for
	// hash partitioning.
	Cuts []float64
	// Bounds[i] is shard i's bounding rectangle over all predicate
	// columns: a query rectangle disjoint from it cannot match any tuple
	// of the shard, so the scatter skips it.
	Bounds []dataset.Rect
	// Shards is the shard count.
	Shards int
}

// Sharded is the capability of engines that execute by scatter-gather over
// data partitions: the serving and storage layers use it to surface
// per-shard statistics, route updates, and persist each shard separately.
type Sharded interface {
	// ShardInfo describes the partitioning.
	ShardInfo() ShardInfo
	// Shard returns the inner engine serving shard i. Callers must not
	// query or mutate it while the sharded engine serves concurrent
	// traffic — it bypasses the per-shard locks; the serving layer uses
	// it only under the table's exclusive lock (checkpoints).
	Shard(i int) Engine
	// ShardRows reports each shard's base cardinality (0 where unknown),
	// internally synchronised against concurrent updates.
	ShardRows() []int
	// Route returns the shard that owns an update with the given
	// predicate point.
	Route(point []float64) (int, error)
	// ScatterStats snapshots the scatter executor's instrumentation.
	ScatterStats() ScatterStats
	// SetStrict selects what happens to a query when a shard it needs
	// errors or misses the deadline: dropped from the merge, the answer
	// marked Degraded (false, the default), or the query failed (true).
	SetStrict(strict bool)
}

// ScatterStats is a sharded engine's executor instrumentation since
// construction.
type ScatterStats struct {
	// Scattered[i] counts the queries shard i executed.
	Scattered []int64
	// Pruned counts the (query, shard) pairs skipped because the shard's
	// bounding rectangle was disjoint from the predicate.
	Pruned int64
	// Streamed counts the per-shard partials folded into answers.
	Streamed int64
}

// SnapshotShards serialises an engine the way storage persists one: as
// N ≥ 1 shard payloads plus the routing info that reassembles them. A
// Sharded engine yields one payload per shard; any other engine is the
// one-shard case — a single payload under an empty Policy, which the
// loader hands back as the engine itself. inner is the payloads' engine
// name (the factory loader key) and rows each shard's cardinality (0
// where unknown). The caller excludes concurrent updates.
func SnapshotShards(e Engine) (info ShardInfo, inner string, payloads [][]byte, rows []int, err error) {
	e = Underlying(e)
	parts := []Engine{e}
	info = ShardInfo{Shards: 1, Bounds: make([]dataset.Rect, 1)}
	if sh, ok := e.(Sharded); ok {
		info = sh.ShardInfo()
		parts = make([]Engine, info.Shards)
		for i := range parts {
			parts[i] = Underlying(sh.Shard(i))
		}
	}
	payloads = make([][]byte, len(parts))
	rows = make([]int, len(parts))
	for i, p := range parts {
		ser, ok := p.(Serializable)
		if !ok {
			return info, "", nil, nil, fmt.Errorf("shard %d (engine %s): %w", i, p.Name(), ErrNotSerializable)
		}
		var buf bytes.Buffer
		if err := ser.Save(&buf); err != nil {
			return info, "", nil, nil, fmt.Errorf("serialize shard %d (engine %s): %w", i, p.Name(), err)
		}
		payloads[i] = buf.Bytes()
		if sz, ok := p.(Sized); ok {
			rows[i] = sz.N()
		}
		inner = p.Name()
	}
	return info, inner, payloads, rows, nil
}

// Sketcher is the optional mergeable-sketch capability: engines that
// maintain the QUANTILE / COUNT DISTINCT / TOPK summaries
// (internal/sketch) over their aggregate column. Sketch queries carry no
// predicate — the summaries are table-global (per shard in a sharded
// engine, merged at gather time) — so the capability sits beside Query
// rather than extending it.
type Sketcher interface {
	// SketchQuery answers one sketch aggregate. An engine without sketch
	// state (a sharded engine over comparator shards) returns
	// sketch.ErrUnavailable.
	SketchQuery(q sketch.Query) (sketch.Result, error)
	// SketchSet exposes the engine's sketch state for merging by
	// composite engines (scatter-gather). Callers must treat the returned
	// set as read-only and must not retain it across updates; composite
	// engines clone before merging. Nil when the engine carries no
	// sketches.
	SketchSet() *sketch.Set
}

// Sized is the optional row-count capability, used by the catalog for
// table listings and skip-rate accounting.
type Sized interface {
	N() int
}

// SequentialBatch is the shared QueryBatch adapter for engines without a
// natively parallel synopsis: it executes the workload one query at a
// time in input order, recording per-query wall-clock latency. Engines
// embed it as a one-line method:
//
//	func (e *Engine) QueryBatch(qs []core.BatchQuery) []core.BatchResult {
//	    return engine.SequentialBatch(e, qs)
//	}
func SequentialBatch(e Engine, qs []core.BatchQuery) []core.BatchResult {
	out := make([]core.BatchResult, len(qs))
	for i, q := range qs {
		o := &out[i]
		start := time.Now()
		o.Result, o.Err = e.Query(q.Kind, q.Rect)
		o.Elapsed = time.Since(start)
	}
	return out
}

// renamed overrides an engine's display name, forwarding everything else.
type renamed struct {
	Engine
	name string
}

func (r renamed) Name() string { return r.name }

// Rename returns e presented under a different display name — used by the
// benchmark harness to distinguish configurations of the same engine
// (e.g. "PASS-BSS2x" vs "PASS-BSS10x"). Capability interfaces of the
// underlying engine are not forwarded; unwrap with Underlying if needed.
func Rename(e Engine, name string) Engine {
	return renamed{Engine: e, name: name}
}

// Wrapper is implemented by engines that decorate another engine
// (Rename, test fault/latency wrappers): Underlying returns the wrapped
// engine so capability checks reach it.
type Wrapper interface {
	Underlying() Engine
}

// Underlying follows the wrapper chain (Rename and any Wrapper) down to
// the base engine, so capability type-assertions (Updatable, Sized,
// ContextQuerier, ...) see the engine that actually implements them.
func Underlying(e Engine) Engine {
	// depth-bounded in case a wrapper cycles back to itself
	for i := 0; i < 32; i++ {
		switch w := e.(type) {
		case renamed:
			e = w.Engine
		case Wrapper:
			u := w.Underlying()
			if u == nil {
				return e
			}
			e = u
		default:
			return e
		}
	}
	return e
}
