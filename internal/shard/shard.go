package shard

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/merge"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sketch"
)

// Engine is a sharded engine.Engine: N inner engines, one per data shard,
// queried by scatter-gather. Queries prune shards whose bounding
// rectangle is disjoint from the predicate, run the remainder on a
// goroutine each, and combine the partial results with internal/merge;
// updates route to the single owning shard under that shard's write lock,
// so they serialise only against queries touching the same shard.
//
// Engine implements the ContextQuerier, Updatable, ConcurrentUpdatable,
// Grouper, Sketcher, Sized and Sharded capabilities (update capabilities surface errors at call
// time when the inner engines lack them). It deliberately does not
// implement the single-stream Serializable: a sharded table persists as
// one snapshot+WAL pair per shard plus a manifest (internal/store).
type Engine struct {
	inner []engine.Engine
	// locks[i] orders shard i's updates against queries scattered to it.
	locks []sync.RWMutex
	// boundsMu guards info.Bounds: inserts routed outside a shard's
	// current bounding rectangle expand it (otherwise the scatter would
	// wrongly prune the shard for the inserted key), while every query
	// reads the bounds to prune.
	boundsMu sync.RWMutex
	info     engine.ShardInfo
	name     string
	// rows[i] is shard i's base cardinality (0 where the inner engine does
	// not expose it), refreshed by update under the shard's write lock, so
	// the degrade path reads it without waiting on any shard's lock — least
	// of all the lock of the slow shard it is abandoning.
	rows []atomic.Int64
	// scattered[i] counts queries executed on shard i — the executor's
	// instrumentation: tests assert pruned shards stay at zero, and the
	// serving layer surfaces the counters as shard stats.
	scattered []atomic.Int64
	pruned    atomic.Int64
	// streamed counts the per-shard partials folded into answers.
	streamed atomic.Int64
	// strict makes queries fail outright instead of degrading to a partial
	// merge when a shard errors or misses the deadline.
	strict atomic.Bool
}

// BuildFunc constructs the inner engine of one shard.
type BuildFunc func(shard int, d *dataset.Dataset) (engine.Engine, error)

// Build splits d with the given policy and constructs one inner engine
// per shard, concurrently on the worker pool.
func Build(d *dataset.Dataset, policy Policy, dim, n int, build BuildFunc) (*Engine, error) {
	parts, info, err := Split(d, policy, dim, n)
	if err != nil {
		return nil, err
	}
	inners := make([]engine.Engine, len(parts))
	errs := make([]error, len(parts))
	parallel.For(len(parts), func(i int) {
		inners[i], errs[i] = build(i, parts[i])
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard: build shard %d/%d: %w", i, len(parts), err)
		}
	}
	return New(inners, info)
}

// New assembles a sharded engine from prebuilt inner engines and routing
// metadata — the warm-start path, where each inner engine was restored
// from its own snapshot and the info comes from the shard manifest.
func New(inners []engine.Engine, info engine.ShardInfo) (*Engine, error) {
	if len(inners) == 0 {
		return nil, fmt.Errorf("shard: no inner engines")
	}
	if info.Shards != len(inners) {
		return nil, fmt.Errorf("shard: %d inner engines but ShardInfo.Shards = %d", len(inners), info.Shards)
	}
	if info.Dim < 0 {
		return nil, fmt.Errorf("shard: negative partition dimension %d", info.Dim)
	}
	if len(info.Bounds) != len(inners) {
		return nil, fmt.Errorf("shard: %d inner engines but %d bounding rectangles", len(inners), len(info.Bounds))
	}
	if p, err := ParsePolicy(info.Policy); err != nil {
		return nil, err
	} else if p == Range && len(info.Cuts) != len(inners)-1 {
		return nil, fmt.Errorf("shard: %d inner engines need %d range cuts, have %d", len(inners), len(inners)-1, len(info.Cuts))
	}
	for i := 1; i < len(info.Cuts); i++ {
		if info.Cuts[i] <= info.Cuts[i-1] {
			return nil, fmt.Errorf("shard: range cuts must be strictly ascending")
		}
	}
	e := &Engine{
		inner:     inners,
		locks:     make([]sync.RWMutex, len(inners)),
		info:      info,
		name:      fmt.Sprintf("SHARDED[%s x%d]", inners[0].Name(), len(inners)),
		rows:      make([]atomic.Int64, len(inners)),
		scattered: make([]atomic.Int64, len(inners)),
	}
	for i := range inners {
		e.refreshRows(i)
	}
	return e, nil
}

// refreshRows re-reads shard i's cardinality from its inner engine. The
// caller excludes concurrent updates of the shard (construction, or the
// shard's write lock).
func (e *Engine) refreshRows(i int) {
	if sz, ok := engine.Underlying(e.inner[i]).(engine.Sized); ok {
		e.rows[i].Store(int64(sz.N()))
	}
}

// Name identifies the engine in catalog listings, e.g. "SHARDED[PASS x4]".
func (e *Engine) Name() string { return e.name }

// ShardInfo describes the partitioning (engine.Sharded). The bounding
// rectangles are deep-copied: they may grow as inserts land outside them.
func (e *Engine) ShardInfo() engine.ShardInfo {
	e.boundsMu.RLock()
	defer e.boundsMu.RUnlock()
	info := e.info
	info.Bounds = make([]dataset.Rect, len(e.info.Bounds))
	for i, b := range e.info.Bounds {
		info.Bounds[i] = dataset.Rect{
			Lo: append([]float64(nil), b.Lo...),
			Hi: append([]float64(nil), b.Hi...),
		}
	}
	return info
}

// Shard returns the inner engine serving shard i (engine.Sharded).
func (e *Engine) Shard(i int) engine.Engine { return e.inner[i] }

// Route returns the shard owning an update with the given predicate point
// (engine.Sharded).
func (e *Engine) Route(point []float64) (int, error) {
	if e.info.Dim >= len(point) {
		return 0, fmt.Errorf("shard: update point has %d coordinates but the table is partitioned on column %d", len(point), e.info.Dim)
	}
	v := point[e.info.Dim]
	if e.info.Policy == "hash" {
		return hashKey(v, len(e.inner)), nil
	}
	return routeRange(e.info.Cuts, v), nil
}

// ScatterStats snapshots the executor instrumentation since construction
// (engine.Sharded) — behind shard stats and the pruning tests.
func (e *Engine) ScatterStats() engine.ScatterStats {
	st := engine.ScatterStats{
		Scattered: make([]int64, len(e.scattered)),
		Pruned:    e.pruned.Load(),
		Streamed:  e.streamed.Load(),
	}
	for i := range e.scattered {
		st.Scattered[i] = e.scattered[i].Load()
	}
	return st
}

// ShardRows reports each shard's base cardinality (0 where the inner
// engine does not expose it) without taking any shard's lock.
func (e *Engine) ShardRows() []int {
	out := make([]int, len(e.rows))
	for i := range e.rows {
		out[i] = int(e.rows[i].Load())
	}
	return out
}

// N sums the shard cardinalities (engine.Sized), lock-free like ShardRows.
func (e *Engine) N() int {
	total := 0
	for i := range e.rows {
		total += int(e.rows[i].Load())
	}
	return total
}

// MemoryBytes sums the shard synopsis footprints.
func (e *Engine) MemoryBytes() int {
	total := 0
	for i, in := range e.inner {
		e.locks[i].RLock()
		total += in.MemoryBytes()
		e.locks[i].RUnlock()
	}
	return total
}

// disjoint reports whether q excludes every point of bounds.
func disjoint(q, bounds dataset.Rect) bool {
	n := q.Dims()
	if bn := bounds.Dims(); bn < n {
		n = bn
	}
	for c := 0; c < n; c++ {
		if q.Hi[c] < bounds.Lo[c] || q.Lo[c] > bounds.Hi[c] {
			return true
		}
	}
	return false
}

// emptyResult answers a query that scattered to zero shards: the
// predicate provably excludes the whole table (all n rows skipped).
// SUM/COUNT of an empty selection are exactly zero; AVG/MIN/MAX are
// undefined (NoMatch). Callers supply n so a batch of pruned queries
// computes the table cardinality once, not once per query.
func emptyResult(kind dataset.AggKind, q dataset.Rect, n int) (core.Result, error) {
	if q.Dims() == 0 {
		return core.Result{}, fmt.Errorf("shard: query rectangle has no dimensions")
	}
	switch kind {
	case dataset.Sum, dataset.Count:
		return core.Result{Exact: true, HardValid: true, SkippedTuples: n}, nil
	case dataset.Avg, dataset.Min, dataset.Max:
		return core.Result{NoMatch: true, SkippedTuples: n}, nil
	}
	return core.Result{}, fmt.Errorf("shard: unsupported aggregate %v", kind)
}

// appendClipped is the predicate pushdown at the routing layer: it appends
// to buf (see appendRect) and returns the rectangle a shard with bounding
// rectangle b actually scans for q — the intersection of the two, with any
// dimension on which the query covers the shard's whole extent relaxed to
// unconstrained, so the inner synopsis takes its covered-node and
// prefix-sum fast paths instead of filtering rows on a predicate every
// tuple of the shard satisfies wholesale. Both rewrites preserve the
// matched tuple set because every tuple of the shard lies inside its
// bounding rectangle (growBounds maintains the invariant across inserts;
// deletes only leave the bounds conservatively wide), and a shard is only
// scanned at all when the intersection is non-empty (routing pruned it
// otherwise). b is read under boundsMu or is a copy taken under it.
func appendClipped(buf []float64, q, b dataset.Rect) ([]float64, dataset.Rect) {
	buf, out := appendRect(buf, q)
	n := q.Dims()
	if bn := b.Dims(); bn < n {
		n = bn
	}
	for c := 0; c < n; c++ {
		if q.Lo[c] <= b.Lo[c] && q.Hi[c] >= b.Hi[c] {
			out.Lo[c], out.Hi[c] = math.Inf(-1), math.Inf(1)
			continue
		}
		if q.Lo[c] < b.Lo[c] {
			out.Lo[c] = b.Lo[c]
		}
		if q.Hi[c] > b.Hi[c] {
			out.Hi[c] = b.Hi[c]
		}
	}
	return buf, out
}

// appendRect copies r to the end of buf — its lower bounds, then its upper
// bounds — and returns the grown buffer and the copy, a view into it. A
// buffer with room for every rectangle it will hold is allocated once;
// one that has to grow leaves earlier views valid on the old array.
func appendRect(buf []float64, r dataset.Rect) ([]float64, dataset.Rect) {
	n := r.Dims()
	buf = append(append(buf, r.Lo...), r.Hi...)
	tail := buf[len(buf)-2*n:]
	return buf, dataset.Rect{Lo: tail[:n:n], Hi: tail[n:]}
}

// SetStrict switches the drop rule (see settle) between graceful
// degradation (default: shards that error or miss the deadline are
// dropped from the merge and the result is marked Degraded) and strict
// mode (any dropped shard fails the query) (engine.Sharded).
func (e *Engine) SetStrict(strict bool) { e.strict.Store(strict) }

// scatter is the executor under the query path: it runs task(k) for
// every k in [0, n) on a goroutine of its own and collects until every
// task has delivered or ctx is done. A context without a deadline has a
// nil Done channel, which never fires, so an undeadlined call simply
// waits for every shard. errs[k] is nil when out[k] arrived and ctx.Err()
// when task k was still running at the deadline; such stragglers are
// abandoned — they finish in the background and deliver into the
// buffered channel nobody reads. An already-expired ctx launches nothing.
func scatter(ctx context.Context, n int, task func(k int) []core.BatchResult) (out [][]core.BatchResult, errs []error) {
	type answer struct {
		k int
		v []core.BatchResult
	}
	out, errs = make([][]core.BatchResult, n), make([]error, n)
	answered := make([]bool, n)
	if ctx.Err() == nil {
		ch := make(chan answer, n) // one send per task, so none ever blocks
		for k := 0; k < n; k++ {
			go func(k int) { ch <- answer{k, task(k)} }(k)
		}
	collect:
		for pending := n; pending > 0; pending-- {
			select {
			case a := <-ch:
				out[a.k], answered[a.k] = a.v, true
			case <-ctx.Done():
				break collect
			}
		}
	}
	for k := range errs {
		if !answered[k] {
			errs[k] = ctx.Err()
		}
	}
	return out, errs
}

// settle finalizes one query's merge and is the drop rule: a relevant
// shard whose partial is missing for the query — it errored, or had not
// answered when ctx expired — is dropped. The merge over the shards that
// did answer is widened by merge.Degrade with the dropped shards'
// cardinalities so the reported uncertainty still covers the unseen data;
// in strict mode, or when no shard answered, the query fails with the
// first dropped shard's error instead. m holds the answered partials,
// folded in relevant-shard order.
func (e *Engine) settle(kind dataset.AggKind, m *merge.Merger, relevant int, droppedRows []int, cause error) (core.Result, error) {
	answered := relevant - len(droppedRows)
	e.streamed.Add(int64(answered))
	if len(droppedRows) > 0 {
		if e.strict.Load() {
			return core.Result{}, fmt.Errorf("shard: strict scatter: %d/%d shard(s) dropped: %w", len(droppedRows), relevant, cause)
		}
		if answered == 0 {
			return core.Result{}, fmt.Errorf("shard: no shard answered: %w", cause)
		}
	}
	out := m.Result()
	out.ShardsTotal, out.ShardsAnswered = relevant, answered
	merge.Degrade(kind, &out, droppedRows)
	return out, nil
}

// Query answers one aggregate with no deadline.
func (e *Engine) Query(kind dataset.AggKind, q dataset.Rect) (core.Result, error) {
	return e.QueryCtx(context.Background(), kind, q)
}

// QueryCtx answers one aggregate as a batch of one.
func (e *Engine) QueryCtx(ctx context.Context, kind dataset.AggKind, q dataset.Rect) (core.Result, error) {
	return e.QueryBatchCtx(ctx, []core.BatchQuery{{Kind: kind, Rect: q}})[0].Unpack()
}

// recordShardSpan attaches one shard's sub-batch diagnostics to its span
// and ends it: leaf and tuple counters summed over the answered queries,
// exact when all of them were, and the first error with a dropped mark
// when any query failed there. Runs on the shard goroutine; safe against
// a concurrent export of the parent tree.
func recordShardSpan(sp *obs.Span, res []core.BatchResult) {
	var read, skipped, covered, partial int64
	exact, answered, failed := true, false, false
	for _, br := range res {
		if br.Err != nil {
			if !failed {
				sp.Set("error", br.Err.Error())
				sp.Set("dropped", true)
				failed = true
			}
			continue
		}
		r := br.Result
		read, skipped = read+int64(r.TuplesRead), skipped+int64(r.SkippedTuples)
		covered, partial = covered+int64(r.CoveredParts), partial+int64(r.PartialParts)
		exact, answered = exact && r.Exact, true
	}
	if answered {
		sp.Set("tuples_read", read)
		sp.Set("tuples_skipped", skipped)
		sp.Set("leaf_exact", covered)
		sp.Set("leaf_sampled", partial)
		sp.Set("exact", exact)
	}
	sp.End()
}

// batchRouting is the scatter plan for one batch, routed under a single
// bounds lock into two flat index arenas instead of one slice per query
// and per shard — the routing step allocates O(1) slices regardless of
// batch size.
type batchRouting struct {
	// touchFlat/touchOff: query qi touches shards
	// touchFlat[touchOff[qi]:touchOff[qi+1]], in shard order.
	touchFlat []int
	touchOff  []int
	// subFlat/subOff: shard si answers queries
	// subFlat[subOff[si]:subOff[si+1]], in input order.
	subFlat []int
	subOff  []int
	// active lists the shards with at least one query.
	active []int
	// bounds is every shard's bounding rectangle as it was when the batch
	// was routed (a copy: inserts grow the live ones in place), so the
	// shard workers clip their sub-batches without touching boundsMu.
	bounds []dataset.Rect
}

func (r *batchRouting) touched(qi int) []int { return r.touchFlat[r.touchOff[qi]:r.touchOff[qi+1]] }
func (r *batchRouting) sub(si int) []int     { return r.subFlat[r.subOff[si]:r.subOff[si+1]] }

// routeBatch prunes every (query, shard) pair and copies the bounds under
// one bounds lock.
func (e *Engine) routeBatch(qs []core.BatchQuery) batchRouting {
	r := batchRouting{
		touchFlat: make([]int, 0, 2*len(qs)),
		touchOff:  make([]int, len(qs)+1),
		subOff:    make([]int, len(e.inner)+1),
		bounds:    make([]dataset.Rect, len(e.inner)),
	}
	pruned := int64(0)
	e.boundsMu.RLock()
	// one array backs every copied rectangle
	flat := make([]float64, 0, 2*e.info.Bounds[0].Dims()*len(e.inner))
	for si, b := range e.info.Bounds {
		flat, r.bounds[si] = appendRect(flat, b)
	}
	for qi := range qs {
		q := qs[qi].Rect
		for si, b := range e.info.Bounds {
			if disjoint(q, b) {
				pruned++
				continue
			}
			r.touchFlat = append(r.touchFlat, si)
		}
		r.touchOff[qi+1] = len(r.touchFlat)
	}
	e.boundsMu.RUnlock()
	e.pruned.Add(pruned)
	// invert: per-shard query lists, preserving input order
	counts := make([]int, len(e.inner))
	for _, si := range r.touchFlat {
		counts[si]++
	}
	for si, c := range counts {
		r.subOff[si+1] = r.subOff[si] + c
		if c > 0 {
			r.active = append(r.active, si)
		}
	}
	r.subFlat = make([]int, len(r.touchFlat))
	fill := counts // reuse as per-shard cursors
	for si := range fill {
		fill[si] = 0
	}
	for qi := range qs {
		for _, si := range r.touched(qi) {
			r.subFlat[r.subOff[si]+fill[si]] = qi
			fill[si]++
		}
	}
	return r
}

// QueryBatch answers a workload with no deadline.
func (e *Engine) QueryBatch(qs []core.BatchQuery) []core.BatchResult {
	return e.QueryBatchCtx(context.Background(), qs)
}

// QueryBatchCtx is the one read body of the sharded engine
// (engine.ContextQuerier): a single query is a batch of one. It answers a
// workload shard-first: each relevant shard executes its whole sub-batch
// in one pass (cache locality — the shard's synopsis stays hot while it
// answers every query routed to it), clipped to the shard's bounding
// rectangle, on a goroutine of its own (scatter); each query's partials
// then fold through one pooled accumulator in relevant-shard order — so
// an answer is bitwise independent of which shard finished first, traced
// or not, degraded or complete — and settle under the drop rule, so only
// the queries that touched a dropped shard degrade (or, strict, fail).
// Per-query Elapsed is the slowest answering shard's execution time, the
// critical path of the scatter.
//
// With a trace attached it records a "scatter" span whose counters run
// over (query, shard) pairs — a batch of one reports shards — and one
// "shard[i]" child per active shard, made by that shard's task.
func (e *Engine) QueryBatchCtx(ctx context.Context, qs []core.BatchQuery) []core.BatchResult {
	out := make([]core.BatchResult, len(qs))
	if len(qs) == 0 {
		return out
	}
	sp := obs.SpanFrom(ctx).Child("scatter")
	defer sp.End()
	r := e.routeBatch(qs)
	// shardSpans[k] is published by task k so the collector can mark a
	// straggler dropped; allocated only under a trace.
	var shardSpans []atomic.Pointer[obs.Span]
	if sp != nil {
		shardSpans = make([]atomic.Pointer[obs.Span], len(r.active))
	}
	parts, errs := scatter(ctx, len(r.active), func(k int) []core.BatchResult {
		si := r.active[k]
		var ssp *obs.Span
		if sp != nil {
			ssp = sp.Child(fmt.Sprintf("shard[%d]", si))
			shardSpans[k].Store(ssp)
		}
		qis := r.sub(si)
		sub := make([]core.BatchQuery, len(qis))
		width := 0
		for _, qi := range qis {
			width += 2 * qs[qi].Rect.Dims()
		}
		clips := make([]float64, 0, width) // one buffer for the sub-batch's rectangles
		for j, qi := range qis {
			sub[j].Kind = qs[qi].Kind
			clips, sub[j].Rect = appendClipped(clips, qs[qi].Rect, r.bounds[si])
		}
		e.scattered[si].Add(int64(len(sub)))
		e.locks[si].RLock()
		defer e.locks[si].RUnlock()
		res := engine.QueryBatch(e.inner[si], sub)
		if ssp != nil {
			recordShardSpan(ssp, res)
		}
		return res
	})
	partial := make([][]core.BatchResult, len(e.inner))
	missed := make([]error, len(e.inner))
	for k, si := range r.active {
		partial[si], missed[si] = parts[k], errs[k]
		if errs[k] != nil && shardSpans != nil {
			shardSpans[k].Load().Set("dropped", true) // nil-safe: a task that never started
		}
	}
	m := merge.Get(dataset.Count)
	defer merge.Put(m)
	cursor := make([]int, len(e.inner))
	totalRows := -1 // computed once, only if some query was fully pruned
	folded := 0
	for qi := range qs {
		rel := r.touched(qi)
		if len(rel) == 0 {
			if totalRows < 0 {
				totalRows = e.N()
			}
			out[qi].Result, out[qi].Err = emptyResult(qs[qi].Kind, qs[qi].Rect, totalRows)
			continue
		}
		m.Reset(qs[qi].Kind)
		var droppedRows []int
		var cause error
		for _, si := range rel {
			br := core.BatchResult{Err: missed[si]}
			if br.Err == nil {
				br = partial[si][cursor[si]]
			}
			cursor[si]++
			if br.Err != nil {
				droppedRows = append(droppedRows, int(e.rows[si].Load()))
				if cause == nil {
					cause = br.Err
				}
				continue
			}
			m.Add(br.Result)
			if br.Elapsed > out[qi].Elapsed {
				out[qi].Elapsed = br.Elapsed
			}
		}
		folded += len(rel) - len(droppedRows)
		out[qi].Result, out[qi].Err = e.settle(qs[qi].Kind, m, len(rel), droppedRows, cause)
	}
	if sp != nil {
		if len(qs) > 1 {
			sp.Set("queries", int64(len(qs)))
		}
		relevant := int64(len(r.touchFlat))
		sp.Set("shards_total", int64(len(e.inner)))
		sp.Set("shards_relevant", relevant)
		sp.Set("shards_pruned", int64(len(qs)*len(e.inner))-relevant)
		if relevant > 0 { // a fully pruned scatter reports no fold
			sp.Set("shards_answered", int64(folded))
			sp.Set("shards_dropped", relevant-int64(folded))
			sp.Set("partials_folded", int64(folded))
		}
	}
	return out
}

// GroupBy scatters a grouped aggregate to the shards relevant to the base
// predicate and merges each group's partials (engine.Grouper). Every
// inner engine must support grouping.
func (e *Engine) GroupBy(kind dataset.AggKind, q dataset.Rect, dim int, groups []float64) ([]core.GroupResult, error) {
	r := e.routeBatch([]core.BatchQuery{{Kind: kind, Rect: q}})
	rel := r.touched(0)
	if len(rel) == 0 {
		if len(groups) == 0 {
			return nil, fmt.Errorf("shard: GroupBy requires a non-empty group list")
		}
		out := make([]core.GroupResult, len(groups))
		for i, g := range groups {
			out[i] = core.GroupResult{Group: g, Result: core.Result{NoMatch: true}}
		}
		return out, nil
	}
	parts := make([][]core.GroupResult, len(rel))
	errs := make([]error, len(rel))
	parallel.For(len(rel), func(j int) {
		si := rel[j]
		g, ok := engine.Underlying(e.inner[si]).(engine.Grouper)
		if !ok {
			errs[j] = fmt.Errorf("shard: inner engine %s of shard %d does not support GROUP BY", e.inner[si].Name(), si)
			return
		}
		e.scattered[si].Add(1)
		e.locks[si].RLock()
		parts[j], errs[j] = g.GroupBy(kind, q, dim, groups)
		e.locks[si].RUnlock()
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return merge.Groups(kind, parts), nil
}

// SketchQuery answers one mergeable-sketch aggregate (engine.Sketcher)
// from the merged per-shard sketch state. Sketch aggregates carry no
// predicate, so no shard is pruned.
func (e *Engine) SketchQuery(q sketch.Query) (sketch.Result, error) {
	set := e.SketchSet()
	if set == nil {
		return sketch.Result{}, fmt.Errorf("shard: %s: a shard carries no sketch state: %w", e.name, sketch.ErrUnavailable)
	}
	return set.Answer(q)
}

// SketchSet merges every shard's sketch state into a fresh set
// (engine.Sketcher) through a pooled accumulator. The fold walks shards
// in index order under each shard's read lock, which keeps the merged
// KLL/Misra-Gries state deterministic from run to run (sketch merges are
// commutative at the answer level, but only a fixed fold order is
// byte-reproducible). Nil when any shard's inner engine lacks the
// capability or carries no sketch state.
func (e *Engine) SketchSet() *sketch.Set {
	m := merge.GetSketch()
	defer merge.PutSketch(m)
	for si := range e.inner {
		sk, ok := engine.Underlying(e.inner[si]).(engine.Sketcher)
		if !ok {
			return nil
		}
		e.scattered[si].Add(1)
		e.locks[si].RLock()
		absorbed := m.Absorb(sk.SketchSet())
		e.locks[si].RUnlock()
		if !absorbed {
			return nil
		}
		e.streamed.Add(1)
	}
	return m.Result()
}

// Insert routes one tuple to its owning shard and applies it under that
// shard's write lock (engine.Updatable): queries and updates on other
// shards proceed concurrently.
func (e *Engine) Insert(point []float64, value float64) error {
	return e.update(point, func(u engine.Updatable) error { return u.Insert(point, value) })
}

// Delete routes one tuple removal to its owning shard (engine.Updatable).
func (e *Engine) Delete(point []float64, value float64) error {
	return e.update(point, func(u engine.Updatable) error { return u.Delete(point, value) })
}

func (e *Engine) update(point []float64, apply func(engine.Updatable) error) error {
	i, err := e.Route(point)
	if err != nil {
		return err
	}
	u, ok := engine.Updater(e.inner[i])
	if !ok {
		return fmt.Errorf("shard: inner engine %s of shard %d does not support updates", e.inner[i].Name(), i)
	}
	e.locks[i].Lock()
	defer e.locks[i].Unlock()
	if err := apply(u); err != nil {
		return err
	}
	e.refreshRows(i)
	e.growBounds(i, point)
	return nil
}

// growBounds widens shard i's bounding rectangle to include an inserted
// point, so the scatter never prunes the shard for keys it now owns.
// Deletes leave the bounds conservative (possibly wider than the data).
func (e *Engine) growBounds(i int, point []float64) {
	e.boundsMu.RLock()
	b := e.info.Bounds[i]
	inside := true
	for c := 0; c < b.Dims() && c < len(point); c++ {
		if point[c] < b.Lo[c] || point[c] > b.Hi[c] {
			inside = false
			break
		}
	}
	e.boundsMu.RUnlock()
	if inside {
		return
	}
	e.boundsMu.Lock()
	b = e.info.Bounds[i]
	for c := 0; c < b.Dims() && c < len(point); c++ {
		if point[c] < b.Lo[c] {
			b.Lo[c] = point[c]
		}
		if point[c] > b.Hi[c] {
			b.Hi[c] = point[c]
		}
	}
	e.boundsMu.Unlock()
}

// ConcurrentUpdates marks the engine as internally synchronised
// (engine.ConcurrentUpdatable): the per-shard locks order each update
// against the queries scattered to its shard, so the serving layer may
// admit updates under a shared table lock.
func (e *Engine) ConcurrentUpdates() {}
