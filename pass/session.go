package pass

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/merge"
	"repro/internal/obs"
	"repro/internal/sketch"
	"repro/internal/sqlfe"
	"repro/internal/store"
)

// Statement-level instruments, process-wide: every statement executed
// through any session lands in one latency histogram and outcome
// counters, the figures behind passd's GET /metrics and periodic
// self-report.
var (
	queryDuration = obs.Default().NewHistogram("pass_query_duration_seconds", "SQL statement execution latency", nil)
	queriesTotal  = obs.Default().NewCounter("pass_queries_total", "SQL statements executed")
	queryErrors   = obs.Default().NewCounter("pass_query_errors_total", "SQL statements that failed (no-match answers excluded)")
)

// Session is a multi-table SQL serving context: a catalog of named tables
// (each a built synopsis plus its schema) against which SQL statements
// resolve their FROM clause. It is the layer cmd/passd serves over, and
// the entry point for any client that speaks table names rather than
// synopsis handles:
//
//	sess := pass.NewSession()
//	sess.Register("sensors", syn)
//	res, err := sess.Exec("SELECT AVG(light) FROM sensors WHERE time BETWEEN 100 AND 500")
//
// A Session is safe for concurrent use: queries against one table run
// concurrently (batches fan out across the worker pool), while
// Insert/Delete serialise on the table's write-order lock and hold its
// exclusive lock only for the in-memory apply, never across the
// journal's fsync.
//
// A session can be made durable with AttachStore: tables are then
// snapshotted to disk, updates are write-ahead journaled, and a restart
// restores the catalog without rebuilding anything (see persist.go).
// A session can further be made workload-adaptive with EnableAdaptive:
// queries are then recorded into per-table sliding windows, and 1-D
// tables created through CreateTable are re-optimized in the background
// when the observed workload drifts from the partitioning (see
// adaptive.go).
type Session struct {
	cat      *catalog.Catalog
	store    *store.Store
	adaptive *adaptiveRuntime
	audit    *auditRuntime
	// plans is the session-wide prepared-plan cache: statements are
	// normalized to parameterized templates and their compiled skeletons
	// are reused across calls, so a repeated query shape costs one
	// normalization pass instead of a full parse+compile. Entries are
	// validated against the owning table's identity and plan generation on
	// every hit (see catalog.Table.PlanGen), so drops, re-registrations
	// and engine swaps can never serve a stale plan.
	plans *sqlfe.PlanCache
	// strictScatter makes queries on sharded tables fail outright instead
	// of returning Degraded partial merges. Applied to engines as they are
	// registered (SetStrictScatter).
	strictScatter bool
	// slowLog, when attached (SetSlowQueryLog), receives one JSON line per
	// statement slower than slowThreshold. Statements are logged by their
	// normalized template text, so literals never reach the log.
	slowLog       *obs.JSONLog
	slowThreshold time.Duration
}

// DefaultPlanCacheSize is the prepared-plan cache capacity of a new
// session (distinct query shapes, not statements — all literal variants
// of one shape share an entry).
const DefaultPlanCacheSize = 256

// SetPlanCacheSize resizes the session's prepared-plan cache, dropping
// all cached plans; n <= 0 disables plan caching (every statement is
// compiled from scratch).
func (s *Session) SetPlanCacheSize(n int) {
	s.plans = sqlfe.NewPlanCache(n)
}

// PlanCacheStats snapshots the session's plan-cache counters.
func (s *Session) PlanCacheStats() sqlfe.PlanCacheStats {
	return s.plans.Stats()
}

// MergePoolStats reports the merge accumulator pool's activity
// (process-wide): total acquisitions and how many of them had to allocate
// a fresh accumulator — the difference is allocations avoided by reuse.
func (s *Session) MergePoolStats() (acquires, allocated int64) {
	return merge.PoolStats()
}

// SetSlowQueryLog attaches a slow-query log: every statement whose
// execution takes at least threshold emits one JSON line to w (template
// text with literals elided, table, duration, error if any, and a trace
// summary when the statement was an EXPLAIN ANALYZE). threshold 0 logs
// every statement; a nil w detaches the log.
func (s *Session) SetSlowQueryLog(w io.Writer, threshold time.Duration) {
	s.slowLog = obs.NewJSONLog(w)
	s.slowThreshold = threshold
}

// observeQuery records one executed statement into the process-wide
// instruments and, when a slow-query log is attached and the statement
// was slow enough, emits its log line. tmplText is the normalized
// template ("" when the statement failed before normalization — the raw
// SQL is withheld so literals never leak into logs).
func (s *Session) observeQuery(tmplText, table string, d time.Duration, err error, root *obs.Span) {
	queryDuration.ObserveDuration(d)
	queriesTotal.Inc()
	if err != nil && !errors.Is(err, ErrNoMatch) {
		queryErrors.Inc()
	}
	if s.slowLog == nil || d < s.slowThreshold {
		return
	}
	fields := map[string]any{
		"sql":         tmplText,
		"duration_ms": float64(d.Microseconds()) / 1000,
	}
	if table != "" {
		fields["table"] = table
	}
	if err != nil {
		fields["error"] = err.Error()
	}
	if root != nil {
		fields["trace_us"] = root.Summary()
	}
	s.slowLog.Emit("slow_query", fields)
}

// SetStrictScatter switches sharded tables between graceful degradation
// (default: a shard that errors or misses the query deadline is dropped
// from the merge and the answer is marked Degraded) and strict mode (such
// queries fail) — with or without a deadline. Call it before registering
// tables or attaching a store; it applies to engines as they enter the
// catalog.
func (s *Session) SetStrictScatter(strict bool) {
	s.strictScatter = strict
}

// applyScatterMode pushes the session's strict-scatter setting onto an
// engine that supports it.
func (s *Session) applyScatterMode(eng engine.Engine) {
	if sh, ok := engine.Underlying(eng).(engine.Sharded); ok {
		sh.SetStrict(s.strictScatter)
	}
}

// NewSession returns a session with an empty catalog.
func NewSession() *Session {
	return &Session{cat: catalog.New(), plans: sqlfe.NewPlanCache(DefaultPlanCacheSize)}
}

// Register adds a synopsis under a table name (case-insensitive, unique).
// The synopsis must carry a schema — built from a Table, or attached via
// SetSchema after LoadSynopsis. With a store attached (AttachStore) the
// table is also snapshotted and its updates journaled.
func (s *Session) Register(name string, syn *Synopsis) error {
	if syn == nil {
		return fmt.Errorf("pass: nil synopsis")
	}
	if len(syn.schema.PredColumns) == 0 {
		return fmt.Errorf("pass: synopsis has no schema (loaded from disk?) — call SetSchema first")
	}
	schema := syn.schema
	schema.Table = name
	return s.register(name, syn.inner, schema)
}

// Drop removes a table from the session and, with a store attached,
// deletes its snapshot and write-ahead log — a dropped table must not
// resurrect on the next boot.
func (s *Session) Drop(name string) error {
	// resolve the canonical registered name first: adaptive state is
	// keyed by it, not by whatever casing the caller used
	canonical := name
	if s.adaptive != nil || s.audit != nil {
		if tbl, err := s.cat.Lookup(name); err == nil {
			canonical = tbl.Name()
		}
	}
	if err := s.cat.Drop(name); err != nil {
		return err
	}
	s.adaptiveForget(canonical)
	s.auditForget(canonical)
	if s.store != nil {
		if err := s.store.Remove(name); err != nil {
			return fmt.Errorf("pass: remove persisted files for %q: %w", name, err)
		}
	}
	return nil
}

// TableInfo describes one registered table.
type TableInfo struct {
	// Name is the registered (FROM-resolvable) table name.
	Name string `json:"name"`
	// Engine is the serving engine's display name.
	Engine string `json:"engine"`
	// Rows is the base-table cardinality the synopsis was built over.
	Rows int `json:"rows"`
	// MemoryBytes is the synopsis storage footprint.
	MemoryBytes int `json:"memory_bytes"`
	// PredColumns and AggColumn are the queryable schema.
	PredColumns []string `json:"pred_columns"`
	AggColumn   string   `json:"agg_column"`
	// Shards is the shard count of a sharded table (0 when unsharded),
	// ShardPolicy its partitioning policy ("range"/"hash") and ShardRows
	// the per-shard cardinalities.
	Shards      int    `json:"shards,omitempty"`
	ShardPolicy string `json:"shard_policy,omitempty"`
	ShardRows   []int  `json:"shard_rows,omitempty"`
	// ShardScatter counts queries executed per shard and ShardPruned the
	// (query, shard) pairs skipped by scatter pruning — the scatter-path
	// instrumentation (sharded tables only).
	ShardScatter []int64 `json:"shard_scatter,omitempty"`
	ShardPruned  int64   `json:"shard_pruned,omitempty"`
	// ShardStreamed counts the per-shard partial results folded into
	// answers.
	ShardStreamed int64 `json:"shard_streamed,omitempty"`
	// Adaptive carries workload statistics and re-optimization history
	// when the session's adaptive layer is on.
	Adaptive *AdaptiveInfo `json:"adaptive,omitempty"`
	// Audit carries empirical accuracy statistics when the session's
	// audit layer is on (EnableAudit).
	Audit *AuditInfo `json:"audit,omitempty"`
	// Degraded marks a table in read-only degraded mode: its write-ahead
	// journal or checkpoint hit an I/O failure, so writes are rejected
	// while queries keep serving. DegradedCause carries the failure.
	Degraded      bool   `json:"degraded,omitempty"`
	DegradedCause string `json:"degraded_cause,omitempty"`
}

// Tables lists the registered tables in deterministic (case-insensitively
// sorted) order, so passd's GET /tables and error messages naming known
// tables are stable across runs.
func (s *Session) Tables() []TableInfo {
	tabs := s.cat.List()
	out := make([]TableInfo, len(tabs))
	for i, t := range tabs {
		schema := t.Schema()
		out[i] = TableInfo{
			Name:        t.Name(),
			Engine:      t.EngineName(),
			Rows:        t.Rows(),
			MemoryBytes: t.MemoryBytes(),
			PredColumns: schema.PredColumns,
			AggColumn:   schema.AggColumn,
		}
		if info, shardRows, scatter, ok := t.ShardStats(); ok {
			out[i].Shards = info.Shards
			out[i].ShardPolicy = info.Policy
			out[i].ShardRows = shardRows
			out[i].ShardScatter = scatter.Scattered
			out[i].ShardPruned = scatter.Pruned
			out[i].ShardStreamed = scatter.Streamed
		}
		out[i].Adaptive = s.adaptiveInfo(t.Name())
		out[i].Audit = s.auditInfo(t.Name())
		if s.store != nil {
			if deg, cause := s.store.Degraded(t.Name()); deg {
				out[i].Degraded = true
				out[i].DegradedCause = cause.Error()
			}
		}
	}
	return out
}

// DegradedTables lists the names of tables currently in read-only
// degraded mode (sorted). Nil without a store attached — degraded mode
// only exists on the durable path.
func (s *Session) DegradedTables() []string {
	if s.store == nil {
		return nil
	}
	return s.store.DegradedTables()
}

// Exec parses, plans and executes one SQL statement, resolving the FROM
// clause against the session catalog. Unknown table names are an error
// (they name the registered tables).
func (s *Session) Exec(sql string) (SQLResult, error) {
	return s.ExecCtx(context.Background(), sql)
}

// ExecCtx is Exec with deadline propagation: ctx flows through the
// catalog to the engine, so a deadline-aware engine (the scatter-gather
// executor of sharded tables) can drop shards that miss the deadline and
// return a Degraded partial answer (or fail, in strict-scatter mode).
// Engines without the capability get a fail-fast admission check.
//
// A statement prefixed EXPLAIN ANALYZE executes normally with a trace
// attached: the answer is bitwise identical to the plain statement's
// (the traced scatter folds shard partials in the same deterministic
// order), and SQLResult.Trace carries the span tree — compile (plan-cache
// outcome), execute (leaf scan counters), and the
// per-shard scatter breakdown on sharded tables.
func (s *Session) ExecCtx(ctx context.Context, sql string) (SQLResult, error) {
	stmt, explain := sqlfe.StripExplain(sql)
	var root *obs.Span
	if explain {
		root = obs.StartTrace("query")
		ctx = obs.WithSpan(ctx, root)
	}
	start := time.Now()
	res, tmplText, table, err := s.execStmt(ctx, stmt)
	root.End()
	s.observeQuery(tmplText, table, time.Since(start), err, root)
	if err != nil {
		return SQLResult{}, err
	}
	if explain {
		res.Trace = root.Export()
	}
	return res, nil
}

// execStmt compiles and dispatches one statement, reporting the
// normalized template text and table name for observation ("" for the
// parts that failed to resolve).
func (s *Session) execStmt(ctx context.Context, sql string) (res SQLResult, tmplText, table string, err error) {
	tbl, plan, tmpl, err := s.compile(ctx, sql)
	if tmpl != nil {
		tmplText = tmpl.Text
	}
	if tbl != nil {
		table = tbl.Name()
	}
	if err != nil {
		return SQLResult{}, tmplText, table, err
	}
	res, err = s.execPlanCtx(ctx, tbl, plan)
	return res, tmplText, table, err
}

// StmtResult is the outcome of one statement in a batched execution.
type StmtResult struct {
	// SQL is the statement as executed.
	SQL string
	// Result holds the answer when Err is nil.
	Result SQLResult
	// Err carries the per-statement failure (ErrNoMatch included); other
	// statements in the batch are unaffected.
	Err error
}

// ExecBatch executes a workload of SQL statements, batching per table:
// scalar statements against the same table — consecutive or not — are
// grouped before dispatch and issued as one QueryBatch (fanning across
// the worker pool on engines that support it), so a multi-table script
// that interleaves tables still gets per-table batched execution instead
// of falling back to singles at every table switch. Per-table batches
// dispatch in the order each table first appears, so execution is
// deterministic. GROUP BY statements execute individually. Results are
// returned in input order and are identical to calling Exec per
// statement.
func (s *Session) ExecBatch(stmts []string) []StmtResult {
	return s.ExecBatchCtx(context.Background(), stmts)
}

// ExecBatchCtx is ExecBatch with deadline propagation (see ExecCtx).
// EXPLAIN ANALYZE statements execute individually through the traced
// path, like GROUP BY.
func (s *Session) ExecBatchCtx(ctx context.Context, stmts []string) []StmtResult {
	out := make([]StmtResult, len(stmts))

	// compile everything first; failures don't block the rest of the batch
	type compiled struct {
		tbl  *catalog.Table
		plan *sqlfe.Plan
		tmpl *sqlfe.Template
	}
	plans := make([]compiled, len(stmts))
	// per-table scalar sub-batches, dispatched in first-appearance order
	batches := make(map[*catalog.Table][]int)
	var order []*catalog.Table
	for i, sql := range stmts {
		out[i].SQL = sql
		if _, explain := sqlfe.StripExplain(sql); explain {
			// the traced path compiles, executes and observes on its own
			out[i].Result, out[i].Err = s.ExecCtx(ctx, sql)
			continue
		}
		tbl, plan, tmpl, err := s.compile(ctx, sql)
		plans[i] = compiled{tbl: tbl, plan: plan, tmpl: tmpl}
		if err != nil {
			out[i].Err = err
			tmplText, table := "", ""
			if tmpl != nil {
				tmplText = tmpl.Text
			}
			if tbl != nil {
				table = tbl.Name()
			}
			s.observeQuery(tmplText, table, 0, err, nil)
			continue
		}
		if plan.GroupDim < 0 && plan.Sketch == nil {
			if _, seen := batches[tbl]; !seen {
				order = append(order, tbl)
			}
			batches[tbl] = append(batches[tbl], i)
		}
	}

	// scalar statements: one engine-level batch per table. Each statement
	// observes the batch's amortized per-statement latency — the whole
	// point of batching is that a statement's marginal cost is below its
	// solo cost, and that is the cost the histogram should reflect.
	for _, tbl := range order {
		idx := batches[tbl]
		qs := make([]core.BatchQuery, len(idx))
		for j, i := range idx {
			qs[j] = core.BatchQuery{Kind: plans[i].plan.Agg, Rect: plans[i].plan.Rect}
		}
		n := tbl.Rows()
		start := time.Now()
		results := tbl.QueryBatchCtx(ctx, qs)
		perStmt := time.Since(start) / time.Duration(len(idx))
		for j, br := range results {
			i := idx[j]
			switch {
			case br.Err != nil:
				out[i].Err = br.Err
			case br.Result.NoMatch:
				out[i].Err = ErrNoMatch
			default:
				out[i].Result = SQLResult{Scalar: answerFromResult(br.Result, n)}
			}
			s.observeQuery(plans[i].tmpl.Text, tbl.Name(), perStmt, out[i].Err, nil)
		}
	}

	// GROUP BY and sketch statements execute individually (neither fits
	// the scalar BatchQuery shape)
	for i := range stmts {
		if out[i].Err != nil || plans[i].plan == nil ||
			(plans[i].plan.GroupDim < 0 && plans[i].plan.Sketch == nil) {
			continue
		}
		start := time.Now()
		out[i].Result, out[i].Err = s.execPlanCtx(ctx, plans[i].tbl, plans[i].plan)
		s.observeQuery(plans[i].tmpl.Text, plans[i].tbl.Name(), time.Since(start), out[i].Err, nil)
	}
	return out
}

// ExecScript splits a semicolon-separated script into statements and
// executes them as one batch.
func (s *Session) ExecScript(script string) []StmtResult {
	return s.ExecBatch(sqlfe.SplitStatements(script))
}

// ExecScriptCtx is ExecScript with deadline propagation (see ExecCtx).
func (s *Session) ExecScriptCtx(ctx context.Context, script string) []StmtResult {
	return s.ExecBatchCtx(ctx, sqlfe.SplitStatements(script))
}

// Insert adds one tuple to a named table (engines with the Updatable
// capability only). The update is journaled (with a store attached)
// under the table's write-order lock, then applied under its exclusive
// lock, which in-flight queries wait for only as long as the apply.
func (s *Session) Insert(table string, pred []float64, agg float64) error {
	tbl, err := s.cat.Lookup(table)
	if err != nil {
		return err
	}
	return tbl.Insert(pred, agg)
}

// InsertMany adds a batch of tuples to a named table under one write-lock
// acquisition; with a store attached the whole batch is journaled as one
// group commit (a single fsync). It returns how many tuples were applied.
func (s *Session) InsertMany(table string, points [][]float64, values []float64) (int, error) {
	tbl, err := s.cat.Lookup(table)
	if err != nil {
		return 0, err
	}
	return tbl.InsertMany(points, values)
}

// Delete removes one tuple from a named table (Updatable engines only).
// The tuple must be a row the table holds: the synopsis keeps no rows,
// so it subtracts what it is given. A delete it can tell is not a present
// row — a value outside the [Min, Max] of the leaf its key falls in, or a
// key outside that leaf's keys — is refused with an error before it is
// logged, and the table is left as it was. A phantom delete inside both
// ranges cannot be told apart without the rows: it is applied, and skews
// every answer over its leaf, exact ones included.
func (s *Session) Delete(table string, pred []float64, agg float64) error {
	tbl, err := s.cat.Lookup(table)
	if err != nil {
		return err
	}
	return tbl.Delete(pred, agg)
}

// compile turns one statement into an executable plan: the statement is
// normalized into a parameterized template in a single lexer pass (no
// separate parse — the normalizer enforces the same grammar and reports
// the same errors), the template's compiled skeleton is fetched from the
// plan cache or compiled on a miss, and the lifted literals are bound
// back into a concrete plan. With a trace attached to ctx, a "compile"
// span records the template and the plan-cache outcome.
func (s *Session) compile(ctx context.Context, sql string) (*catalog.Table, *sqlfe.Plan, *sqlfe.Template, error) {
	cs := obs.SpanFrom(ctx).Child("compile")
	defer cs.End()
	tmpl, err := sqlfe.Normalize(sql)
	if err != nil {
		return nil, nil, nil, err
	}
	cs.Set("template", tmpl.Text)
	tbl, err := s.cat.Lookup(tmpl.Table)
	if err != nil {
		return nil, nil, tmpl, err
	}
	prep, hit, err := s.preparedFor(tbl, tmpl)
	if err != nil {
		return tbl, nil, tmpl, err
	}
	if hit {
		cs.Set("plan_cache", "hit")
	} else {
		cs.Set("plan_cache", "miss")
	}
	plan, err := prep.Bind(tmpl.Params())
	if err != nil {
		return tbl, nil, tmpl, err
	}
	return tbl, plan, tmpl, nil
}

// preparedFor resolves a normalized template to its compiled skeleton,
// consulting the session plan cache keyed by the canonical template text
// with the table's (identity, plan generation) validity pair; hit reports
// whether the cache served it. Reading the generation before the compile
// is sound even if an engine swap interleaves: the schema is retained
// across swaps, so the compiled skeleton is correct either way, and the
// entry stored under the old generation is evicted on its next lookup.
func (s *Session) preparedFor(tbl *catalog.Table, tmpl *sqlfe.Template) (prep *sqlfe.Prepared, hit bool, err error) {
	gen := tbl.PlanGen()
	if prep, ok := s.plans.Lookup(tmpl.Text, tbl, gen); ok {
		return prep, true, nil
	}
	prep, err = sqlfe.CompileTemplate(tmpl, tbl.Schema())
	if err != nil {
		return nil, false, err
	}
	s.plans.Store(tmpl.Text, tbl, gen, prep)
	return prep, false, nil
}

// execPlanCtx dispatches a compiled plan to a table's engine, observing
// ctx. GROUP BY execution is not deadline-interruptible mid-flight; it
// gets a fail-fast admission check instead. With a trace attached, an
// "execute" span wraps the dispatch (lower layers nest under it) and
// carries the merged result's diagnostics.
func (s *Session) execPlanCtx(ctx context.Context, tbl *catalog.Table, plan *sqlfe.Plan) (SQLResult, error) {
	es := obs.SpanFrom(ctx).Child("execute")
	defer es.End()
	if es != nil {
		ctx = obs.WithSpan(ctx, es)
	}
	n := tbl.Rows()
	if plan.Sketch != nil {
		// sketch scatters are not deadline-interruptible mid-merge (the
		// fold is a fixed-order pass over all shards); admission-check only
		if err := ctx.Err(); err != nil {
			return SQLResult{}, err
		}
		r, err := tbl.SketchQuery(*plan.Sketch)
		if err != nil {
			return SQLResult{}, err
		}
		recordSketchSpan(es, r)
		return SQLResult{Sketch: sketchAnswerFromResult(r)}, nil
	}
	if plan.GroupDim < 0 {
		r, err := tbl.QueryBatchCtx(ctx, []core.BatchQuery{{Kind: plan.Agg, Rect: plan.Rect}})[0].Unpack()
		if err != nil {
			return SQLResult{}, err
		}
		recordResultSpan(es, r)
		if r.NoMatch {
			return SQLResult{}, ErrNoMatch
		}
		return SQLResult{Scalar: answerFromResult(r, n)}, nil
	}
	if len(plan.Groups) == 0 {
		return SQLResult{}, fmt.Errorf("pass: GROUP BY on a numeric column needs explicit group keys — use Synopsis.GroupBy")
	}
	if err := ctx.Err(); err != nil {
		return SQLResult{}, err
	}
	res, err := tbl.GroupBy(plan.Agg, plan.Rect, plan.GroupDim, plan.Groups)
	if err != nil {
		return SQLResult{}, err
	}
	es.Set("groups", int64(len(res)))
	return SQLResult{Groups: groupAnswers(res, plan.GroupDict, n)}, nil
}

// recordSketchSpan attaches a sketch answer's diagnostics to the execute
// span: the aggregate kind, the stated error bound, and the net row count
// the merged sketch summarizes.
func recordSketchSpan(sp *obs.Span, r sketch.Result) {
	if sp == nil {
		return
	}
	sp.Set("sketch", r.Kind.String())
	sp.Set("sketch_bound", r.Bound)
	sp.Set("sketch_rows", r.N)
}

// recordResultSpan attaches a merged scalar result's diagnostics to the
// execute span: rows touched, how leaves resolved (exact covered nodes
// vs. sampled partial ones), cardinality evidence and degradation.
func recordResultSpan(sp *obs.Span, r core.Result) {
	if sp == nil {
		return
	}
	sp.Set("tuples_read", int64(r.TuplesRead))
	sp.Set("tuples_skipped", int64(r.SkippedTuples))
	sp.Set("nodes_visited", int64(r.VisitedNodes))
	sp.Set("leaf_exact", int64(r.CoveredParts))
	sp.Set("leaf_sampled", int64(r.PartialParts))
	sp.Set("exact", r.Exact)
	if r.Degraded {
		sp.Set("degraded", true)
	}
	if r.ShardsTotal > 0 {
		sp.Set("shards_total", int64(r.ShardsTotal))
		sp.Set("shards_answered", int64(r.ShardsAnswered))
	}
}
