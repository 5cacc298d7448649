package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/pass"
)

// server wraps a pass.Session as an HTTP JSON API. All table state lives
// in the session's catalog; the server itself is stateless and safe for
// concurrent requests.
type server struct {
	sess *pass.Session
	// buildDefaults are applied to POST /tables requests that omit them.
	buildDefaults buildOptions
	// queryTimeout bounds each /query request's execution; 0 means the
	// request runs until the client disconnects.
	queryTimeout time.Duration
	// maxBody caps request body size; oversized bodies get 413.
	maxBody int64
	// inflight is the admission semaphore: nil means unlimited, otherwise
	// a request that cannot acquire a slot immediately is rejected with
	// 503 rather than queued (load shedding, not buffering).
	inflight chan struct{}
	// ready flips true once warm start and demo loading complete, and back
	// to false when shutdown begins; /readyz reports it.
	ready atomic.Bool
	// prepared holds named server-side prepared statements (POST /prepare),
	// executed through POST /query with {"prepared": name, "params": [...]}.
	preparedMu sync.Mutex
	prepared   map[string]*pass.PreparedStmt
	// reqLog receives one structured JSON line per request; nil disables
	// request logging (metrics still record every request).
	reqLog *obs.JSONLog
	// pprofOn mounts net/http/pprof under /debug/pprof/ (-pprof flag).
	pprofOn bool
	// history is the metrics time-series ring behind GET /metrics/history;
	// nil disables the endpoint (-metrics-history 0).
	history *obs.History
}

// buildOptions mirrors the synopsis-construction knobs exposed over HTTP.
type buildOptions struct {
	Partitions int     `json:"partitions,omitempty"`
	SampleRate float64 `json:"sample_rate,omitempty"`
	SampleSize int     `json:"sample_size,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
	// Shards > 1 builds a sharded scatter-gather engine: the table is
	// range-partitioned on its first predicate column, one synopsis per
	// shard, with per-shard persistence and update routing.
	Shards int `json:"shards,omitempty"`
}

func newServer(sess *pass.Session) *server {
	return &server{
		sess:          sess,
		buildDefaults: buildOptions{Partitions: 64, SampleRate: 0.005, Seed: 1},
		maxBody:       defaultMaxBody,
		prepared:      make(map[string]*pass.PreparedStmt),
	}
}

// defaultMaxBody caps request bodies at 32 MiB unless -max-body-mb says
// otherwise — large enough for bulk CSV loads, small enough that a single
// request cannot exhaust memory.
const defaultMaxBody = 32 << 20

// setMaxInflight installs the admission semaphore; n <= 0 disables it.
func (s *server) setMaxInflight(n int) {
	if n > 0 {
		s.inflight = make(chan struct{}, n)
	}
}

// handler routes the API:
//
//	POST   /query                    {"sql": "SELECT ...; SELECT ..."} → per-statement results
//	                                 {"prepared": name, "params": [...]} → execute a prepared statement
//	POST   /prepare                  {"name": ..., "sql": ...} → register a named prepared statement
//	DELETE /prepare/{name}           → forget a prepared statement
//	GET    /tables                   → registered tables (+ plan-cache/merge stats; adaptive stats when -adaptive)
//	POST   /tables                   {"name": ..., "csv": ..., opts} → build + register
//	POST   /tables/{name}/rows       {"rows": [{"point": [...], "value": ...}]} → insert (journaled when durable)
//	POST   /tables/{name}/reoptimize → force a workload-driven rebuild decision (with -adaptive)
//	DELETE /tables/{name}            → drop (persisted files removed too)
//	GET    /healthz                  → liveness (200 while the process serves)
//	GET    /readyz                   → readiness (503 until warm start completes / during shutdown)
//	GET    /metrics                  → Prometheus text exposition of the obs registry
//	/debug/pprof/*                   → runtime profiles (only with -pprof)
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /prepare", s.handlePrepare)
	mux.HandleFunc("DELETE /prepare/{name}", s.handleDropPrepared)
	mux.HandleFunc("GET /tables", s.handleListTables)
	mux.HandleFunc("POST /tables", s.handleCreateTable)
	mux.HandleFunc("POST /tables/{name}/rows", s.handleInsertRows)
	mux.HandleFunc("POST /tables/{name}/reoptimize", s.handleReoptimize)
	mux.HandleFunc("DELETE /tables/{name}", s.handleDropTable)
	// health and metrics endpoints bypass admission control: an overloaded
	// server is still alive and still observable, and the probes and the
	// scraper must see it rather than be shed
	healthz := http.HandlerFunc(s.handleHealthz)
	readyz := http.HandlerFunc(s.handleReadyz)
	limited := s.admit(mux)
	outer := http.NewServeMux()
	outer.Handle("GET /healthz", healthz)
	outer.Handle("GET /readyz", readyz)
	outer.HandleFunc("GET /metrics", s.handleMetrics)
	outer.HandleFunc("GET /metrics/history", s.handleMetricsHistory)
	outer.HandleFunc("GET /audit", s.handleAudit)
	if s.pprofOn {
		outer.HandleFunc("GET /debug/pprof/", pprof.Index)
		outer.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	outer.Handle("/", limited)
	return s.logRequests(outer)
}

// admit is the load-shedding middleware: with -max-inflight set, a
// request that cannot take a slot immediately is answered 503 with a
// Retry-After hint instead of queueing behind the backlog.
func (s *server) admit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.inflight != nil {
			select {
			case s.inflight <- struct{}{}:
				defer func() { <-s.inflight }()
			default:
				w.Header().Set("Retry-After", "1")
				httpError(w, http.StatusServiceUnavailable, fmt.Errorf("server at capacity (%d requests in flight)", cap(s.inflight)))
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// handleHealthz is the liveness probe: the process is up and the HTTP
// stack works. It says nothing about data or readiness.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: 200 once warm start (and the demo
// preload) finished and until shutdown begins. The body also lists tables
// currently in read-only degraded mode — degraded tables still serve
// queries, so they do not flip readiness, but operators and load
// balancers can see them.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "not ready"})
		return
	}
	resp := map[string]any{"status": "ready"}
	if deg := s.sess.DegradedTables(); len(deg) > 0 {
		resp["degraded_tables"] = deg
	}
	// an exhausted SLO error budget does not flip readiness — the server
	// still serves — but the probe names the failing objective and table
	// so rollouts and operators see the accuracy regression
	if slo, ok := s.sess.SLOStatus(); ok && slo.Breached {
		resp["slo_breached"] = true
		resp["slo_causes"] = slo.Causes
	}
	writeJSON(w, http.StatusOK, resp)
}

type queryRequest struct {
	SQL string `json:"sql"`
	// Statements is an alternative to SQL for pre-split batches.
	Statements []string `json:"statements,omitempty"`
	// Prepared names a statement registered via POST /prepare; Params are
	// its positional arguments (numbers and strings), one per placeholder.
	// Omitting Params executes with the literals it was prepared with.
	Prepared string `json:"prepared,omitempty"`
	Params   []any  `json:"params,omitempty"`
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !readBody(s, w, r, &req, decodeQuery) {
		return
	}
	// the request context already ends on client disconnect or server
	// shutdown; -query-timeout adds the server-side execution deadline,
	// which scatter-gather tables propagate per shard
	ctx := r.Context()
	if s.queryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.queryTimeout)
		defer cancel()
	}
	given := 0
	for _, set := range [...]bool{req.Prepared != "", len(req.Statements) > 0, strings.TrimSpace(req.SQL) != ""} {
		if set {
			given++
		}
	}
	if given > 1 {
		// running one and dropping the rest would answer a different request
		httpError(w, http.StatusBadRequest, fmt.Errorf(`"sql", "statements" and "prepared" are mutually exclusive`))
		return
	}
	var results []pass.StmtResult
	switch {
	case req.Prepared != "":
		s.preparedMu.Lock()
		ps, ok := s.prepared[req.Prepared]
		s.preparedMu.Unlock()
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("unknown prepared statement %q", req.Prepared))
			return
		}
		res, err := ps.ExecCtx(ctx, req.Params...)
		results = []pass.StmtResult{{SQL: ps.Text(), Result: res, Err: err}}
	case len(req.Statements) > 0:
		results = s.sess.ExecBatchCtx(ctx, req.Statements)
	case strings.TrimSpace(req.SQL) != "":
		results = s.sess.ExecScriptCtx(ctx, req.SQL)
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf(`"sql" (or "statements", or "prepared") is required`))
		return
	}
	respond(w, http.StatusOK, true, func(b []byte) ([]byte, error) { return appendQueryAnswer(b, results) })
}

type prepareRequest struct {
	Name string `json:"name"`
	SQL  string `json:"sql"`
}

// handlePrepare registers a named prepared statement: normalized and
// compiled once, then executable through POST /query with
// {"prepared": name, "params": [...]}. Re-preparing a name replaces it.
func (s *server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	var req prepareRequest
	if !readBody(s, w, r, &req, decodePrepare) {
		return
	}
	if strings.TrimSpace(req.Name) == "" || strings.TrimSpace(req.SQL) == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf(`"name" and "sql" are required`))
		return
	}
	ps, err := s.sess.Prepare(req.SQL)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.preparedMu.Lock()
	s.prepared[req.Name] = ps
	s.preparedMu.Unlock()
	writeJSON(w, http.StatusCreated, map[string]any{
		"name":       req.Name,
		"template":   ps.Text(),
		"num_params": ps.NumParams(),
	})
}

func (s *server) handleDropPrepared(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.preparedMu.Lock()
	_, ok := s.prepared[name]
	delete(s.prepared, name)
	s.preparedMu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown prepared statement %q", name))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *server) handleListTables(w http.ResponseWriter, r *http.Request) {
	tables := s.sess.Tables()
	if tables == nil {
		tables = []pass.TableInfo{}
	}
	out := map[string]any{"tables": tables}
	pcs := s.sess.PlanCacheStats()
	out["plan_cache"] = map[string]any{
		"hits":      pcs.Hits,
		"misses":    pcs.Misses,
		"evictions": pcs.Evictions,
		"entries":   pcs.Entries,
		"capacity":  pcs.Capacity,
	}
	acquires, allocated := s.sess.MergePoolStats()
	out["merge_pool"] = map[string]any{
		"acquires":            acquires,
		"allocated":           allocated,
		"allocations_avoided": acquires - allocated,
	}
	// audit layer summary and SLO verdict, when auditing is on (the
	// per-table accuracy stats ride on each TableInfo.Audit)
	if rep, ok := s.sess.AuditReport(); ok {
		auditOut := map[string]any{
			"sample_fraction": rep.SampleFraction,
			"confidence":      rep.Confidence,
			"dropped":         rep.Dropped,
			"stale":           rep.Stale,
		}
		if rep.SLO != nil {
			auditOut["slo"] = rep.SLO
		}
		out["audit"] = auditOut
	}
	writeJSON(w, http.StatusOK, out)
}

// handleReoptimize forces a re-optimization decision for one table: the
// manual counterpart of the background loop. The response carries the
// adaptive.Outcome — rebuilt or not, and why.
func (s *server) handleReoptimize(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.sess.Adaptive() {
		httpError(w, http.StatusConflict, fmt.Errorf("adaptive serving is off (start passd with -adaptive)"))
		return
	}
	out, err := s.sess.Reoptimize(name)
	if err != nil {
		httpError(w, tableErrStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

type createTableRequest struct {
	Name string `json:"name"`
	// CSV is the table data: a header row, numeric rows, last column the
	// aggregate.
	CSV string `json:"csv"`
	buildOptions
}

func (s *server) handleCreateTable(w http.ResponseWriter, r *http.Request) {
	req := createTableRequest{buildOptions: s.buildDefaults}
	if !readBody(s, w, r, &req, decodeCreateTable) {
		return
	}
	if strings.TrimSpace(req.Name) == "" || strings.TrimSpace(req.CSV) == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf(`"name" and "csv" are required`))
		return
	}
	// names colliding with per-shard file naming would fail persistence
	// after the expensive build; reject the client mistake upfront
	if s.sess.Persistent() {
		if err := store.ValidateTableName(req.Name); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
	}
	tbl, err := pass.ReadCSV(strings.NewReader(req.CSV))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	opt := pass.Options{
		Partitions: req.Partitions,
		SampleRate: req.SampleRate,
		SampleSize: req.SampleSize,
		Seed:       req.Seed,
	}
	if s.sess.Adaptive() {
		// the adaptive path retains the rows so the re-optimizer can
		// rebuild the table against the observed workload
		shards := req.Shards
		if shards < 1 {
			shards = 1
		}
		s.respondCreated(w, req.Name, s.sess.RegisterAdaptive(req.Name, tbl, opt, shards))
		return
	}
	if req.Shards > 1 {
		eng, schema, err := pass.BuildShardedEngine(tbl, opt, req.Shards)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		s.respondCreated(w, req.Name, s.sess.RegisterEngine(req.Name, eng, schema))
		return
	}
	syn, err := pass.BuildAuto(tbl, opt)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.respondCreated(w, req.Name, s.sess.Register(req.Name, syn))
}

// respondCreated maps a registration outcome to the create-table response:
// name collisions are conflicts, build failures are client mistakes,
// persistence failures are server faults, and success returns the
// registered table's info (shard stats included).
func (s *server) respondCreated(w http.ResponseWriter, name string, err error) {
	if err != nil {
		// persistence failures (disk full, I/O errors) are server-side
		// faults; a name collision or options no synopsis can be built
		// with (the adaptive path builds inside registration) are not
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, catalog.ErrExists):
			status = http.StatusConflict
		case errors.Is(err, pass.ErrBuild):
			status = http.StatusBadRequest
		}
		httpError(w, status, err)
		return
	}
	for _, ti := range s.sess.Tables() {
		if strings.EqualFold(ti.Name, name) {
			writeJSON(w, http.StatusCreated, createTableResponse{TableInfo: ti, Persisted: s.sess.Persistent()})
			return
		}
	}
	writeJSON(w, http.StatusCreated, map[string]string{"name": name})
}

// createTableResponse is a TableInfo plus the durability outcome.
type createTableResponse struct {
	pass.TableInfo
	// Persisted reports whether the table was snapshotted into the data
	// directory: false only on a server without -data-dir.
	Persisted bool `json:"persisted"`
}

// insertRowsRequest carries tuples for POST /tables/{name}/rows.
type insertRowsRequest struct {
	Rows []insertRow `json:"rows"`
}

type insertRow struct {
	// Point holds the predicate column values, in schema order.
	Point []float64 `json:"point"`
	// Value is the aggregate column value.
	Value float64 `json:"value"`
}

func (s *server) handleInsertRows(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req insertRowsRequest
	if !readBody(s, w, r, &req, decodeInsertRows) {
		return
	}
	if len(req.Rows) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf(`"rows" is required`))
		return
	}
	points := make([][]float64, len(req.Rows))
	values := make([]float64, len(req.Rows))
	for i, row := range req.Rows {
		points[i], values[i] = row.Point, row.Value
	}
	// one lock acquisition and one group-committed journal write for the
	// whole batch, not one fsync per row
	n, err := s.sess.InsertMany(name, points, values)
	if err != nil {
		// a degraded table rejects writes while reads keep serving: that is
		// a (possibly transient) server-side storage fault, not a bad request
		status := http.StatusUnprocessableEntity
		if errors.Is(err, store.ErrDegraded) {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, map[string]any{
			"error":    err.Error(),
			"inserted": n,
		})
		return
	}
	respond(w, http.StatusOK, false, func(b []byte) ([]byte, error) { return appendInserted(b, n), nil })
}

func (s *server) handleDropTable(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.sess.Drop(name); err != nil {
		httpError(w, tableErrStatus(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// tableErrStatus maps the failure of an operation on a named table to its
// status: 404 when no table is registered under the name, 500 for
// everything else — a drop whose files could not be unlinked is a server
// fault, and those files would bring the table back at the next boot.
func tableErrStatus(err error) int {
	if errors.Is(err, catalog.ErrUnknownTable) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// writeJSON answers v as two-space indented JSON, the form of every
// endpoint but /query.
func writeJSON(w http.ResponseWriter, status int, v any) {
	respond(w, status, false, func(b []byte) ([]byte, error) { return encodeJSON(b, v, false) })
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
