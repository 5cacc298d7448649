package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/pass"
)

// HTTP-layer instruments: every request through the server (health
// probes included) lands here via the logRequests middleware.
var (
	httpRequests = obs.Default().NewCounter("pass_http_requests_total", "HTTP requests served")
	httpErrors   = obs.Default().NewCounter("pass_http_errors_total", "HTTP requests answered with status >= 500")
	httpDuration = obs.Default().NewHistogram("pass_http_request_duration_seconds", "HTTP request latency", nil)
)

// registerCollectors bridges the session-owned statistics into the
// process-wide registry as scrape-time collector funcs — the stats keep
// living where they always did (plan cache, per-table scatter
// counters), and GET /metrics reads them through one pane of
// glass instead of a second copy. Re-registration replaces, so a fresh
// server in the same process (tests) simply rebinds the names.
func registerCollectors(sess *pass.Session) {
	reg := obs.Default()
	reg.CounterFunc("pass_plan_cache_hits_total", "prepared-plan cache hits",
		func() float64 { return float64(sess.PlanCacheStats().Hits) })
	reg.CounterFunc("pass_plan_cache_misses_total", "prepared-plan cache misses",
		func() float64 { return float64(sess.PlanCacheStats().Misses) })
	reg.CounterFunc("pass_plan_cache_evictions_total", "prepared-plan cache evictions",
		func() float64 { return float64(sess.PlanCacheStats().Evictions) })
	reg.GaugeFunc("pass_plan_cache_entries", "prepared-plan cache live entries",
		func() float64 { return float64(sess.PlanCacheStats().Entries) })

	reg.GaugeFunc("pass_tables", "registered tables",
		func() float64 { return float64(len(sess.Tables())) })
	reg.GaugeFunc("pass_degraded_tables", "tables in read-only degraded mode",
		func() float64 { return float64(len(sess.DegradedTables())) })

	reg.CounterFunc("pass_shard_scatter_total", "(query, shard) executions across sharded tables",
		func() float64 {
			total := int64(0)
			for _, t := range sess.Tables() {
				for _, c := range t.ShardScatter {
					total += c
				}
			}
			return float64(total)
		})
	reg.CounterFunc("pass_shard_pruned_total", "(query, shard) pairs skipped by scatter pruning",
		func() float64 {
			total := int64(0)
			for _, t := range sess.Tables() {
				total += t.ShardPruned
			}
			return float64(total)
		})
	reg.CounterFunc("pass_shard_streamed_total", "shard partials folded into streaming merges",
		func() float64 {
			total := int64(0)
			for _, t := range sess.Tables() {
				total += t.ShardStreamed
			}
			return float64(total)
		})
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.Default().WritePrometheus(w)
}

// handleMetricsHistory serves the in-memory metrics time series: windowed
// rates and trends computed over the ring, plus the raw samples (or one
// series with ?series=name). The window is bounded by -metrics-history ×
// -metrics-history-every; there is no external TSDB behind it.
func (s *server) handleMetricsHistory(w http.ResponseWriter, r *http.Request) {
	if s.history == nil {
		httpError(w, http.StatusConflict, fmt.Errorf("metrics history is off (start passd with -metrics-history > 0)"))
		return
	}
	h := s.history
	window := time.Minute
	if raw := r.URL.Query().Get("window"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d <= 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad window %q: want a positive duration like 5m", raw))
			return
		}
		window = d
	}
	resp := map[string]any{
		"interval_ms":  h.Interval().Milliseconds(),
		"samples_held": h.Len(),
		"window_ms":    window.Milliseconds(),
		"trends":       historyTrends(h, window),
	}
	if name := r.URL.Query().Get("series"); name != "" {
		resp["series"] = name
		resp["points"] = h.Series(name)
	} else {
		resp["samples"] = h.Samples()
	}
	writeJSON(w, http.StatusOK, resp)
}

// historyTrends derives the headline windowed readings an operator asks
// for first: QPS, error rate, tail latency, coverage posture.
func historyTrends(h *obs.History, window time.Duration) map[string]any {
	trends := map[string]any{}
	if qps, ok := h.Rate("pass_queries_total", window); ok {
		trends["qps"] = qps
	}
	if eps, ok := h.Rate("pass_query_errors_total", window); ok {
		trends["query_errors_per_s"] = eps
	}
	if p99, ok := h.Last("pass_query_duration_seconds_p99"); ok {
		trends["query_p99_ms"] = p99 * 1000
	}
	if breached, ok := h.Last("pass_slo_breached"); ok {
		trends["slo_breached"] = breached != 0
	}
	if audits, ok := h.Rate("pass_audit_enqueued_total", window); ok {
		trends["audits_per_s"] = audits
	}
	return trends
}

// handleAudit serves the accuracy-audit report: per-stream empirical
// coverage, relative error, hard-bound violations, and the SLO verdict.
func (s *server) handleAudit(w http.ResponseWriter, r *http.Request) {
	rep, ok := s.sess.AuditReport()
	if !ok {
		httpError(w, http.StatusConflict, fmt.Errorf("accuracy auditing is off (start passd with -audit-sample > 0)"))
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// statusRecorder captures the status code and body size a handler wrote,
// for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	n, err := sr.ResponseWriter.Write(b)
	sr.bytes += int64(n)
	return n, err
}

// logRequests is the outermost middleware: it times every request,
// records the HTTP instruments, and (when a request log is attached)
// emits one JSON line per request — method, path, status, duration,
// response bytes. It replaces the unstructured per-request prints.
func (s *server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		d := time.Since(start)
		httpRequests.Inc()
		if rec.status >= 500 {
			httpErrors.Inc()
		}
		httpDuration.ObserveDuration(d)
		s.reqLog.EmitHTTPRequest(r.Method, r.URL.Path, rec.status, float64(d.Microseconds())/1000, rec.bytes)
	})
}

// startSelfReport periodically emits histogram snapshots and headline
// counters to the structured log — a heartbeat an operator can grep
// without scraping /metrics. Stops when ctx ends.
func startSelfReport(ctx context.Context, every time.Duration, logw *obs.JSONLog) {
	if every <= 0 || logw == nil {
		return
	}
	queries := obs.Default().NewHistogram("pass_query_duration_seconds", "SQL statement execution latency", nil)
	requests := obs.Default().NewHistogram("pass_http_request_duration_seconds", "HTTP request latency", nil)
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				q := queries.Snapshot()
				h := requests.Snapshot()
				logw.Emit("self_report", map[string]any{
					"queries":          q.Count,
					"query_p50_ms":     q.P50 * 1000,
					"query_p95_ms":     q.P95 * 1000,
					"query_p99_ms":     q.P99 * 1000,
					"http_requests":    h.Count,
					"http_p95_ms":      h.P95 * 1000,
					"query_errors":     obs.Default().NewCounter("pass_query_errors_total", "").Value(),
					"merge_pool_reuse": poolReuse(),
				})
			}
		}
	}()
}

// poolReuse reads the merge-pool reuse figure from the registry counters.
func poolReuse() int64 {
	reg := obs.Default()
	return reg.NewCounter("pass_merge_pool_acquires_total", "").Value() -
		reg.NewCounter("pass_merge_pool_allocs_total", "").Value()
}
