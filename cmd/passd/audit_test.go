package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/pass"
)

// auditServer boots an httptest passd with adaptive serving plus the
// accuracy auditor in manual mode (scoring on AuditFlush, budgets on
// SLOEvaluate) and a metrics-history ring attached, mirroring what
// -audit-sample / -slo-* / -metrics-history wire up in main.
func auditServer(t *testing.T, cfg pass.AuditConfig) (*httptest.Server, *pass.Session, *server) {
	t.Helper()
	sess := pass.NewSession()
	if err := sess.EnableAdaptive(pass.AdaptiveConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := sess.EnableAudit(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	srv := newServer(sess)
	registerCollectors(sess)
	obs.RegisterRuntimeMetrics(nil)
	srv.history = obs.NewHistory(nil, 64)
	srv.ready.Store(true)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts, sess, srv
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestHTTPAuditReport drives queries over HTTP against an audited table
// and checks the whole reporting surface: GET /audit, the audit blocks
// on GET /tables, the clean /readyz, and the audit series plus runtime
// collectors on /metrics. A plain server answers 409 on the new routes.
func TestHTTPAuditReport(t *testing.T) {
	plain := testServer(t)
	if code := getStatus(t, plain.URL+"/audit"); code != http.StatusConflict {
		t.Fatalf("GET /audit without auditing: %d, want 409", code)
	}
	if code := getStatus(t, plain.URL+"/metrics/history"); code != http.StatusConflict {
		t.Fatalf("GET /metrics/history without history: %d, want 409", code)
	}

	ts, sess, _ := auditServer(t, pass.AuditConfig{
		SampleFraction: 1, QueueSize: 8192, Manual: true,
		SLOCoverage: 0.9, SLOMinEvents: 5, SLOWindowTicks: 4,
	})
	if resp, body := postJSON(t, ts.URL+"/tables", map[string]any{
		"name": "skew", "csv": skewCSV(3000), "partitions": 16, "sample_rate": 0.02, "seed": 3,
	}); resp.StatusCode != 201 {
		t.Fatalf("create: %d %v", resp.StatusCode, body)
	}
	for i := 0; i < 15; i++ {
		queryScalar(t, ts.URL, hotRangeSQL)
		queryScalar(t, ts.URL, "SELECT COUNT(*) FROM skew WHERE x >= 100")
	}
	sess.AuditFlush()
	sess.SLOEvaluate()

	rep := getJSON(t, ts.URL+"/audit")
	if rep["sample_fraction"].(float64) != 1 {
		t.Fatalf("sample_fraction: %v", rep["sample_fraction"])
	}
	streams := rep["streams"].([]any)
	if len(streams) == 0 {
		t.Fatal("no audit streams after 30 audited queries")
	}
	var audited, hardViol float64
	for _, raw := range streams {
		st := raw.(map[string]any)
		if st["table"].(string) != "skew" {
			t.Fatalf("unexpected stream table: %v", st)
		}
		audited += st["audited"].(float64)
		hardViol += st["hard_violations"].(float64)
	}
	if audited == 0 || hardViol != 0 {
		t.Fatalf("audited=%v hard_violations=%v, want >0 and 0", audited, hardViol)
	}
	slo := rep["slo"].(map[string]any)
	if slo["breached"].(bool) || slo["evaluations"].(float64) == 0 {
		t.Fatalf("healthy SLO verdict wrong: %v", slo)
	}

	// the listing carries the session-wide audit block and per-table stats
	listing := getJSON(t, ts.URL+"/tables")
	ab := listing["audit"].(map[string]any)
	if ab["sample_fraction"].(float64) != 1 || ab["slo"] == nil {
		t.Fatalf("listing audit block: %v", ab)
	}
	tbl0 := listing["tables"].([]any)[0].(map[string]any)
	ta := tbl0["audit"].(map[string]any)
	if ta["audited"].(float64) == 0 || ta["coverage"].(float64) < 0.9 {
		t.Fatalf("per-table audit stats: %v", ta)
	}

	// healthy run: readyz stays clean of SLO annotations
	ready := getJSON(t, ts.URL+"/readyz")
	if ready["status"] != "ready" {
		t.Fatalf("readyz: %v", ready)
	}
	if _, ok := ready["slo_breached"]; ok {
		t.Fatalf("healthy readyz must not carry slo_breached: %v", ready)
	}

	// audit series and runtime collectors surface on /metrics
	samples := scrape(t, ts.URL)
	var sawAudit bool
	for name := range samples {
		if strings.HasPrefix(name, `pass_audit_audited_total{`) {
			sawAudit = true
		}
	}
	if !sawAudit {
		t.Fatal("no pass_audit_audited_total series on /metrics")
	}
	if samples["go_goroutines"] < 1 {
		t.Fatalf("go_goroutines = %v, want >= 1", samples["go_goroutines"])
	}
	if samples["go_heap_bytes"] <= 0 {
		t.Fatalf("go_heap_bytes = %v, want > 0", samples["go_heap_bytes"])
	}
}

// TestHTTPReadyzSLOBreach arms an unmeetable latency objective, burns
// the budget, and checks the breach is visible on /readyz and /tables
// without flipping readiness.
func TestHTTPReadyzSLOBreach(t *testing.T) {
	ts, sess, _ := auditServer(t, pass.AuditConfig{
		SampleFraction: -1, Manual: true, // SLO only, nothing sampled
		SLOP99: time.Nanosecond, SLOMinEvents: 1, SLOWindowTicks: 4,
	})
	if resp, body := postJSON(t, ts.URL+"/tables", map[string]any{
		"name": "skew", "csv": skewCSV(500), "partitions": 8, "sample_rate": 0.05, "seed": 3,
	}); resp.StatusCode != 201 {
		t.Fatalf("create: %d %v", resp.StatusCode, body)
	}
	sess.SLOEvaluate() // baseline tick
	for i := 0; i < 10; i++ {
		queryScalar(t, ts.URL, hotRangeSQL) // every query runs longer than 1ns
	}
	sess.SLOEvaluate()

	ready := getJSON(t, ts.URL+"/readyz")
	if ready["status"] != "ready" {
		t.Fatalf("SLO breach must not flip readiness: %v", ready)
	}
	if ready["slo_breached"] != true {
		t.Fatalf("readyz missing slo_breached: %v", ready)
	}
	causes := ready["slo_causes"].([]any)
	if len(causes) == 0 || causes[0].(map[string]any)["objective"] != "latency_p99" {
		t.Fatalf("slo_causes: %v", causes)
	}
	listing := getJSON(t, ts.URL+"/tables")
	slo := listing["audit"].(map[string]any)["slo"].(map[string]any)
	if slo["breached"] != true {
		t.Fatalf("listing SLO verdict: %v", slo)
	}
}

// TestHTTPMetricsHistory exercises the ring endpoint: trends plus raw
// samples by default, one series with ?series=, 400 on a bad window.
func TestHTTPMetricsHistory(t *testing.T) {
	ts, _, srv := auditServer(t, pass.AuditConfig{SampleFraction: 1, Manual: true})
	if resp, body := postJSON(t, ts.URL+"/tables", map[string]any{
		"name": "skew", "csv": skewCSV(500), "partitions": 8, "sample_rate": 0.05, "seed": 3,
	}); resp.StatusCode != 201 {
		t.Fatalf("create: %d %v", resp.StatusCode, body)
	}
	srv.history.Record()
	for i := 0; i < 5; i++ {
		queryScalar(t, ts.URL, hotRangeSQL)
	}
	srv.history.Record()

	hist := getJSON(t, ts.URL+"/metrics/history")
	if hist["samples_held"].(float64) != 2 {
		t.Fatalf("samples_held: %v", hist["samples_held"])
	}
	if len(hist["samples"].([]any)) != 2 {
		t.Fatalf("samples: %v", hist["samples"])
	}
	trends := hist["trends"].(map[string]any)
	if _, ok := trends["qps"]; !ok {
		t.Fatalf("trends missing qps: %v", trends)
	}

	one := getJSON(t, ts.URL+"/metrics/history?series=pass_queries_total&window=5m")
	if one["series"] != "pass_queries_total" {
		t.Fatalf("series echo: %v", one["series"])
	}
	pts := one["points"].([]any)
	if len(pts) != 2 {
		t.Fatalf("points: %v", pts)
	}
	if _, ok := one["samples"]; ok {
		t.Fatal("?series= response must not carry the full samples")
	}
	if got := one["window_ms"].(float64); got != float64((5 * time.Minute).Milliseconds()) {
		t.Fatalf("window_ms echo: %v", got)
	}

	if code := getStatus(t, ts.URL+"/metrics/history?window=banana"); code != http.StatusBadRequest {
		t.Fatalf("bad window: %d, want 400", code)
	}
}
