package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/pass"
)

// obsServer is testServer plus the observability wiring main() performs:
// collectors bridged to the registry and a capturable request log.
func obsServer(t *testing.T) (*httptest.Server, *bytes.Buffer) {
	t.Helper()
	sess := pass.NewSession()
	srv := newServer(sess)
	registerCollectors(sess)
	var logBuf bytes.Buffer
	srv.reqLog = obs.NewJSONLog(&logBuf)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts, &logBuf
}

// scrape fetches /metrics and parses the exposition into name → samples,
// failing the test on any line that is neither a comment nor a sample.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	samples := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed exposition line: %q", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("non-numeric sample in %q: %v", line, err)
		}
		samples[fields[0]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestMetricsEndpoint is the observability smoke scenario: after serving
// real queries, /metrics exposes nonzero latency histogram buckets and
// the bridged plan-cache and shard counters.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := obsServer(t)
	if resp, body := postJSON(t, ts.URL+"/tables", map[string]any{
		"name": "sensors", "csv": sensorCSV(2400), "partitions": 16, "sample_rate": 0.05, "shards": 2,
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create table: HTTP %d (%v)", resp.StatusCode, body)
	}
	for i := 0; i < 3; i++ {
		if resp, body := postJSON(t, ts.URL+"/query", map[string]any{
			"sql": "SELECT SUM(light) FROM sensors WHERE hour BETWEEN 6 AND 18",
		}); resp.StatusCode != http.StatusOK {
			t.Fatalf("query: HTTP %d (%v)", resp.StatusCode, body)
		}
	}

	samples := scrape(t, ts.URL)
	if got := samples["pass_query_duration_seconds_count"]; got < 3 {
		t.Errorf("pass_query_duration_seconds_count = %v, want >= 3", got)
	}
	if got := samples[`pass_query_duration_seconds_bucket{le="+Inf"}`]; got < 3 {
		t.Errorf("+Inf bucket = %v, want >= 3", got)
	}
	// plan cache: first statement missed, the repeats hit
	if samples["pass_plan_cache_misses_total"] < 1 || samples["pass_plan_cache_hits_total"] < 2 {
		t.Errorf("plan cache hits=%v misses=%v, want >=2 / >=1",
			samples["pass_plan_cache_hits_total"], samples["pass_plan_cache_misses_total"])
	}
	// sharded table: scatter executions were recorded
	if got := samples["pass_shard_scatter_total"]; got < 1 {
		t.Errorf("pass_shard_scatter_total = %v, want >= 1", got)
	}
	if got := samples["pass_tables"]; got != 1 {
		t.Errorf("pass_tables = %v, want 1", got)
	}
	// the HTTP layer observed the requests above
	if got := samples["pass_http_requests_total"]; got < 4 {
		t.Errorf("pass_http_requests_total = %v, want >= 4", got)
	}
}

// TestRequestLog checks the structured per-request JSON log line.
func TestRequestLog(t *testing.T) {
	ts, logBuf := obsServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	line, err := bufio.NewReader(logBuf).ReadString('\n')
	if err != nil {
		t.Fatalf("no request log line: %v", err)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("request log is not JSON: %v\n%s", err, line)
	}
	if rec["event"] != "http_request" || rec["method"] != "GET" || rec["path"] != "/healthz" {
		t.Errorf("record: %+v", rec)
	}
	if st, _ := rec["status"].(float64); st != http.StatusOK {
		t.Errorf("status = %v, want 200", rec["status"])
	}
	if b, _ := rec["bytes"].(float64); b <= 0 {
		t.Errorf("bytes = %v, want > 0", rec["bytes"])
	}
	if _, ok := rec["duration_ms"]; !ok {
		t.Error("missing duration_ms")
	}
	if _, ok := rec["ts"]; !ok {
		t.Error("missing ts")
	}
}

// TestExplainAnalyzeOverHTTP runs the twin over the wire: the traced
// statement carries a span tree and the identical answer.
func TestExplainAnalyzeOverHTTP(t *testing.T) {
	ts, _ := obsServer(t)
	if resp, body := postJSON(t, ts.URL+"/tables", map[string]any{
		"name": "sensors", "csv": sensorCSV(2400), "partitions": 16, "sample_rate": 0.05,
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create table: HTTP %d (%v)", resp.StatusCode, body)
	}
	const q = "SELECT SUM(light) FROM sensors WHERE hour BETWEEN 6 AND 18"
	_, plain := postJSON(t, ts.URL+"/query", map[string]any{"sql": q})
	_, traced := postJSON(t, ts.URL+"/query", map[string]any{"sql": "EXPLAIN ANALYZE " + q})

	pr := plain["results"].([]any)[0].(map[string]any)
	tr := traced["results"].([]any)[0].(map[string]any)
	if pr["trace"] != nil {
		t.Error("plain statement must carry no trace")
	}
	trace, ok := tr["trace"].(map[string]any)
	if !ok {
		t.Fatalf("EXPLAIN ANALYZE response carries no trace: %v", tr)
	}
	if trace["name"] != "query" {
		t.Errorf("root span = %v, want query", trace["name"])
	}
	if d, _ := trace["duration_us"].(float64); d <= 0 {
		t.Errorf("root duration_us = %v, want > 0", trace["duration_us"])
	}
	if _, ok := trace["children"].([]any); !ok {
		t.Error("trace has no children (compile/execute spans missing)")
	}
	ps := pr["scalar"].(map[string]any)
	tsc := tr["scalar"].(map[string]any)
	if ps["estimate"] != tsc["estimate"] {
		t.Errorf("traced estimate %v differs from plain %v", tsc["estimate"], ps["estimate"])
	}
}

// TestPprofGate checks /debug/pprof/ is absent by default and mounted
// with -pprof.
func TestPprofGate(t *testing.T) {
	off := testServer(t)
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Errorf("pprof served without -pprof (HTTP %d)", resp.StatusCode)
	}

	srv := newServer(pass.NewSession())
	srv.pprofOn = true
	on := httptest.NewServer(srv.handler())
	t.Cleanup(on.Close)
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index with -pprof: HTTP %d, want 200", resp.StatusCode)
	}
}

// TestMetricsTableMatchesRegistry: the metric families GET /metrics
// exposes — on a passd with auditing and both SLO objectives on, after
// one audited query and one insert — are exactly the families the
// docs/OPERATIONS.md metrics table lists, so neither can drift from the
// other.
func TestMetricsTableMatchesRegistry(t *testing.T) {
	ts, sess, _ := auditServer(t, pass.AuditConfig{
		SampleFraction: 1, QueueSize: 64, Manual: true,
		SLOCoverage: 0.9, SLOP99: time.Second,
	})
	if resp, body := postJSON(t, ts.URL+"/tables", map[string]any{
		"name": "skew", "csv": skewCSV(500), "partitions": 8, "sample_rate": 0.1, "seed": 3,
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %v", resp.StatusCode, body)
	}
	queryScalar(t, ts.URL, hotRangeSQL)
	sess.AuditFlush() // before the insert, which would make the sample stale
	if resp, body := postJSON(t, ts.URL+"/tables/skew/rows", map[string]any{
		"rows": []map[string]any{{"point": []float64{7}, "value": 1}},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %d %v", resp.StatusCode, body)
	}
	sess.SLOEvaluate()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	scraped := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			scraped[f[2]] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	documented := documentedMetrics(t, "../../docs/OPERATIONS.md")
	for name := range scraped {
		if !documented[name] {
			t.Errorf("%s is exposed on /metrics but missing from the OPERATIONS.md metrics table", name)
		}
	}
	for name := range documented {
		if !scraped[name] {
			t.Errorf("%s is in the OPERATIONS.md metrics table but not exposed on /metrics", name)
		}
	}
}

// documentedMetrics reads the family names in the first column of the
// OPERATIONS.md metrics table (the one headed "| Metric | Type |"):
// every backquoted name, with `{a,b}` alternatives expanded and
// `{label=}` suffixes dropped.
func documentedMetrics(t *testing.T, path string) map[string]bool {
	t.Helper()
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "| Metric | Type | Meaning |\n")
	if !ok {
		t.Fatalf("%s has no metrics table", path)
	}
	out := map[string]bool{}
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(line, "|")
		for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(cells[1], -1) {
			for _, name := range expandMetric(m[1]) {
				out[name] = true
			}
		}
	}
	if len(out) == 0 {
		t.Fatalf("%s: empty metrics table", path)
	}
	return out
}

// expandMetric turns a documented name pattern into family names:
// "a_{x,y}_total{label=}" → a_x_total, a_y_total.
func expandMetric(pattern string) []string {
	open := strings.IndexByte(pattern, '{')
	if open < 0 {
		return []string{pattern}
	}
	end := open + strings.IndexByte(pattern[open:], '}')
	head, group, tail := pattern[:open], pattern[open+1:end], pattern[end+1:]
	if strings.Contains(group, "=") {
		return expandMetric(head + tail)
	}
	var out []string
	for _, alt := range strings.Split(group, ",") {
		out = append(out, expandMetric(head+alt+tail)...)
	}
	return out
}
