package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/pass"
)

// getJSON fetches and decodes a GET endpoint.
func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return out
}

// adaptiveServer spins up an httptest passd with adaptive serving on
// (manual re-optimization).
func adaptiveServer(t *testing.T) *httptest.Server {
	t.Helper()
	sess := pass.NewSession()
	if err := sess.EnableAdaptive(pass.AdaptiveConfig{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	ts := httptest.NewServer(newServer(sess).handler())
	t.Cleanup(ts.Close)
	return ts
}

// skewCSV builds a high-variance 1D table the hot-range queries stay
// inexact on until a workload-aligned rebuild.
func skewCSV(rows int) string {
	var sb strings.Builder
	sb.WriteString("x,v\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d,%g\n", i, float64(i%97)+50*float64(i%13))
	}
	return sb.String()
}

func queryScalar(t *testing.T, url, sql string) map[string]any {
	t.Helper()
	_, out := postJSON(t, url+"/query", map[string]any{"sql": sql})
	results := out["results"].([]any)
	r0 := results[0].(map[string]any)
	if e, ok := r0["error"]; ok {
		t.Fatalf("query %q: %v", sql, e)
	}
	if r0["no_match"] == true {
		return nil
	}
	return r0["scalar"].(map[string]any)
}

const hotRangeSQL = "SELECT SUM(v) FROM skew WHERE x BETWEEN 123 AND 777"

// TestHTTPAdaptiveTwinAndInvalidation is the HTTP-level twin test: an
// adaptive server and a plain one over the same CSV must agree on every
// answer — including after inserts, which every later read must reflect.
func TestHTTPAdaptiveTwinAndInvalidation(t *testing.T) {
	adaptiveTS, plainTS := adaptiveServer(t), testServer(t)
	csv := skewCSV(4000)
	for _, ts := range []*httptest.Server{adaptiveTS, plainTS} {
		resp, body := postJSON(t, ts.URL+"/tables", map[string]any{
			"name": "skew", "csv": csv, "partitions": 16, "sample_rate": 0.02, "seed": 3,
		})
		if resp.StatusCode != 201 {
			t.Fatalf("create: %d %v", resp.StatusCode, body)
		}
	}
	stmts := []string{
		hotRangeSQL,
		"SELECT COUNT(*) FROM skew WHERE x >= 100",
		"SELECT AVG(v) FROM skew WHERE x BETWEEN 50 AND 3000",
		"SELECT MIN(v) FROM skew WHERE x BETWEEN 999999 AND 1000000", // empty
		hotRangeSQL, // repeat
	}
	compare := func(round string) {
		t.Helper()
		for _, sql := range stmts {
			got := queryScalar(t, adaptiveTS.URL, sql)
			want := queryScalar(t, plainTS.URL, sql)
			if (got == nil) != (want == nil) {
				t.Fatalf("%s %q: no_match mismatch (%v vs %v)", round, sql, got, want)
			}
			if got == nil {
				continue
			}
			ge, we := got["estimate"].(float64), want["estimate"].(float64)
			if math.Abs(ge-we) > 1e-12 {
				t.Fatalf("%s %q: adaptive %v vs plain %v", round, sql, ge, we)
			}
		}
	}
	compare("cold")
	compare("warm")

	// the collector observed both rounds, visible in GET /tables
	listing := getJSON(t, adaptiveTS.URL+"/tables")
	tbl0 := listing["tables"].([]any)[0].(map[string]any)
	ad := tbl0["adaptive"].(map[string]any)
	if ad["window_queries"].(float64) == 0 {
		t.Fatalf("per-table adaptive stats missing: %v", ad)
	}

	// inserts through the HTTP path are visible to every later read
	rows := []map[string]any{}
	for i := 0; i < 20; i++ {
		rows = append(rows, map[string]any{"point": []float64{float64(200 + i)}, "value": 500.5})
	}
	for _, ts := range []*httptest.Server{adaptiveTS, plainTS} {
		if resp, body := postJSON(t, ts.URL+"/tables/skew/rows", map[string]any{"rows": rows}); resp.StatusCode != 200 {
			t.Fatalf("insert: %d %v", resp.StatusCode, body)
		}
	}
	compare("post-insert")
}

// TestHTTPReoptimize drives a skewed workload over HTTP, triggers the
// manual re-optimization endpoint, and asserts the hot range flips from
// estimated to exact while the answer stays consistent.
func TestHTTPReoptimize(t *testing.T) {
	ts := adaptiveServer(t)
	if resp, body := postJSON(t, ts.URL+"/tables", map[string]any{
		"name": "skew", "csv": skewCSV(4000), "partitions": 16, "sample_rate": 0.02, "seed": 3,
	}); resp.StatusCode != 201 {
		t.Fatalf("create: %d %v", resp.StatusCode, body)
	}
	var before map[string]any
	for i := 0; i < 10; i++ {
		before = queryScalar(t, ts.URL, hotRangeSQL)
	}
	if before["exact"] == true {
		t.Fatal("premise broken: hot range already exact")
	}
	resp, out := postJSON(t, ts.URL+"/tables/skew/reoptimize", map[string]any{})
	if resp.StatusCode != 200 || out["rebuilt"] != true {
		t.Fatalf("reoptimize: %d %v", resp.StatusCode, out)
	}
	after := queryScalar(t, ts.URL, hotRangeSQL)
	if after["exact"] != true {
		t.Fatalf("hot range still inexact after re-optimization: %v", after)
	}
	// re-optimization history lands in GET /tables
	listing := getJSON(t, ts.URL+"/tables")
	ad := listing["tables"].([]any)[0].(map[string]any)["adaptive"].(map[string]any)
	if ad["rebuilds"].(float64) != 1 || ad["rebuildable"] != true {
		t.Fatalf("adaptive info = %v", ad)
	}

	// unknown table and non-adaptive server error paths
	if resp, _ := postJSON(t, ts.URL+"/tables/nope/reoptimize", map[string]any{}); resp.StatusCode != 404 {
		t.Fatalf("reoptimize unknown table: %d", resp.StatusCode)
	}
	plain := testServer(t)
	if resp, _ := postJSON(t, plain.URL+"/tables/skew/reoptimize", map[string]any{}); resp.StatusCode != 409 {
		t.Fatalf("reoptimize without -adaptive: %d", resp.StatusCode)
	}
}

// TestHTTPAdaptiveConcurrentInsertQuery hammers the adaptive query path
// while rows stream in over HTTP: per-goroutine counts must never
// decrease (the HTTP-level stale-read check).
func TestHTTPAdaptiveConcurrentInsertQuery(t *testing.T) {
	ts := adaptiveServer(t)
	if resp, body := postJSON(t, ts.URL+"/tables", map[string]any{
		"name": "skew", "csv": skewCSV(2000), "partitions": 16, "sample_rate": 0.05, "seed": 3,
	}); resp.StatusCode != 201 {
		t.Fatalf("create: %d %v", resp.StatusCode, body)
	}
	const countSQL = "SELECT COUNT(*) FROM skew WHERE x >= 0"
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := -1.0
			for {
				select {
				case <-stop:
					return
				default:
				}
				sc := queryScalar(t, ts.URL, countSQL)
				if est := sc["estimate"].(float64); est < last {
					t.Errorf("count went back: %v after %v", est, last)
					return
				} else {
					last = est
				}
			}
		}()
	}
	const inserts = 60
	for i := 0; i < inserts; i++ {
		postJSON(t, ts.URL+"/tables/skew/rows", map[string]any{
			"rows": []map[string]any{{"point": []float64{float64(i)}, "value": 1}},
		})
	}
	close(stop)
	wg.Wait()
	if got := queryScalar(t, ts.URL, countSQL)["estimate"].(float64); got != 2000+inserts {
		t.Fatalf("final count = %v, want %d", got, 2000+inserts)
	}
}

// TestCreateTableBuildErrorIsClientError: options no synopsis can be
// built with are a client mistake at every shard count, with and without
// the adaptive layer — one option rule, since every create goes through
// Session.CreateTable. None may count as a server error.
func TestCreateTableBuildErrorIsClientError(t *testing.T) {
	servers := []struct {
		name string
		ts   *httptest.Server
	}{{"plain", testServer(t)}, {"adaptive", adaptiveServer(t)}}
	var bodies []map[string]any
	for _, shards := range []int{1, 4} {
		bodies = append(bodies,
			map[string]any{"name": "bad", "csv": skewCSV(200), "sample_rate": 2, "shards": shards},
			map[string]any{"name": "bad", "csv": skewCSV(200), "partitions": -5, "shards": shards},
		)
	}
	for _, srv := range servers {
		for _, body := range bodies {
			before := httpErrors.Value()
			resp, out := postJSON(t, srv.ts.URL+"/tables", body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %v: status %d (%v), want 400", srv.name, body, resp.StatusCode, out)
			}
			if d := httpErrors.Value() - before; d != 0 {
				t.Errorf("%s %v: pass_http_errors_total moved by %d", srv.name, body, d)
			}
		}
	}
}
