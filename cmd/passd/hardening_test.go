package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/engine/factory"
	"repro/internal/shard"
	"repro/internal/sqlfe"
	"repro/internal/store"
	"repro/internal/vfs"
	"repro/pass"
)

func TestHealthzAndReadyz(t *testing.T) {
	srv := newServer(pass.NewSession())
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	get := func(path string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
		return resp, body
	}

	// liveness holds regardless of readiness
	if resp, body := get("/healthz"); resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz = %d %v, want 200 ok", resp.StatusCode, body)
	}
	// before startup completes the server is alive but not ready
	if resp, _ := get("/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz before ready = %d, want 503", resp.StatusCode)
	}
	srv.ready.Store(true)
	if resp, body := get("/readyz"); resp.StatusCode != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("readyz after ready = %d %v, want 200 ready", resp.StatusCode, body)
	}
	// shutdown flips readiness back off while healthz keeps answering
	srv.ready.Store(false)
	if resp, _ := get("/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during shutdown = %d, want 503", resp.StatusCode)
	}
	if resp, _ := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during shutdown = %d, want 200", resp.StatusCode)
	}
}

// TestMalformedJSONReturns400 is the regression test for garbage request
// bodies: every JSON endpoint must answer 400 with a JSON error body, not
// a hung read or an empty reply.
func TestMalformedJSONReturns400(t *testing.T) {
	ts := testServer(t)
	for _, tc := range []struct{ path, body string }{
		{"/query", `{not json`},
		{"/query", `{"sql": "SELECT 1"} trailing garbage`},
		{"/tables", `[1,2,`},
		{"/tables/x/rows", `"rows"`},
		// a closing bracket after the body is trailing data too
		{"/query", `{"sql":"SELECT 1"}}`},
		{"/tables", `{"name":"t","csv":"a,b\n1,2\n"}]`},
		{"/tables/x/rows", `{"rows":[{"point":[1],"value":2}]}]`},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		decodeErr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s with %q = %d, want 400", tc.path, tc.body, resp.StatusCode)
		}
		if decodeErr != nil || body["error"] == "" {
			t.Errorf("POST %s with %q: error body = %v (%v), want a JSON error", tc.path, tc.body, body, decodeErr)
		}
	}
}

// TestNonFiniteCSVReturns400: a table load whose CSV holds a NaN is the
// client's mistake, answered 400 naming the row and column, and no table
// is built from it (one NaN would make every SUM over the table a 500).
func TestNonFiniteCSVReturns400(t *testing.T) {
	ts := testServer(t)
	csv := sensorCSV(100) + "5,NaN\n"
	resp, body := postJSON(t, ts.URL+"/tables", map[string]any{"name": "sensors", "csv": csv, "partitions": 8})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("create with a NaN aggregate = %d %v, want 400", resp.StatusCode, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, `row 101 aggregate column "light"`) {
		t.Fatalf("error = %q, want it to name row 101 and column light", msg)
	}
	if tables := getJSON(t, ts.URL+"/tables")["tables"].([]any); len(tables) != 0 {
		t.Fatalf("tables after a refused load = %v, want none", tables)
	}
}

// TestOversizedBodyReturns413 is the regression test for unbounded reads:
// a body over the cap must be rejected with 413, not buffered.
func TestOversizedBodyReturns413(t *testing.T) {
	srv := newServer(pass.NewSession())
	srv.maxBody = 1024
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	big := `{"sql": "` + strings.Repeat("x", 4096) + `"}`
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body["error"] == "" {
		t.Fatalf("413 error body = %v (%v), want a JSON error", body, err)
	}
	// a body under the cap still parses (and fails on the unknown table,
	// not on size)
	resp2, out := postJSON(t, ts.URL+"/query", map[string]any{"sql": "SELECT COUNT(*) FROM nope"})
	if resp2.StatusCode != http.StatusOK || out == nil {
		t.Fatalf("small body after 413 = %d, want 200", resp2.StatusCode)
	}
}

// TestMaxInflightShedsWith503 pins the admission semaphore full and
// checks load shedding: immediate 503 with a Retry-After hint, while
// health probes bypass the limiter entirely.
func TestMaxInflightShedsWith503(t *testing.T) {
	srv := newServer(pass.NewSession())
	srv.setMaxInflight(1)
	srv.ready.Store(true)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	// occupy the only slot
	srv.inflight <- struct{}{}
	defer func() { <-srv.inflight }()

	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"sql":"SELECT 1"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request at capacity = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 should carry a Retry-After hint")
	}
	// probes are exempt from admission control
	for _, path := range []string{"/healthz", "/readyz"} {
		pr, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		pr.Body.Close()
		if pr.StatusCode != http.StatusOK {
			t.Fatalf("GET %s at capacity = %d, want 200", path, pr.StatusCode)
		}
	}
}

// latencyEngine delays every query — the slow shard of the end-to-end
// deadline test.
type latencyEngine struct {
	inner engine.Engine
	delay time.Duration
}

func (l *latencyEngine) Name() string              { return l.inner.Name() }
func (l *latencyEngine) MemoryBytes() int          { return l.inner.MemoryBytes() }
func (l *latencyEngine) Underlying() engine.Engine { return l.inner }

func (l *latencyEngine) Query(kind dataset.AggKind, q dataset.Rect) (core.Result, error) {
	time.Sleep(l.delay)
	return l.inner.Query(kind, q)
}

func (l *latencyEngine) QueryBatch(qs []core.BatchQuery) []core.BatchResult {
	time.Sleep(l.delay)
	return l.inner.QueryBatch(qs)
}

// TestQueryTimeoutDegradedOverHTTP drives deadline propagation end to
// end: a sharded table with one slow shard, a server-side -query-timeout,
// and a COUNT over the whole key range. The HTTP answer must come back
// within the deadline, marked degraded, with the shard accounting on the
// wire.
func TestQueryTimeoutDegradedOverHTTP(t *testing.T) {
	d := dataset.GenIntelWireless(3000, 17)
	eng, err := shard.Build(d, shard.Range, 0, 3, func(i int, part *dataset.Dataset) (engine.Engine, error) {
		inner, err := factory.Build("pass", part, factory.Spec{Partitions: 16, SampleSize: part.N(), Seed: 2})
		if err != nil {
			return nil, err
		}
		if i == 2 {
			return &latencyEngine{inner: inner, delay: 5 * time.Second}, nil
		}
		return inner, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sess := pass.NewSession()
	schema := sqlfe.SchemaFromColNames(d.ColNames)
	if err := sess.RegisterEngine("sensors", eng, schema); err != nil {
		t.Fatal(err)
	}
	srv := newServer(sess)
	srv.queryTimeout = 200 * time.Millisecond
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	start := time.Now()
	resp, out := postJSON(t, ts.URL+"/query", map[string]any{"sql": "SELECT COUNT(*) FROM sensors"})
	wall := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query = %d %v, want 200", resp.StatusCode, out)
	}
	if wall > 3*time.Second {
		t.Fatalf("query took %s, -query-timeout was 200ms", wall)
	}
	results := out["results"].([]any)
	r0 := results[0].(map[string]any)
	if r0["error"] != nil {
		t.Fatalf("statement error: %v", r0["error"])
	}
	scalar := r0["scalar"].(map[string]any)
	if scalar["degraded"] != true {
		t.Fatalf("scalar = %v, want degraded: true", scalar)
	}
	if scalar["shards_total"].(float64) != 3 || scalar["shards_answered"].(float64) != 2 {
		t.Fatalf("shard accounting = %v/%v, want 2/3", scalar["shards_answered"], scalar["shards_total"])
	}
	// soundness on the wire: estimate ± ci_half must contain the true count
	est, ci := scalar["estimate"].(float64), scalar["ci_half"].(float64)
	truth := float64(d.N())
	if est-ci > truth || est+ci < truth {
		t.Fatalf("degraded COUNT %v ± %v does not contain ground truth %v", est, ci, truth)
	}
}

// TestInsertIntoDegradedTableReturns503 checks the HTTP surface of
// read-only degraded mode: after an injected WAL fsync failure, inserts
// are rejected with 503 (the table is temporarily unwritable, not the
// client's fault), queries keep serving, and /readyz lists the table.
func TestInsertIntoDegradedTableReturns503(t *testing.T) {
	dir := t.TempDir()
	fsys := vfs.NewFaultFS(vfs.OS())
	st, err := store.Open(dir, store.Options{CheckpointInterval: -1, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	sess := pass.NewSession()
	if _, err := sess.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	srv := newServer(sess)
	srv.ready.Store(true)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	resp, _ := postJSON(t, ts.URL+"/tables", map[string]any{
		"name": "sensors", "csv": sensorCSV(2400), "partitions": 16, "sample_rate": 0.05,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create = %d, want 201", resp.StatusCode)
	}

	// the WAL's disk goes bad: the next insert fails and degrades the table
	fsys.Inject(&vfs.Fault{Op: vfs.OpSync, Path: ".wal"})
	row := map[string]any{"rows": []map[string]any{{"point": []float64{3}, "value": 1.5}}}
	resp1, _ := postJSON(t, ts.URL+"/tables/sensors/rows", row)
	if resp1.StatusCode == http.StatusOK {
		t.Fatal("insert with failing WAL fsync should not succeed")
	}
	resp2, body := postJSON(t, ts.URL+"/tables/sensors/rows", row)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("insert into degraded table = %d (%v), want 503", resp2.StatusCode, body)
	}
	if !strings.Contains(body["error"].(string), "degraded") {
		t.Fatalf("503 body = %v, want the degraded cause", body)
	}

	// queries still serve
	qresp, qout := postJSON(t, ts.URL+"/query", map[string]any{"sql": "SELECT COUNT(*) FROM sensors"})
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("query on degraded table = %d %v, want 200", qresp.StatusCode, qout)
	}
	if r0 := qout["results"].([]any)[0].(map[string]any); r0["error"] != nil {
		t.Fatalf("query on degraded table errored: %v", r0["error"])
	}

	// the degraded table shows up in /readyz and GET /tables
	rbody := getJSON(t, ts.URL+"/readyz")
	deg, _ := rbody["degraded_tables"].([]any)
	if len(deg) != 1 || deg[0] != "sensors" {
		t.Fatalf("readyz degraded_tables = %v, want [sensors]", rbody)
	}
	tbody := getJSON(t, ts.URL+"/tables")
	ti := tbody["tables"].([]any)[0].(map[string]any)
	if ti["degraded"] != true || ti["degraded_cause"] == "" {
		t.Fatalf("table info = %v, want degraded with a cause", ti)
	}
}

// TestFaultScheduleFlagParses pins the -fault-schedule surface: the
// exact spec format documented in OPERATIONS.md must keep parsing.
func TestFaultScheduleFlagParses(t *testing.T) {
	rules, err := vfs.ParseSchedule("op=sync,path=.wal,after=10,count=1,err=eio;op=write,path=.snap,delay=250ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("parsed %d rules, want 2", len(rules))
	}
	if _, err := vfs.ParseSchedule("op=bogus"); err == nil {
		t.Fatal("invalid schedule must be rejected")
	}
	var sentinel error = vfs.ErrInjected
	if !errors.Is(rules[0].Err, sentinel) {
		t.Fatalf("eio rule error %v should wrap ErrInjected", rules[0].Err)
	}
}

// TestDropTableStatus: DELETE /tables/{name} answers 404 only for a name
// no table is registered under. A drop whose files cannot be unlinked is a
// server fault — 500 — and the files it leaves bring the table back whole
// at the next boot.
func TestDropTableStatus(t *testing.T) {
	dir := t.TempDir()
	fsys := vfs.NewFaultFS(vfs.OS())
	st, err := store.Open(dir, store.Options{CheckpointInterval: -1, NoSync: true, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	sess := pass.NewSession()
	if _, err := sess.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(sess).handler())
	defer ts.Close()
	if resp, body := postJSON(t, ts.URL+"/tables", map[string]any{
		"name": "sensors", "csv": sensorCSV(2400), "partitions": 16, "sample_rate": 0.05,
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create = %d (%v), want 201", resp.StatusCode, body)
	}
	drop := func(name string) int {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/tables/"+name, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := drop("ghost"); code != http.StatusNotFound {
		t.Errorf("drop of an unknown table = %d, want 404", code)
	}
	rules, err := vfs.ParseSchedule("op=remove,path=.manifest,err=eio")
	if err != nil {
		t.Fatal(err)
	}
	fsys.Inject(rules...)
	if code := drop("sensors"); code != http.StatusInternalServerError {
		t.Errorf("drop whose manifest unlink fails = %d, want 500", code)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{CheckpointInterval: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	sess2 := pass.NewSession()
	if _, err := sess2.AttachStore(st2); err != nil {
		t.Fatalf("boot after a failed drop: %v", err)
	}
	defer sess2.Close()
	if tabs := sess2.Tables(); len(tabs) != 1 || tabs[0].Name != "sensors" || tabs[0].Rows != 2400 {
		t.Fatalf("tables after a failed drop = %+v, want sensors back whole", tabs)
	}
}
