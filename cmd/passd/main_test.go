package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
	"repro/pass"
)

// TestMain lets a test boot passd itself: the test binary, re-executed
// with PASSD_AS_MAIN=1, is the command.
func TestMain(m *testing.M) {
	if os.Getenv("PASSD_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBootRefusesOlderLayout: a data directory holding a file of a layout
// nothing writes any more — a bare <table>.snap, or a <table>.s<i>.wal —
// stops passd at boot with a non-zero exit naming the file, instead of
// serving without the table.
func TestBootRefusesOlderLayout(t *testing.T) {
	for _, file := range []string{"sensors.snap", "sensors.s0.wal"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, file), []byte("older layout"), 0o644); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cmd := exec.CommandContext(ctx, os.Args[0], "-listen", "127.0.0.1:0", "-data-dir", dir)
		cmd.Env = append(os.Environ(), "PASSD_AS_MAIN=1")
		out, err := cmd.CombinedOutput()
		timedOut := ctx.Err() != nil
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || timedOut {
			t.Fatalf("%s: passd ended with %v, want exit status 1 at boot\n%s", file, err, out)
		}
		if !strings.Contains(string(out), filepath.Join(dir, file)) {
			t.Errorf("%s: boot error does not name the file:\n%s", file, out)
		}
	}
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newServer(pass.NewSession()).handler())
	t.Cleanup(ts.Close)
	return ts
}

// sensorCSV builds a deterministic CSV table: hour (0-23) predicting a
// light level.
func sensorCSV(rows int) string {
	var sb strings.Builder
	sb.WriteString("hour,light\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d,%0.1f\n", i%24, float64(i%100)/10)
	}
	return sb.String()
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && resp.StatusCode != http.StatusNoContent {
		t.Fatalf("decode %s response: %v", url, err)
	}
	return resp, out
}

// TestServeSQLEndToEnd loads a CSV over HTTP and queries it back through
// the catalog: the acceptance path of the layered architecture.
func TestServeSQLEndToEnd(t *testing.T) {
	ts := testServer(t)

	// load a table
	resp, created := postJSON(t, ts.URL+"/tables", map[string]any{
		"name": "sensors", "csv": sensorCSV(4800), "partitions": 16, "sample_rate": 0.05,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create table: HTTP %d (%v)", resp.StatusCode, created)
	}
	if created["name"] != "sensors" || created["rows"].(float64) != 4800 {
		t.Errorf("created = %v", created)
	}

	// list it
	lresp, err := http.Get(ts.URL + "/tables")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var listing struct {
		Tables []pass.TableInfo `json:"tables"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Tables) != 1 || listing.Tables[0].Name != "sensors" ||
		listing.Tables[0].Engine != "PASS" || listing.Tables[0].MemoryBytes <= 0 {
		t.Errorf("tables = %+v", listing.Tables)
	}

	// query it: COUNT(*) with no predicate is exact
	resp, body := postJSON(t, ts.URL+"/query", map[string]any{
		"sql": "SELECT COUNT(*) FROM sensors",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: HTTP %d (%v)", resp.StatusCode, body)
	}
	results := body["results"].([]any)
	if len(results) != 1 {
		t.Fatalf("results = %v", results)
	}
	scalar := results[0].(map[string]any)["scalar"].(map[string]any)
	if got := scalar["estimate"].(float64); got != 4800 {
		t.Errorf("COUNT(*) = %v, want 4800", got)
	}

	// batched multi-statement script: answers arrive per statement
	resp, body = postJSON(t, ts.URL+"/query", map[string]any{
		"sql": "SELECT SUM(light) FROM sensors WHERE hour BETWEEN 6 AND 18; SELECT AVG(light) FROM sensors",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch query: HTTP %d", resp.StatusCode)
	}
	results = body["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("batch results = %v", results)
	}
	for i, r := range results {
		rm := r.(map[string]any)
		if rm["error"] != nil || rm["scalar"] == nil {
			t.Errorf("statement %d: %v", i, rm)
		}
	}

	// drop it
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/tables/sensors", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Errorf("drop: HTTP %d", dresp.StatusCode)
	}
}

func TestServeUnknownTableAndErrors(t *testing.T) {
	ts := testServer(t)
	if _, created := postJSON(t, ts.URL+"/tables", map[string]any{
		"name": "sensors", "csv": sensorCSV(1200), "partitions": 8, "sample_rate": 0.05,
	}); created["error"] != nil {
		t.Fatalf("create: %v", created["error"])
	}

	// unknown FROM table is a per-statement error naming the catalog
	resp, body := postJSON(t, ts.URL+"/query", map[string]any{
		"sql": "SELECT COUNT(*) FROM nope",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	rm := body["results"].([]any)[0].(map[string]any)
	errMsg, _ := rm["error"].(string)
	if !strings.Contains(errMsg, "nope") || !strings.Contains(errMsg, "sensors") {
		t.Errorf("unknown-table error = %q, want it to name both tables", errMsg)
	}

	// duplicate registration → 409
	resp, _ = postJSON(t, ts.URL+"/tables", map[string]any{
		"name": "sensors", "csv": sensorCSV(10),
	})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate create: HTTP %d, want 409", resp.StatusCode)
	}

	// malformed requests → 400
	resp, _ = postJSON(t, ts.URL+"/query", map[string]any{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty query: HTTP %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/tables", map[string]any{"name": "x", "csv": "not,a\nvalid"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad csv: HTTP %d, want 400", resp.StatusCode)
	}

	// dropping an unknown table → 404
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/tables/ghost", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Errorf("drop ghost: HTTP %d, want 404", dresp.StatusCode)
	}
}

func TestServeStatementsArray(t *testing.T) {
	ts := testServer(t)
	if _, created := postJSON(t, ts.URL+"/tables", map[string]any{
		"name": "t", "csv": sensorCSV(600), "partitions": 8, "sample_rate": 0.1,
	}); created["error"] != nil {
		t.Fatalf("create: %v", created["error"])
	}
	_, body := postJSON(t, ts.URL+"/query", map[string]any{
		"statements": []string{
			"SELECT COUNT(*) FROM t",
			"SELECT SUM(light) FROM t WHERE hour <= 12",
		},
	})
	results := body["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("results = %v", results)
	}
	for i, r := range results {
		if rm := r.(map[string]any); rm["scalar"] == nil {
			t.Errorf("statement %d missing scalar: %v", i, rm)
		}
	}
}

// newPersistentServer builds a server over a durable session rooted at
// dir, returning the store handle so tests can simulate a crash (closing
// the store without a checkpoint).
func newPersistentServer(t *testing.T, dir string) (*httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(dir, store.Options{CheckpointInterval: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	sess := pass.NewSession()
	if _, err := sess.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(sess).handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { st.Close() })
	return ts, st
}

func queryScalars(t *testing.T, url string, sql string) []map[string]any {
	t.Helper()
	resp, body := postJSON(t, url+"/query", map[string]any{"sql": sql})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query %q: HTTP %d (%v)", sql, resp.StatusCode, body)
	}
	results := body["results"].([]any)
	out := make([]map[string]any, len(results))
	for i, r := range results {
		rm := r.(map[string]any)
		if rm["error"] != nil {
			t.Fatalf("query %q stmt %d: %v", sql, i, rm["error"])
		}
		out[i] = rm["scalar"].(map[string]any)
	}
	return out
}

// TestPersistenceAcrossRestart is the acceptance path of the durable
// store: load a table over HTTP, insert rows that reach only the WAL,
// crash, restart against the same data dir — the table list and every
// answer must survive, with no synopsis rebuilt.
func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	const script = "SELECT COUNT(*) FROM sensors; SELECT SUM(light) FROM sensors; SELECT AVG(light) FROM sensors WHERE hour BETWEEN 6 AND 18"

	ts1, st1 := newPersistentServer(t, dir)
	resp, created := postJSON(t, ts1.URL+"/tables", map[string]any{
		"name": "sensors", "csv": sensorCSV(2400), "partitions": 16, "sample_rate": 0.05,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: HTTP %d (%v)", resp.StatusCode, created)
	}
	if created["persisted"] != true {
		t.Errorf("created = %v, want persisted=true", created)
	}

	// rows inserted AFTER the registration snapshot: they live only in the WAL
	rows := make([]map[string]any, 60)
	for i := range rows {
		rows[i] = map[string]any{"point": []float64{float64(i % 24)}, "value": float64(i) / 4}
	}
	resp, ins := postJSON(t, ts1.URL+"/tables/sensors/rows", map[string]any{"rows": rows})
	if resp.StatusCode != http.StatusOK || ins["inserted"].(float64) != 60 {
		t.Fatalf("insert rows: HTTP %d (%v)", resp.StatusCode, ins)
	}

	before := queryScalars(t, ts1.URL, script)

	// crash: no graceful shutdown, no final checkpoint
	ts1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	ts2, _ := newPersistentServer(t, dir)
	lresp, err := http.Get(ts2.URL + "/tables")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var listing struct {
		Tables []pass.TableInfo `json:"tables"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Tables) != 1 || listing.Tables[0].Name != "sensors" ||
		listing.Tables[0].Engine != "PASS" || listing.Tables[0].Rows != 2400+60 {
		t.Fatalf("restarted tables = %+v, want sensors/PASS/%d rows", listing.Tables, 2400+60)
	}

	after := queryScalars(t, ts2.URL, script)
	for i := range before {
		b := before[i]["estimate"].(float64)
		a := after[i]["estimate"].(float64)
		diff := math.Abs(a - b)
		if diff > 1e-5*math.Max(math.Abs(b), 1) {
			t.Errorf("statement %d: answer drifted across restart: %v → %v", i, b, a)
		}
	}
	// COUNT(*) is exact on both sides: bit-for-bit equality required
	if before[0]["estimate"] != after[0]["estimate"] {
		t.Errorf("COUNT(*) = %v before, %v after", before[0]["estimate"], after[0]["estimate"])
	}
}

// TestDropRemovesPersistedTable: DELETE /tables/{name} must delete the
// snapshot+WAL so the table stays gone after a restart.
func TestDropRemovesPersistedTable(t *testing.T) {
	dir := t.TempDir()
	ts1, st1 := newPersistentServer(t, dir)
	if resp, created := postJSON(t, ts1.URL+"/tables", map[string]any{
		"name": "sensors", "csv": sensorCSV(600), "partitions": 8, "sample_rate": 0.1,
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %v", created)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts1.URL+"/tables/sensors", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("drop: HTTP %d", dresp.StatusCode)
	}
	ts1.Close()
	st1.Close()

	ts2, _ := newPersistentServer(t, dir)
	lresp, err := http.Get(ts2.URL + "/tables")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var listing struct {
		Tables []pass.TableInfo `json:"tables"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Tables) != 0 {
		t.Errorf("dropped table resurrected after restart: %+v", listing.Tables)
	}
}

// TestInsertRowsValidation: unknown tables and empty bodies are rejected.
func TestInsertRowsValidation(t *testing.T) {
	ts := testServer(t)
	resp, _ := postJSON(t, ts.URL+"/tables/ghost/rows", map[string]any{
		"rows": []map[string]any{{"point": []float64{1}, "value": 1}},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("insert into ghost: HTTP %d, want 422", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/tables/ghost/rows", map[string]any{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty insert: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestShardedTableOverHTTP: creating a table with "shards" builds a
// sharded scatter-gather engine, GET /tables surfaces the shard stats,
// and a kill + warm start restores the router from the manifest with
// answers intact.
func TestShardedTableOverHTTP(t *testing.T) {
	dir := t.TempDir()
	const script = "SELECT COUNT(*) FROM sensors; SELECT SUM(light) FROM sensors; SELECT AVG(light) FROM sensors WHERE hour BETWEEN 6 AND 18"

	ts, st := newPersistentServer(t, dir)
	resp, body := postJSON(t, ts.URL+"/tables", map[string]any{
		"name": "sensors", "csv": sensorCSV(3000), "partitions": 16, "shards": 4,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create sharded table: HTTP %d (%v)", resp.StatusCode, body)
	}
	if body["persisted"] != true {
		t.Errorf("sharded table not persisted: %v", body)
	}
	if got, want := body["shards"], float64(4); got != want {
		t.Errorf("create response shards = %v, want %v", got, want)
	}
	if body["shard_policy"] != "range" {
		t.Errorf("shard_policy = %v, want range", body["shard_policy"])
	}

	// shard stats in the listing
	lresp, err := http.Get(ts.URL + "/tables")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Tables []pass.TableInfo `json:"tables"`
	}
	err = json.NewDecoder(lresp.Body).Decode(&listing)
	lresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(listing.Tables) != 1 || listing.Tables[0].Shards != 4 || len(listing.Tables[0].ShardRows) != 4 {
		t.Fatalf("listing = %+v, want one 4-shard table with per-shard rows", listing.Tables)
	}
	rowSum := 0
	for _, r := range listing.Tables[0].ShardRows {
		rowSum += r
	}
	if rowSum != 3000 {
		t.Errorf("shard rows sum to %d, want 3000", rowSum)
	}

	// journaled insert, then crash without checkpoint
	resp, body = postJSON(t, ts.URL+"/tables/sensors/rows", map[string]any{
		"rows": []map[string]any{
			{"point": []float64{3}, "value": 2.5},
			{"point": []float64{21}, "value": 7.5},
		},
	})
	if resp.StatusCode != http.StatusOK || body["inserted"] != float64(2) {
		t.Fatalf("insert rows: HTTP %d (%v)", resp.StatusCode, body)
	}
	before := queryScalars(t, ts.URL, script)
	ts.Close()
	st.Close()

	ts2, _ := newPersistentServer(t, dir)
	after := queryScalars(t, ts2.URL, script)
	for i := range before {
		if !reflect.DeepEqual(after[i], before[i]) {
			t.Errorf("statement %d: %v after restart, want %v", i, after[i], before[i])
		}
	}
	if before[0]["estimate"].(float64) != 3002 {
		t.Errorf("COUNT before crash = %v, want 3002", before[0]["estimate"])
	}
}

// TestThreeDimTablePersists: on a durable server a 3-D table — unsharded
// or sharded — is persisted like any other, answers bitwise the same after
// a crash and warm start, and refuses writes with 422 before they reach
// its write-ahead log.
func TestThreeDimTablePersists(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("hour,zone,dist,fare\n")
	for i := 0; i < 4000; i++ {
		fmt.Fprintf(&sb, "%d,%d,%0.2f,%0.1f\n", i%24, i%31, float64(i%263)/7, float64(i%97)/3)
	}
	const script = "SELECT COUNT(*) FROM trips WHERE hour BETWEEN 3 AND 17 AND zone <= 20; " +
		"SELECT SUM(fare) FROM trips WHERE dist >= 5 AND zone BETWEEN 4 AND 9; " +
		"SELECT AVG(fare) FROM trips WHERE hour >= 12 AND dist <= 30; SELECT MAX(fare) FROM trips WHERE zone = 7"
	for _, shards := range []int{1, 3} {
		dir := t.TempDir()
		ts, st := newPersistentServer(t, dir)
		resp, body := postJSON(t, ts.URL+"/tables", map[string]any{
			"name": "trips", "csv": sb.String(), "partitions": 32, "shards": shards,
		})
		if resp.StatusCode != http.StatusCreated || body["persisted"] != true {
			t.Fatalf("%d shards: create: HTTP %d (%v), want 201 and persisted", shards, resp.StatusCode, body)
		}
		before := queryScalars(t, ts.URL, script)

		wal := filepath.Join(dir, "trips.wal")
		walBefore, err := os.ReadFile(wal)
		if err != nil {
			t.Fatal(err)
		}
		resp, body = postJSON(t, ts.URL+"/tables/trips/rows", map[string]any{
			"rows": []map[string]any{{"point": []float64{5, 6, 7}, "value": 8}},
		})
		if resp.StatusCode != http.StatusUnprocessableEntity || body["inserted"] != float64(0) {
			t.Fatalf("%d shards: insert into a 3-D table: HTTP %d (%v), want 422 and none inserted", shards, resp.StatusCode, body)
		}
		if walAfter, err := os.ReadFile(wal); err != nil || !bytes.Equal(walAfter, walBefore) {
			t.Fatalf("%d shards: a refused insert changed the WAL (%v)", shards, err)
		}

		// crash: no checkpoint, then a warm start on the same directory
		ts.Close()
		st.Close()
		ts2, _ := newPersistentServer(t, dir)
		after := queryScalars(t, ts2.URL, script)
		for i := range before {
			if !reflect.DeepEqual(after[i], before[i]) {
				t.Errorf("%d shards, statement %d: %v after restart, want %v", shards, i, after[i], before[i])
			}
		}
	}
}

// TestCreateTableReservedNameRejectedUpfront: on a durable server a name
// colliding with per-shard file naming is a client error, caught before
// the synopsis build.
func TestCreateTableReservedNameRejectedUpfront(t *testing.T) {
	ts, _ := newPersistentServer(t, t.TempDir())
	resp, body := postJSON(t, ts.URL+"/tables", map[string]any{
		"name": "logs.s0", "csv": sensorCSV(100),
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("reserved name: HTTP %d (%v), want 400", resp.StatusCode, body)
	}
}

// TestCreateTableHeaderNames: a header with a byte order mark loads with
// its first column queryable by name, and one with a repeated or an empty
// column name, which no statement could name unambiguously, is a 400.
func TestCreateTableHeaderNames(t *testing.T) {
	ts := testServer(t)
	resp, body := postJSON(t, ts.URL+"/tables", map[string]any{"name": "bom", "csv": "\ufeffx,v\n0.5,1\n0.75,2\n3,4\n"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("BOM header: HTTP %d (%v), want 201", resp.StatusCode, body)
	}
	if got := queryScalars(t, ts.URL, "SELECT COUNT(*) FROM bom WHERE x BETWEEN 0 AND 1")[0]["estimate"]; got != float64(2) {
		t.Errorf("COUNT over the BOM-prefixed column = %v, want 2", got)
	}
	for _, tc := range []struct{ csv, want string }{
		{"x,x,v\n0.5,5,1\n0.75,6,2\n3,0.5,4\n", `column name "x" is used twice, at positions 1 and 2`},
		{"x,,v\n1,2,3\n", "column 2 has an empty name"},
	} {
		resp, body := postJSON(t, ts.URL+"/tables", map[string]any{"name": "t", "csv": tc.csv})
		if msg, _ := body["error"].(string); resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, tc.want) {
			t.Errorf("header of %q: HTTP %d (%v), want 400 with %s", tc.csv, resp.StatusCode, body, tc.want)
		}
	}
}

// TestCreateTableLineEndingsAndQuoting: the same rows sent with LF line
// ends, with CRLF, and with every field quoted load to identical answers
// on a 3-shard table. At 40 000 rows the CSV is parsed in chunks.
func TestCreateTableLineEndingsAndQuoting(t *testing.T) {
	ts := testServer(t)
	forms := map[string]func(fields []string) string{
		"lf":     func(f []string) string { return strings.Join(f, ",") + "\n" },
		"crlf":   func(f []string) string { return strings.Join(f, ",") + "\r\n" },
		"quoted": func(f []string) string { return `"` + strings.Join(f, `","`) + "\"\n" },
	}
	const script = "SELECT COUNT(*) FROM %[1]s; SELECT SUM(light) FROM %[1]s WHERE hour BETWEEN 5.5 AND 17.25; " +
		"SELECT AVG(light) FROM %[1]s WHERE hour >= 20; SELECT MAX(light) FROM %[1]s WHERE hour < 3"
	var want []map[string]any
	for _, name := range []string{"lf", "crlf", "quoted"} {
		var sb strings.Builder
		sb.WriteString(forms[name]([]string{"hour", "light"}))
		for i := 0; i < 40000; i++ {
			sb.WriteString(forms[name]([]string{
				strconv.FormatFloat(float64(i%24)+float64(i%8)/8, 'f', -1, 64),
				strconv.FormatFloat(float64(i*37%1000)/10, 'f', -1, 64),
			}))
		}
		resp, body := postJSON(t, ts.URL+"/tables", map[string]any{"name": name, "csv": sb.String(), "shards": 3, "partitions": 16})
		if resp.StatusCode != http.StatusCreated || body["rows"] != float64(40000) || body["shards"] != float64(3) {
			t.Fatalf("%s: HTTP %d (%v), want 40000 rows in 3 shards", name, resp.StatusCode, body)
		}
		got := queryScalars(t, ts.URL, fmt.Sprintf(script, name))
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%s answers %v, want the LF table's %v", name, got, want)
		}
	}
}

// TestQueryRejectsAmbiguousBody: a /query body carrying more than one of a
// non-blank "sql", a non-empty "statements" and "prepared" is a 400 —
// running one and dropping the others would answer a different request.
func TestQueryRejectsAmbiguousBody(t *testing.T) {
	ts := testServer(t)
	if _, created := postJSON(t, ts.URL+"/tables", map[string]any{
		"name": "t", "csv": sensorCSV(600), "partitions": 8, "sample_rate": 0.1,
	}); created["error"] != nil {
		t.Fatalf("create: %v", created["error"])
	}
	if resp, body := postJSON(t, ts.URL+"/prepare", map[string]any{
		"name": "p", "sql": "SELECT COUNT(*) FROM t",
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("prepare: HTTP %d (%v)", resp.StatusCode, body)
	}
	const sql = "SELECT COUNT(*) FROM t"
	for _, body := range []map[string]any{
		{"sql": sql, "statements": []string{sql}},
		{"sql": sql, "prepared": "p"},
		{"statements": []string{sql}, "prepared": "p"},
		{"sql": sql, "statements": []string{sql}, "prepared": "p"},
	} {
		if resp, out := postJSON(t, ts.URL+"/query", body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%v: HTTP %d (%v), want 400", body, resp.StatusCode, out)
		}
	}
	// a blank "sql" or an empty "statements" beside the real request is no
	// second request
	for _, body := range []map[string]any{
		{"sql": "  ", "prepared": "p"},
		{"sql": sql, "statements": []string{}},
	} {
		if resp, out := postJSON(t, ts.URL+"/query", body); resp.StatusCode != http.StatusOK {
			t.Errorf("%v: HTTP %d (%v), want 200", body, resp.StatusCode, out)
		}
	}
}
