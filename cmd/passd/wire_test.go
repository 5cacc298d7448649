package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/engine/factory"
	"repro/internal/jsonout"
	"repro/internal/shard"
	"repro/internal/sqlfe"
	"repro/pass"
)

// wireStatements cover every kind of /query result: a degraded scalar
// (the whole key range reaches the slow shard), a plain scalar on a
// fast shard, no_match, a per-statement error, GROUP BY and the three
// sketch aggregates.
var wireStatements = []string{
	"SELECT COUNT(*) FROM sensors",
	"SELECT SUM(light) FROM sensors WHERE hour >= 1 AND hour <= 4",
	"SELECT AVG(light) FROM sensors WHERE hour > 100",
	"SELECT SUM(nosuch) FROM sensors",
	"SELECT AVG(light) FROM sensors WHERE hour <= 5 GROUP BY zone",
	"SELECT QUANTILE(light, 0.5) FROM sensors",
	"SELECT TOPK(light, 3) FROM sensors",
	"SELECT COUNT(DISTINCT light) FROM sensors",
}

// failingEngine fails every scalar query: the dropped shard of the wire
// test. GROUP BY and sketches reach the inner engine through Underlying,
// so they still answer. (A deadline-dropped shard would do for the scalar,
// but a request whose deadline has passed runs no GROUP BY.)
type failingEngine struct{ engine.Engine }

func (f failingEngine) Underlying() engine.Engine { return f.Engine }

func (f failingEngine) Query(dataset.AggKind, dataset.Rect) (core.Result, error) {
	return core.Result{}, errShardDown
}

func (f failingEngine) QueryBatch(qs []core.BatchQuery) []core.BatchResult {
	out := make([]core.BatchResult, len(qs))
	for i := range out {
		out[i].Err = errShardDown
	}
	return out
}

var errShardDown = errors.New("shard down")

// wireSession registers a fixed 3-shard table, range-partitioned on hour,
// whose last shard fails every scalar query.
func wireSession(t *testing.T) *pass.Session {
	t.Helper()
	zones := []string{"north", "south", "west"}
	d := dataset.New("sensors", 2)
	d.ColNames = []string{"hour", "zone", "light"}
	names := make([]string, 3000)
	for i := range names {
		names[i] = zones[i%len(zones)]
		d.Pred[0] = append(d.Pred[0], float64(i%24))
		d.Agg = append(d.Agg, float64(i%100)/10)
	}
	var dict *dataset.Dict
	d.Pred[1], dict = dataset.Encode(names)
	eng, err := shard.Build(d, shard.Range, 0, 3, func(i int, part *dataset.Dataset) (engine.Engine, error) {
		inner, err := factory.Build("pass", part, factory.Spec{Partitions: 8, SampleSize: part.N(), Seed: 5})
		if err != nil || i < 2 {
			return inner, err
		}
		return failingEngine{inner}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	schema := sqlfe.SchemaFromColNames(d.ColNames)
	schema.Dicts = map[string]*dataset.Dict{"zone": dict}
	sess := pass.NewSession()
	if err := sess.RegisterEngine("sensors", eng, schema); err != nil {
		t.Fatal(err)
	}
	return sess
}

// wantResult is the /query wire form of one statement's outcome, spelled
// out from the jsonout converters.
func wantResult(sr pass.StmtResult) jsonStmtResult {
	out := jsonStmtResult{SQL: sr.SQL}
	switch {
	case errors.Is(sr.Err, pass.ErrNoMatch):
		out.NoMatch = true
	case sr.Err != nil:
		out.Error = sr.Err.Error()
	case sr.Result.Groups != nil:
		out.Groups = jsonout.FromGroups(sr.Result.Groups)
	case sr.Result.Sketch != nil:
		out.Sketch = jsonout.FromSketch(sr.Result.Sketch)
	default:
		out.Scalar = jsonout.FromAnswer(sr.Result.Scalar)
	}
	return out
}

// TestQueryWireContract pins the /query response: compact JSON without
// HTML escaping (statement 1 echoes a ">="), sent
// whole with a Content-Length, decoding to exactly the values the
// jsonout converters produce for the same statements.
func TestQueryWireContract(t *testing.T) {
	sess := wireSession(t)
	// repeated so the body outgrows what net/http buffers whole (and then
	// sizes itself): the Content-Length check below must be passd's own
	var stmts []string
	for range 8 {
		stmts = append(stmts, wireStatements...)
	}
	direct := sess.ExecBatch(stmts)
	want := make([]jsonStmtResult, len(direct))
	for i, sr := range direct {
		want[i] = wantResult(sr)
	}
	// the fixture must really produce every kind of result
	if s := want[0].Scalar; s == nil || !s.Degraded || s.ShardsAnswered != 2 || s.ShardsTotal != 3 {
		t.Fatalf("statement 0 = %+v, want a degraded scalar from 2 of 3 shards", want[0])
	}
	if s := want[1].Scalar; s == nil || s.Degraded {
		t.Fatalf("statement 1 = %+v, want a plain scalar", want[1])
	}
	if !want[2].NoMatch || want[3].Error == "" || len(want[4].Groups) != 3 {
		t.Fatalf("statements 2-4 = %+v, want no_match, an error and 3 groups", want[2:5])
	}
	for _, w := range want[5:len(wireStatements)] {
		if w.Sketch == nil {
			t.Fatalf("%s = %+v, want a sketch answer", w.SQL, w)
		}
	}

	ts := httptest.NewServer(newServer(sess).handler())
	defer ts.Close()
	raw, _ := json.Marshal(map[string]any{"statements": stmts})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query = %d, %v: %s", resp.StatusCode, err, body)
	}
	if bytes.Contains(body, []byte("\n  ")) || bytes.Contains(body, []byte(`\u003e`)) {
		t.Errorf("/query response is indented or HTML-escaped, want compact JSON:\n%s", body)
	}
	if len(body) < 8<<10 {
		t.Fatalf("/query body is %d bytes, want one larger than net/http buffers", len(body))
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("Content-Length %d, Transfer-Encoding %v for a %d-byte body; want the length and no chunking",
			resp.ContentLength, resp.TransferEncoding, len(body))
	}
	var got queryResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(want) {
		t.Fatalf("%d results on the wire, want %d", len(got.Results), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got.Results[i], want[i]) {
			gj, _ := json.Marshal(got.Results[i])
			wj, _ := json.Marshal(want[i])
			t.Errorf("statement %d on the wire:\n got %s\nwant %s", i, gj, wj)
		}
	}
}

// TestInsertResponseStaysIndented pins the insert answer byte for byte.
// The benchmark's writer check greps insert responses for
// `"inserted": 16` (with the space), so this body must stay indented.
func TestInsertResponseStaysIndented(t *testing.T) {
	ts := testServer(t)
	if resp, out := postJSON(t, ts.URL+"/tables", map[string]any{
		"name": "sensors", "csv": sensorCSV(480), "partitions": 8, "sample_rate": 0.1,
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create = %d %v", resp.StatusCode, out)
	}
	rows := make([]map[string]any, 16)
	for i := range rows {
		rows[i] = map[string]any{"point": []float64{float64(i % 24)}, "value": 1.5}
	}
	raw, _ := json.Marshal(map[string]any{"rows": rows})
	resp, err := http.Post(ts.URL+"/tables/sensors/rows", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := "{\n  \"inserted\": 16\n}\n"; string(body) != want {
		t.Fatalf("insert response = %q, want %q", body, want)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Fatalf("insert Content-Length = %d, want %d", resp.ContentLength, len(body))
	}
}

// TestWriteJSONEncodeFailure checks that a value encoding/json rejects
// becomes a 500 with a JSON error body, not the intended status with an
// empty body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	for _, v := range []any{
		map[string]float64{"estimate": math.NaN()},
		&jsonout.Sketch{Kind: "quantile", Value: math.Inf(1)},
	} {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("status = %d, want 500", rec.Code)
		}
		var out map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || !strings.Contains(out["error"], "unsupported value") {
			t.Fatalf("body = %q (%v), want a JSON error naming the unsupported value", rec.Body, err)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("Content-Length = %q for a %d-byte body", cl, rec.Body.Len())
		}
	}
}
