package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/jsonout"
	"repro/internal/obs"
	"repro/pass"
)

// jsonStmtResult and queryResponse are the /query answer's schema as
// encoding/json writes it: the reference appendQueryAnswer is held to.
type jsonStmtResult struct {
	SQL     string          `json:"sql"`
	Error   string          `json:"error,omitempty"`
	NoMatch bool            `json:"no_match,omitempty"`
	Scalar  *jsonout.Answer `json:"scalar,omitempty"`
	Groups  []jsonout.Group `json:"groups,omitempty"`
	Sketch  *jsonout.Sketch `json:"sketch,omitempty"`
	Trace   *obs.SpanJSON   `json:"trace,omitempty"`
}

type queryResponse struct {
	Results []jsonStmtResult `json:"results"`
}

// referenceQueryAnswer is the /query answer as encoding/json writes it
// for results: status and body.
func referenceQueryAnswer(results []pass.StmtResult) (int, []byte) {
	resp := queryResponse{Results: make([]jsonStmtResult, len(results))}
	for i, sr := range results {
		resp.Results[i] = wantResult(sr)
		resp.Results[i].Trace = sr.Result.Trace
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(resp); err != nil {
		buf.Reset()
		_ = enc.Encode(map[string]string{"error": "encode response: " + err.Error()})
		return http.StatusInternalServerError, buf.Bytes()
	}
	return http.StatusOK, buf.Bytes()
}

// The request bodies the benchmark sends: one 1-D statement, a batch of
// 3-D statements, 16-row inserts and a table load.

func benchSQL(i, dims int) string {
	cols := []string{"pickup_time", "pickup_day", "zone"}
	aggs := []string{"SUM(trip_distance)", "COUNT(*)", "AVG(trip_distance)", "MIN(trip_distance)", "MAX(trip_distance)"}
	var sb strings.Builder
	fmt.Fprintf(&sb, "SELECT %s FROM trips", aggs[i%len(aggs)])
	for c := 0; c < dims; c++ {
		lo := float64((i*7+c*3)%20) + 0.1234
		sep := " WHERE "
		if c > 0 {
			sep = " AND "
		}
		fmt.Fprintf(&sb, "%s%s >= %g AND %s <= %g", sep, cols[c], lo, cols[c], lo+2.5)
	}
	return sb.String()
}

func queryBody(n, dims int) []byte {
	if n == 1 {
		return append(strconv.AppendQuote([]byte(`{"sql":`), benchSQL(0, dims)), '}')
	}
	b := []byte(`{"statements":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, benchSQL(i, dims))
	}
	return append(b, "]}"...)
}

func insertBody(rows, dims int) []byte {
	b := []byte(`{"rows":[`)
	for r := 0; r < rows; r++ {
		if r > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"point":[`...)
		for c := 0; c < dims; c++ {
			if c > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, float64(r%24)+0.0625*float64(c+1), 'g', -1, 64)
		}
		b = fmt.Appendf(b, `],"value":%g}`, 1.5+float64(r)/8)
	}
	return append(b, "]}"...)
}

func createBody() []byte {
	b := []byte(`{"name":"trips","shards":4,"partitions":64,"sample_rate":0.005,"csv":`)
	return append(strconv.AppendQuote(b, sensorCSV(48)), '}')
}

// BenchmarkReadCreateBody reads and decodes a POST /tables body shaped
// like the benchmark's 1M-row load: 15 MB whose csv string carries a \n
// escape per row. go test -run '^$' -bench ReadCreateBody -benchmem
// ./cmd/passd/
func BenchmarkReadCreateBody(b *testing.B) {
	csv := []byte("pickup_time,trip_distance\n")
	for i := 0; i < 1_000_000; i++ {
		csv = strconv.AppendFloat(csv, float64(i*7919%240000)/1e4, 'f', -1, 64)
		csv = append(csv, ',')
		csv = strconv.AppendFloat(csv, float64(i*104729%800000)/1e4, 'f', -1, 64)
		csv = append(csv, '\n')
	}
	body := append(strconv.AppendQuote([]byte(`{"name":"trips","shards":4,"csv":`), string(csv)), '}')
	s := newServer(pass.NewSession())
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		var req createTableRequest
		if !readOwnedBody(s, httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/tables", bytes.NewReader(body)), &req, decodeCreateTable) {
			b.Fatal("body refused")
		}
	}
}

// seedBodies seeds the reader fuzz corpus: the benchmark's bodies, the
// bodies of the HTTP tests, and the corners of encoding/json's decoding.
func seedBodies() [][]byte {
	wire, _ := json.Marshal(map[string]any{"statements": wireStatements})
	bodies := [][]byte{
		queryBody(1, 1), queryBody(64, 3), insertBody(16, 1), insertBody(16, 3), createBody(), wire,
		// hardening_test.go
		[]byte(`{not json`), []byte(`{"sql": "SELECT 1"} trailing garbage`), []byte(`[1,2,`), []byte(`"rows"`),
		[]byte(`{"sql": "` + strings.Repeat("x", 300) + `"}`),
		[]byte(`{"sql":"SELECT 1"}}`), []byte(`{"rows":[{"point":[1],"value":2}]}]`),
		// prepared statements
		[]byte(`{"name":"q","sql":"SELECT SUM(light) FROM sensors WHERE hour >= ?"}`),
		[]byte(`{"prepared":"q","params":[3, "north", null, {"a":[true,false]}, -1e-7]}`),
		// key matching, null, duplicates, unknown keys
		[]byte(`null`), []byte(` {} `), []byte(`{"SQL":"a","Sql":"b"}`), []byte(`{"ſql":"long s","\u212Aey":1}`),
		[]byte(`{"s\u0071l":"escaped key"}`), []byte(`{"sql":null,"statements":null,"params":null,"rows":null}`),
		[]byte(`{"statements":[]}`), []byte(`{"statements":["a","b","c"],"statements":["x"],"statements":[null,null,null]}`),
		[]byte(`{"rows":[null,{"value":1},{"point":null}],"rows":[{"point":[2]}]}`),
		[]byte(`{"unknown":{"a":[1,{"b":null}],"c":"\"\\\/\b\f\n\r\t"},"name":"t"}`),
		// numbers and their ranges
		[]byte(`{"partitions":1.5}`), []byte(`{"partitions":1e2}`), []byte(`{"seed":-1}`), []byte(`{"seed":18446744073709551615}`),
		[]byte(`{"seed":18446744073709551616}`), []byte(`{"shards":-0}`), []byte(`{"sample_rate":1e400}`),
		[]byte(`{"sample_rate":1e-400}`), []byte(`{"sample_rate":-0.0E+1}`), []byte(`{"sample_rate":01}`),
		[]byte(`{"sample_rate":.5}`), []byte(`{"sample_rate":1.}`), []byte(`{"sample_rate":+1}`), []byte(`{"sample_rate":"1"}`),
		// strings
		[]byte(`{"sql":"\ud83d\ude00 \ud800 \udc00\ud800 \uD800\u0041 \u00e9"}`), []byte("{\"sql\":\"\xff\xfe \xe2\x80\xa8 ok\"}"),
		[]byte("{\"sql\":\"tab\tinside\"}"), []byte(`{"sql":"\x"}`), []byte(`{"sql":"\u12"}`), []byte(`{"sql":"\'"}`),
		[]byte(`{"sql":"unterminated`), []byte("\xef\xbb\xbf{}"),
		// nesting
		[]byte(`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`),
		[]byte(`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`),
		[]byte(`{"params":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`),
	}
	return bodies
}

// fuzzMaxBody is the body cap of FuzzReadBody's server: small, so some
// inputs take the 413 path.
const fuzzMaxBody = 256

// FuzzReadBody holds the reader of every body passd decodes to
// json.Unmarshal into the same pre-filled struct: both accept or both
// reject, an accepted body decodes to deeply equal values, and the
// handler's read answers the status a rejected body calls for.
func FuzzReadBody(f *testing.F) {
	for _, b := range seedBodies() {
		f.Add(b)
	}
	s := newServer(pass.NewSession())
	s.maxBody = fuzzMaxBody
	f.Fuzz(func(t *testing.T, body []byte) {
		checkBody(t, s, body, func() queryRequest {
			return queryRequest{SQL: "pre", Statements: []string{"a", "b"}, Prepared: "p", Params: []any{1.0, "x"}}
		}, decodeQuery, unmarshal)
		checkBody(t, s, body, func() prepareRequest { return prepareRequest{Name: "n", SQL: "s"} }, decodePrepare, unmarshal)
		checkBody(t, s, body, func() createTableRequest {
			return createTableRequest{Name: "t", CSV: []byte("c"), buildOptions: s.buildDefaults}
		}, decodeCreateTable, unmarshalCreateTable)
		checkBody(t, s, body, func() insertRowsRequest {
			return insertRowsRequest{Rows: []insertRow{{Point: []float64{1, 2}, Value: 3}, {Value: 4}}}
		}, decodeInsertRows, unmarshal)
	})
}

// unmarshal is json.Unmarshal, the reference of a request struct whose
// fields encoding/json decodes as passd does.
func unmarshal[T any](body []byte, v *T) error { return json.Unmarshal(body, v) }

// unmarshalCreateTable is json.Unmarshal into a mirror of
// createTableRequest whose csv is a string, what the wire carries:
// encoding/json would take a []byte field for base64.
func unmarshalCreateTable(body []byte, c *createTableRequest) error {
	m := struct {
		Name string `json:"name"`
		CSV  string `json:"csv"`
		buildOptions
	}{c.Name, string(c.CSV), c.buildOptions}
	err := json.Unmarshal(body, &m)
	c.Name, c.CSV, c.buildOptions = m.Name, []byte(m.CSV), m.buildOptions
	return err
}

func checkBody[T any](t *testing.T, s *server, body []byte, prefilled func() T, decode func(*jsonReader, *T), reference func([]byte, *T) error) {
	t.Helper()
	want, got := prefilled(), prefilled()
	wantErr := reference(body, &want)
	// a decoder may decode a string in place, so it gets a copy
	gotErr := decodeJSON(bytes.Clone(body), &got, decode)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%T from %q: json.Unmarshal says %v, the reader %v", want, body, wantErr, gotErr)
	}
	if wantErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%T from %q:\n got %#v\nwant %#v", want, body, got, want)
	}
	wantStatus := 0 // accepted, nothing written
	switch {
	case int64(len(body)) > s.maxBody:
		wantStatus = http.StatusRequestEntityTooLarge
	case wantErr != nil:
		wantStatus = http.StatusBadRequest
	}
	v := prefilled()
	rec := httptest.NewRecorder()
	status := 0
	if !readBody(s, rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), &v, decode) {
		status = rec.Code
	}
	if status != wantStatus {
		t.Fatalf("%T from %q: read answers %d, want %d (%s)", want, body, status, wantStatus, rec.Body)
	}
}

// FuzzDecodeCSVString holds stringInPlace, forced to cut the string into
// one to four chunks, to stringBytes on the same JSON string: the same
// decoded bytes, the same error text and the same end offset.
func FuzzDecodeCSVString(f *testing.F) {
	rows := `pickup_time,trip_distance\n8.1234,2.5\n23.9999,80\n0,0.01\n`
	for _, s := range []string{
		`"` + rows + `"`, `"` + strings.Repeat(rows, 40) + `",`, `""`, `"no escapes at all"`, `"a\nb"`,
		`"\\n\\\n\\\\n\n"`, `"\\\"\n\"\\"` + "\n}", `"x\n\/\b\f\r\t\u00e9\n\ud83d\ude00\n\ud800\n\udc00\ud800\n\uD800\u0041"`,
		`"` + rows + `\ud83d` + `\n\ude00"`, "\"" + rows + "\xff\xfe\\n\xe2\x80\xa8\\n\"", "\"" + rows + "tab\tin\\n\"", "\"" + rows + "\x1f\\n\"", "\"" + rows + "\x00\\n\"",
		`"` + rows + `\x\n"`, `"` + rows + `\u12\n"`, `"` + rows + `\u\n0041"`, `"` + rows + `\'"`,
		"\"\xff" + strings.Repeat(rows, 8) + "\"", "\"" + rows + "\xc3" + strings.Repeat(rows, 8) + "\"",
		`"` + rows + `\ud800` + strings.Repeat(rows, 8) + `\x"`,
		`"` + rows + `unterminated\n`, `"` + rows + `\`, `"` + rows + `\\"`, `"` + rows + `\"`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) == 0 || body[0] != '"' {
			body = append([]byte{'"'}, body...)
		}
		ref := jsonReader{data: bytes.Clone(body)}
		want := ref.stringBytes()
		for chunks := 1; chunks <= 4; chunks++ {
			d := jsonReader{data: bytes.Clone(body)}
			got := d.stringInPlace(chunks)
			if (d.err == nil) != (ref.err == nil) || d.err != nil && d.err.Error() != ref.err.Error() {
				t.Fatalf("%q in %d chunks: error %v, stringBytes %v", body, chunks, d.err, ref.err)
			}
			if d.err == nil && (!bytes.Equal(got, want) || d.pos != ref.pos) {
				t.Fatalf("%q in %d chunks: %q ending at %d, stringBytes %q ending at %d", body, chunks, got, d.pos, want, ref.pos)
			}
		}
	})
}

// TestEscapeCutsSplitLongStrings checks that a benchmark-shaped csv
// string really is cut into as many chunks as asked, each after a \n
// escape, so FuzzDecodeCSVString and the parallel decode are not one
// chunk in disguise.
func TestEscapeCutsSplitLongStrings(t *testing.T) {
	s := []byte(strings.Repeat(`8.1234,2.5\n\\n`, 1000))
	for n := 1; n <= 4; n++ {
		cuts := escapeCuts(s, n)
		if len(cuts) != n+1 {
			t.Fatalf("%d chunks asked, cuts %v", n, cuts)
		}
		for _, c := range cuts[1:n] {
			if string(s[c-2:c]) != `\n` || backslashesBefore(s, c-1)%2 != 1 {
				t.Fatalf("cut %d does not follow a \\n escape: %q", c, s[c-8:c])
			}
		}
	}
}

// FuzzWriteAnswers holds the /query and insert writers to encoding/json
// byte for byte, the 500 a non-finite value takes included. One input
// makes a batch of every kind of statement result around one scalar.
func FuzzWriteAnswers(f *testing.F) {
	texts := []string{
		"SELECT SUM(light) FROM sensors WHERE hour >= 1 AND hour <= 4",
		"ctl \x00\x01\x1f\b\f\n\r\t", "bad utf-8 \xff\xfe\xc3", "sep \u2028\u2029", `html <>& and "quotes" \ `,
	}
	floats := []float64{0, math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308, 1e-6, 9.999999999999999e-7,
		1e21, 999999999999999900000, 1 << 53, 123456.789, -0.1, math.NaN(), math.Inf(1), math.Inf(-1)}
	for i, s := range texts {
		for j, x := range floats {
			f.Add(s, x, floats[(j+i+1)%len(floats)], floats[(j+3)%len(floats)], 0.25*float64(i), int64(1)<<(3*j), uint8(i*j*37))
		}
	}
	f.Fuzz(func(t *testing.T, text string, x, y, z, skip float64, n int64, flags uint8) {
		results := answerBatch(text, x, y, z, skip, int(n), flags)
		wantStatus, wantBody := referenceQueryAnswer(results)
		rec := httptest.NewRecorder()
		respond(rec, http.StatusOK, true, func(b []byte) ([]byte, error) { return appendQueryAnswer(b, results) })
		if rec.Code != wantStatus || rec.Body.String() != string(wantBody) {
			t.Fatalf("/query answer %d %q\nwant %d %q", rec.Code, rec.Body, wantStatus, wantBody)
		}
		want, _ := encodeJSON(nil, map[string]any{"inserted": int(n)}, false)
		if got := appendInserted(nil, int(n)); string(got) != string(want) {
			t.Fatalf("insert answer %q, want %q", got, want)
		}
	})
}

// answerBatch builds one statement result of each kind from the fuzzed
// values: a scalar (its optional fields chosen by flags), a no-match, an
// error, groups, a sketch, and an EXPLAIN ANALYZE trace; flags also
// picks the batch's order.
func answerBatch(text string, x, y, z, skip float64, n int, flags uint8) []pass.StmtResult {
	a := pass.Answer{
		Estimate: x, CIHalf: y, HardLo: z, HardHi: x + y, HardBounds: flags&1 != 0, Exact: flags&2 != 0,
		TuplesRead: n, SkipRate: skip, Degraded: flags&4 != 0, ShardsTotal: n % 7, ShardsAnswered: n % 5,
	}
	results := []pass.StmtResult{
		{SQL: text, Result: pass.SQLResult{Scalar: a}},
		{SQL: "SELECT AVG(light) FROM sensors WHERE hour > 100", Err: fmt.Errorf("statement 2: %w", pass.ErrNoMatch)},
		{SQL: text, Err: errors.New(text)},
		{SQL: text, Result: pass.SQLResult{Groups: []pass.GroupAnswer{{Group: x, Label: text, Answer: a}, {Group: y, NoMatch: true}}}},
		{SQL: text, Result: pass.SQLResult{Groups: []pass.GroupAnswer{}}},
		{SQL: text, Result: pass.SQLResult{Sketch: &pass.SketchAnswer{Kind: "TOPK", Value: z, Lo: y, Hi: x, Bound: skip,
			Entries: []pass.SketchEntry{{Value: x, Count: y, ErrBound: z}}, Rows: int64(n)}}},
		{SQL: "EXPLAIN ANALYZE " + text, Result: pass.SQLResult{Scalar: a, Trace: &obs.SpanJSON{Name: text, DurationUS: int64(n),
			Attrs: map[string]any{"rows": n, text: y}, Children: []*obs.SpanJSON{{Name: "scan"}}}}},
	}
	if flags&8 != 0 {
		results[0], results[len(results)-1] = results[len(results)-1], results[0]
	}
	if flags&16 != 0 {
		results = results[int(flags>>5)%len(results):]
	}
	return results
}

// TestHotBodiesAllocate pins the allocations of the bodies every
// benchmark request carries: decoding a 16-row insert and a 1- and a
// 64-statement /query, writing their answers, and one request-log line.
// encoding/json needed 49, 23 and 99 allocations for the three decodes
// and 21 for the log line.
func TestHotBodiesAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	hb := newHotBodies(t)
	for _, tc := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"decode 16-row insert", 23, hb.decodeInsert},
		{"decode 1-statement query", 3, func() { hb.decodeQuery(hb.query1) }},
		{"decode 64-statement query", 73, func() { hb.decodeQuery(hb.query64) }},
		{"write insert answer", 0, hb.writeInserted},
		{"write 1-statement answer", 0, func() { hb.writeAnswer(hb.answers[:1]) }},
		{"write 64-statement answer", 0, func() { hb.writeAnswer(hb.answers) }},
		{"request-log line", 0, hb.logLine},
	} {
		if got := testing.AllocsPerRun(100, tc.run); got > tc.max {
			t.Errorf("%s: %v allocs, want at most %v", tc.name, got, tc.max)
		} else {
			t.Logf("%s: %v allocs", tc.name, got)
		}
	}
}

// hotBodies holds the benchmark-shaped bodies and answers that
// TestHotBodiesAllocate and BenchmarkHotBodies run.
type hotBodies struct {
	t                       testing.TB
	insert, query1, query64 []byte
	answers                 []pass.StmtResult
	buf                     []byte
	log                     *obs.JSONLog
}

func newHotBodies(t testing.TB) *hotBodies {
	hb := &hotBodies{t: t, insert: insertBody(16, 1), query1: queryBody(1, 1), query64: queryBody(64, 3),
		buf: make([]byte, 0, 64<<10), log: obs.NewJSONLog(io.Discard)}
	for i := 0; i < 64; i++ {
		hb.answers = append(hb.answers, pass.StmtResult{SQL: benchSQL(i, 3), Result: pass.SQLResult{Scalar: pass.Answer{
			Estimate: 12345.678 + float64(i), CIHalf: 98.7654321, HardLo: 11000.5, HardHi: 13000.25, HardBounds: true,
			TuplesRead: 1234 + i, SkipRate: 0.987654, ShardsTotal: 4, ShardsAnswered: 4,
		}}})
	}
	return hb
}

func (hb *hotBodies) decodeInsert() {
	var req insertRowsRequest
	if err := decodeJSON(hb.insert, &req, decodeInsertRows); err != nil || len(req.Rows) != 16 {
		hb.t.Fatalf("insert body: %d rows, %v", len(req.Rows), err)
	}
}

func (hb *hotBodies) decodeQuery(body []byte) {
	var req queryRequest
	if err := decodeJSON(body, &req, decodeQuery); err != nil || req.SQL == "" && len(req.Statements) == 0 {
		hb.t.Fatalf("query body: %+v, %v", req, err)
	}
}

func (hb *hotBodies) writeInserted() { hb.buf = appendInserted(hb.buf[:0], 16) }

func (hb *hotBodies) writeAnswer(results []pass.StmtResult) {
	var err error
	if hb.buf, err = appendQueryAnswer(hb.buf[:0], results); err != nil {
		hb.t.Fatal(err)
	}
}

func (hb *hotBodies) logLine() {
	hb.log.EmitHTTPRequest(http.MethodPost, "/tables/trips/rows", http.StatusOK, float64(time.Duration(312500).Microseconds())/1000, 21)
}

// BenchmarkHotBodies times the hot bodies one by one: go test -run '^$'
// -bench HotBodies -benchmem ./cmd/passd/
func BenchmarkHotBodies(b *testing.B) {
	hb := newHotBodies(b)
	for _, bc := range []struct {
		name string
		run  func()
	}{
		{"decode_insert16", hb.decodeInsert},
		{"decode_query1", func() { hb.decodeQuery(hb.query1) }},
		{"decode_query64", func() { hb.decodeQuery(hb.query64) }},
		{"write_inserted", hb.writeInserted},
		{"write_answer1", func() { hb.writeAnswer(hb.answers[:1]) }},
		{"write_answer64", func() { hb.writeAnswer(hb.answers) }},
		{"log_line", hb.logLine},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				bc.run()
			}
		})
	}
}
