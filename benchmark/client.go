package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// conn is one closed-loop client's connection state: the response buffer
// is reused so the load generator, which shares two CPUs with the server,
// allocates as little as it can per request.
type conn struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newHTTPClient(clients int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients},
		Timeout:   2 * time.Minute,
	}
}

// post sends one JSON request and reads the whole response. The returned
// body is valid until the next call on the same conn.
func (c *conn) post(path string, body []byte) (status int, resp []byte, err error) {
	r, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer r.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(r.Body); err != nil {
		return r.StatusCode, nil, err
	}
	return r.StatusCode, c.buf.Bytes(), nil
}

func (c *conn) get(path string) ([]byte, error) {
	r, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	b, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, err
	}
	if r.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, r.StatusCode, b)
	}
	return b, nil
}

func (c *conn) scrape() (promSample, error) {
	b, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(b)
}

// answer is the part of passd's per-statement JSON the checks read.
type answer struct {
	Estimate   float64 `json:"estimate"`
	CIHalf     float64 `json:"ci_half"`
	HardLo     float64 `json:"hard_lo"`
	HardHi     float64 `json:"hard_hi"`
	HardBounds bool    `json:"hard_bounds"`
	TuplesRead int     `json:"tuples_read"`
}

type queryResponse struct {
	Results []struct {
		Error   string  `json:"error"`
		NoMatch bool    `json:"no_match"`
		Scalar  *answer `json:"scalar"`
	} `json:"results"`
}

// query sends statements as one request, in the workload's request shape,
// and returns one answer per statement. Any failure — transport, status,
// a per-statement error, a missing answer — is an error.
func (c *conn) query(stmts []stmt) ([]answer, error) {
	status, resp, err := c.post("/query", queryBody(stmts))
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("POST /query: status %d: %s", status, resp)
	}
	var qr queryResponse
	if err := json.Unmarshal(resp, &qr); err != nil {
		return nil, fmt.Errorf("POST /query: %w", err)
	}
	if len(qr.Results) != len(stmts) {
		return nil, fmt.Errorf("POST /query: %d results for %d statements", len(qr.Results), len(stmts))
	}
	out := make([]answer, len(stmts))
	for i, r := range qr.Results {
		if r.Error != "" || r.NoMatch || r.Scalar == nil {
			return nil, fmt.Errorf("%s: error %q no_match %v", stmts[i].sql, r.Error, r.NoMatch)
		}
		out[i] = *r.Scalar
	}
	return out, nil
}

// queryAll answers a statement list in requests of perRequest statements.
func (c *conn) queryAll(stmts []stmt, perRequest int) ([]answer, error) {
	out := make([]answer, 0, len(stmts))
	for len(stmts) > 0 {
		n := min(perRequest, len(stmts))
		a, err := c.query(stmts[:n])
		if err != nil {
			return nil, err
		}
		out, stmts = append(out, a...), stmts[n:]
	}
	return out, nil
}

// countRows asks for the whole-table COUNT(*), which the synopsis answers
// exactly.
func (c *conn) countRows() (float64, error) {
	a, err := c.query([]stmt{{sql: "SELECT COUNT(*) FROM " + tableName}})
	if err != nil {
		return 0, err
	}
	return a[0].Estimate, nil
}

// createTableBody is the POST /tables request that loads t.
func createTableBody(t *table, sp spec) []byte {
	b := []byte(`{"name":"` + tableName + `","shards":4`)
	if sp.partitions > 0 {
		b = append(b, `,"partitions":`...)
		b = strconv.AppendInt(b, int64(sp.partitions), 10)
	}
	if sp.sampleRate > 0 {
		b = append(b, `,"sample_rate":`...)
		b = appendNum(b, sp.sampleRate)
	}
	b = append(b, `,"csv":`...)
	b = strconv.AppendQuote(b, string(t.csv()))
	return append(b, '}')
}

func (c *conn) createTable(body []byte, wantPersisted bool) error {
	status, resp, err := c.post("/tables", body)
	if err != nil {
		return err
	}
	if status != http.StatusCreated {
		return fmt.Errorf("POST /tables: status %d: %s", status, resp)
	}
	var info struct {
		Rows      int  `json:"rows"`
		Shards    int  `json:"shards"`
		Persisted bool `json:"persisted"`
	}
	if err := json.Unmarshal(resp, &info); err != nil {
		return fmt.Errorf("POST /tables: %w", err)
	}
	if info.Shards != 4 || info.Persisted != wantPersisted {
		return fmt.Errorf("POST /tables: got shards=%d persisted=%v, want 4 and %v", info.Shards, info.Persisted, wantPersisted)
	}
	return nil
}
