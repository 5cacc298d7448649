package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// streamDigest hashes everything a workload would send to passd for a
// seed: the table, the verification set, a reader's and a writer's stream.
func streamDigest(sp spec, seed uint64, rows int) string {
	h := sha256.New()
	h.Write(genTable(seed, sp.name, rows, sp.dims).csv())
	for _, stream := range []string{"verify", "reader0", "probe"} {
		stmts := genStmts(newRNG(seed, sp.name, stream), 128, sp.dims, sp.aggs)
		h.Write(queryBody(stmts[:1]))
		h.Write(queryBody(stmts))
	}
	for _, ib := range genInserts(newRNG(seed, sp.name, "writer0"), 32, sp.dims) {
		h.Write(ib.body)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestSameSeedSameBytes(t *testing.T) {
	for _, sp := range workloads {
		a, b := streamDigest(sp, 7, 2000), streamDigest(sp, 7, 2000)
		if a != b {
			t.Errorf("%s: seed 7 gave two different request streams", sp.name)
		}
		if c := streamDigest(sp, 8, 2000); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", sp.name)
		}
	}
	// streams of one seed differ from each other and between workloads
	r0 := genStmts(newRNG(7, "point_1d", "reader0"), 4, 1, allAggs)
	r1 := genStmts(newRNG(7, "point_1d", "reader1"), 4, 1, allAggs)
	other := genStmts(newRNG(7, "mixed_rw", "reader0"), 4, 1, allAggs)
	if r0[0].sql == r1[0].sql || r0[0].sql == other[0].sql {
		t.Errorf("streams are not independent: %q %q %q", r0[0].sql, r1[0].sql, other[0].sql)
	}
}

func TestNothingSentNamesSeedOrWorkload(t *testing.T) {
	sp, _ := workloadByName("batch_kd")
	const seed = 987654321
	stmts := genStmts(newRNG(seed, sp.name, "reader0"), 64, sp.dims, sp.aggs)
	sent := string(queryBody(stmts)) + string(createTableBody(genTable(seed, sp.name, 100, sp.dims), sp)) +
		string(genInserts(newRNG(seed, sp.name, "writer0"), 1, sp.dims)[0].body)
	for _, secret := range []string{sp.name, fmt.Sprint(seed)} {
		if strings.Contains(sent, secret) {
			t.Errorf("request bodies contain %q", secret)
		}
	}
}

func TestBodiesAreTheJSONPassdExpects(t *testing.T) {
	sp, _ := workloadByName("batch_kd")
	stmts := genStmts(newRNG(1, sp.name, "reader0"), 3, sp.dims, sp.aggs)
	var one struct{ SQL string }
	if err := json.Unmarshal(queryBody(stmts[:1]), &one); err != nil || one.SQL != stmts[0].sql {
		t.Errorf("single-statement body: %v, sql %q", err, one.SQL)
	}
	var many struct{ Statements []string }
	if err := json.Unmarshal(queryBody(stmts), &many); err != nil || len(many.Statements) != 3 || many.Statements[2] != stmts[2].sql {
		t.Errorf("batch body: %v, %v", err, many.Statements)
	}
	want := "SELECT SUM(trip_distance) FROM trips WHERE pickup_time >= "
	if !strings.HasPrefix(stmts[0].sql, want) || strings.Count(stmts[0].sql, " AND ") != 5 {
		t.Errorf("3-D statement = %q", stmts[0].sql)
	}

	ib := genInserts(newRNG(1, sp.name, "writer0"), 1, sp.dims)[0]
	var req struct {
		Rows []struct {
			Point []float64
			Value float64
		}
	}
	if err := json.Unmarshal(ib.body, &req); err != nil || len(req.Rows) != rowsPerInsert {
		t.Fatalf("insert body: %v, %d rows", err, len(req.Rows))
	}
	for i, r := range req.Rows {
		if r.Value != ib.values[i] || len(r.Point) != sp.dims || r.Point[0] != ib.points[i][0] {
			t.Errorf("row %d on the wire %v differs from the benchmark's copy %v %v", i, r, ib.points[i], ib.values[i])
		}
	}

	tbl := genTable(1, sp.name, 50, sp.dims)
	var create struct {
		Name, CSV  string
		Partitions int
		Shards     int
		SampleRate float64 `json:"sample_rate"`
	}
	if err := json.Unmarshal(createTableBody(tbl, sp), &create); err != nil {
		t.Fatal(err)
	}
	if create.Name != tableName || create.Shards != 4 || create.Partitions != 256 || create.SampleRate != 0.05 {
		t.Errorf("create-table options = %+v", create)
	}
	if lines := strings.Split(strings.TrimSpace(create.CSV), "\n"); len(lines) != 51 || lines[0] != "pickup_time,pickup_day,zone,trip_distance" {
		t.Errorf("csv has %d lines, header %q", len(lines), lines[0])
	}
}

func TestExactAgainstHandComputedRows(t *testing.T) {
	tbl := &table{dims: 2, pred: [][]float64{{1, 2, 3, 4}, {10, 20, 30, 40}}, agg: []float64{5, 6, 7, 8}}
	q := func(agg string) *stmt { return &stmt{agg: agg, lo: []float64{2, 0}, hi: []float64{4, 30}} } // rows 2 and 3
	for agg, want := range map[string]float64{"SUM": 13, "COUNT": 2, "AVG": 6.5, "MIN": 6, "MAX": 7} {
		if got, ok := tbl.exact(q(agg)); !ok || got != want {
			t.Errorf("%s = %v (ok %v), want %v", agg, got, ok, want)
		}
	}
	empty := &stmt{agg: "AVG", lo: []float64{9, 0}, hi: []float64{10, 1}}
	if _, ok := tbl.exact(empty); ok {
		t.Error("AVG over no rows reported as defined")
	}
	tbl.appendRow([]float64{2.5, 15}, 100)
	if got, _ := tbl.exact(q("MAX")); got != 100 {
		t.Errorf("MAX after appendRow = %v, want 100", got)
	}
}

func TestScoreCountsViolationsAndCoverage(t *testing.T) {
	stmts := []stmt{{agg: "SUM", sql: "a"}, {agg: "COUNT", sql: "b"}, {agg: "MAX", sql: "c"}, {agg: "AVG", sql: "d"}}
	truth := []float64{100, 50, 9, 10}
	answers := []answer{
		{Estimate: 101, CIHalf: 2, HardLo: 90, HardHi: 110, HardBounds: true}, // covered, 1 % off
		{Estimate: 60, CIHalf: 5, HardLo: 55, HardHi: 70, HardBounds: true},   // not covered, truth below hard_lo
		{Estimate: 9, HardLo: 9, HardHi: 9, HardBounds: true},                 // MAX: hard bounds only
		{Estimate: 10.3, CIHalf: 1},                                           // no hard bounds given
	}
	acc := score(stmts, truth, answers, freshTolerance)
	if acc.estimates != 3 || acc.hardChecked != 3 || len(acc.violations) != 1 {
		t.Fatalf("estimates %d hardChecked %d violations %v", acc.estimates, acc.hardChecked, acc.violations)
	}
	if want := 2.0 / 3; math.Abs(acc.coverage-want) > 1e-12 {
		t.Errorf("coverage = %v, want %v", acc.coverage, want)
	}
	if want := 0.03; math.Abs(acc.relErrP50-want) > 1e-9 { // median of 1 %, 20 %, 3 %
		t.Errorf("rel_err_p50 = %v, want %v", acc.relErrP50, want)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the driver
// reads, in step with the tables the program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match %v", kind, d.name, d.bound)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, e2eMetrics, true)
	same("per_layer", bj.PerLayer, layerMetrics, false)
}
