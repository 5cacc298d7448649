package main

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
	"strconv"
)

// Everything passd receives is generated here from (-seed, workload name,
// stream name) and nothing else: the same seed gives byte-identical
// tables, statements and insert rows, and neither the seed nor the
// workload name is ever sent to passd.

const (
	tableName = "trips"
	aggColumn = "trip_distance"
	// rowsPerInsert is the batch size of one POST /tables/{t}/rows.
	rowsPerInsert = 16
)

// predColumns are the predicate columns of the simulated taxi table, in
// schema order; a d-dimensional table uses the first d.
var predColumns = []string{"pickup_time", "pickup_day", "zone"}

// domain is the value range of each predicate column.
var domain = [][2]float64{{0, 24}, {0, 31}, {0, 263}}

// rangeWidth is the width range of a generated predicate on each column:
// wide enough that no box is empty, narrow enough that most leaves a box
// touches are partial (sampled), and never aligned to a partition edge.
var rangeWidth = [][2]float64{{0.5, 6}, {5, 20}, {40, 200}}

// rangeWidthKD widens the first column's predicates on multi-dimensional
// boxes so that a 3-D box still selects a few thousand rows.
var rangeWidthKD = [2]float64{4, 16}

func newRNG(seed uint64, workload, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workload))
	h.Write([]byte{0})
	h.Write([]byte(stream))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// round4 keeps four decimals, so the shortest decimal form of every
// generated number is short and parses back to exactly the same float —
// the truth is computed from the same values passd sees.
func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }

func appendNum(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'f', -1, 64) }

// table is the benchmark's own copy of the rows it loaded into passd, in
// column order, used to compute exact answers.
type table struct {
	dims int
	pred [][]float64 // pred[c][i]
	agg  []float64
}

func (t *table) rows() int { return len(t.agg) }

func (t *table) appendRow(point []float64, value float64) {
	for c := range t.pred {
		t.pred[c] = append(t.pred[c], point[c])
	}
	t.agg = append(t.agg, value)
}

// genRow draws one simulated taxi trip: pickup hour with two rush-hour
// peaks, day of month, pickup zone, and a log-normal trip distance that
// runs longer late at night and in the outer zones.
func genRow(rng *rand.Rand, point []float64) (value float64) {
	var hour float64
	switch u := rng.Float64(); {
	case u < 0.30:
		hour = 8.5 + 1.5*rng.NormFloat64()
	case u < 0.65:
		hour = 18 + 2*rng.NormFloat64()
	default:
		hour = rng.Float64() * 24
	}
	hour = math.Min(math.Max(hour, 0), 23.9999)
	day := float64(rng.IntN(31))
	zone := float64(rng.IntN(263))
	mu := 0.6
	if hour < 6 || hour > 22 {
		mu += 0.5
	}
	if zone > 200 {
		mu += 0.4
	}
	dist := math.Min(math.Exp(mu+0.8*rng.NormFloat64()), 80)
	full := [3]float64{round4(hour), day, zone}
	copy(point, full[:len(point)])
	return math.Max(round4(dist), 0.01)
}

func genTable(seed uint64, workload string, rows, dims int) *table {
	rng := newRNG(seed, workload, "table")
	t := &table{dims: dims, pred: make([][]float64, dims), agg: make([]float64, 0, rows)}
	for c := range t.pred {
		t.pred[c] = make([]float64, 0, rows)
	}
	point := make([]float64, dims)
	for i := 0; i < rows; i++ {
		v := genRow(rng, point)
		t.appendRow(point, v)
	}
	return t
}

// csv renders the table in the form POST /tables takes: a header row,
// then numeric rows with the aggregate column last.
func (t *table) csv() []byte {
	b := make([]byte, 0, t.rows()*(8*t.dims+8))
	for c := 0; c < t.dims; c++ {
		b = append(b, predColumns[c]...)
		b = append(b, ',')
	}
	b = append(b, aggColumn...)
	b = append(b, '\n')
	for i := range t.agg {
		for c := 0; c < t.dims; c++ {
			b = appendNum(b, t.pred[c][i])
			b = append(b, ',')
		}
		b = appendNum(b, t.agg[i])
		b = append(b, '\n')
	}
	return b
}

// stmt is one generated aggregate statement: its SQL text and the same
// query in a form the benchmark can evaluate exactly.
type stmt struct {
	agg    string // SUM, COUNT, AVG, MIN, MAX
	lo, hi []float64
	sql    string
}

// genStmts draws n range-aggregate statements over a dims-dimensional
// table, rotating through aggs. Every statement of one aggregate has the
// same shape and fresh literals, so it hits one plan-cache entry.
func genStmts(rng *rand.Rand, n, dims int, aggs []string) []stmt {
	out := make([]stmt, n)
	for i := range out {
		s := stmt{agg: aggs[i%len(aggs)], lo: make([]float64, dims), hi: make([]float64, dims)}
		for c := 0; c < dims; c++ {
			wr := rangeWidth[c]
			if c == 0 && dims > 1 {
				wr = rangeWidthKD
			}
			w := wr[0] + rng.Float64()*(wr[1]-wr[0])
			lo := domain[c][0] + rng.Float64()*(domain[c][1]-domain[c][0]-w)
			s.lo[c], s.hi[c] = round4(lo), round4(lo+w)
		}
		s.sql = string(s.appendSQL(nil))
		out[i] = s
	}
	return out
}

func (s *stmt) appendSQL(b []byte) []byte {
	b = append(b, "SELECT "...)
	b = append(b, s.agg...)
	if s.agg == "COUNT" {
		b = append(b, "(*)"...)
	} else {
		b = append(b, '(')
		b = append(b, aggColumn...)
		b = append(b, ')')
	}
	b = append(b, " FROM "...)
	b = append(b, tableName...)
	for c := range s.lo {
		if c == 0 {
			b = append(b, " WHERE "...)
		} else {
			b = append(b, " AND "...)
		}
		b = append(b, predColumns[c]...)
		b = append(b, " >= "...)
		b = appendNum(b, s.lo[c])
		b = append(b, " AND "...)
		b = append(b, predColumns[c]...)
		b = append(b, " <= "...)
		b = appendNum(b, s.hi[c])
	}
	return b
}

// exact evaluates the statement over the benchmark's own rows; ok is
// false when no row matches (AVG/MIN/MAX undefined).
func (t *table) exact(s *stmt) (v float64, ok bool) {
	var sum float64
	n := 0
	lo, hi := math.Inf(1), math.Inf(-1)
rows:
	for i, a := range t.agg {
		for c := range s.lo {
			if p := t.pred[c][i]; p < s.lo[c] || p > s.hi[c] {
				continue rows
			}
		}
		n++
		sum += a
		lo, hi = math.Min(lo, a), math.Max(hi, a)
	}
	switch s.agg {
	case "SUM":
		return sum, true
	case "COUNT":
		return float64(n), true
	case "AVG":
		return sum / float64(n), n > 0
	case "MIN":
		return lo, n > 0
	default: // MAX
		return hi, n > 0
	}
}

// queryBody is one POST /query body: a single statement as {"sql": …},
// several as {"statements": […]}.
func queryBody(stmts []stmt) []byte {
	if len(stmts) == 1 {
		return append(strconv.AppendQuote([]byte(`{"sql":`), stmts[0].sql), '}')
	}
	b := []byte(`{"statements":[`)
	for i := range stmts {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, stmts[i].sql)
	}
	return append(b, "]}"...)
}

// insertBatch is one POST /tables/{t}/rows request and the rows in it.
type insertBatch struct {
	body   []byte
	points [][]float64
	values []float64
}

func genInserts(rng *rand.Rand, n, dims int) []insertBatch {
	out := make([]insertBatch, n)
	for i := range out {
		ib := insertBatch{body: []byte(`{"rows":[`)}
		for r := 0; r < rowsPerInsert; r++ {
			point := make([]float64, dims)
			value := genRow(rng, point)
			ib.points, ib.values = append(ib.points, point), append(ib.values, value)
			if r > 0 {
				ib.body = append(ib.body, ',')
			}
			ib.body = append(ib.body, `{"point":[`...)
			for c, p := range point {
				if c > 0 {
					ib.body = append(ib.body, ',')
				}
				ib.body = appendNum(ib.body, p)
			}
			ib.body = append(ib.body, `],"value":`...)
			ib.body = appendNum(ib.body, value)
			ib.body = append(ib.body, '}')
		}
		ib.body = append(ib.body, "]}"...)
		out[i] = ib
	}
	return out
}
