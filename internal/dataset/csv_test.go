package dataset

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/stats"
)

// sequentialReadCSV is ReadCSV as it was before it parsed in chunks: one
// encoding/csv reader, row by row. Only the header step is today's
// (checkHeader, after one leading byte order mark is dropped). It is the
// reference FuzzReadCSV holds the chunked reader to.
func sequentialReadCSV(r io.Reader, name string) (*Dataset, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	cr := csv.NewReader(bytes.NewReader(bytes.TrimPrefix(data, []byte("\ufeff"))))
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	if err := checkHeader(header); err != nil {
		return nil, err
	}
	dims := len(header) - 1
	d := New(name, dims)
	d.ColNames = header
	rowNum := 1
	pred := make([]float64, dims)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: read row %d: %w", rowNum, err)
		}
		if len(rec) != dims+1 {
			return nil, fmt.Errorf("dataset: row %d has %d fields, want %d", rowNum, len(rec), dims+1)
		}
		for c := 0; c < dims; c++ {
			if pred[c], err = parseField(rec[c]); err != nil {
				return nil, fmt.Errorf("dataset: row %d column %q: %w", rowNum, header[c], err)
			}
		}
		agg, err := parseField(rec[dims])
		if err != nil {
			return nil, fmt.Errorf("dataset: row %d aggregate column %q: %w", rowNum, header[dims], err)
		}
		d.Append(pred, agg)
		rowNum++
	}
	return d, nil
}

// parseField is the number reader of the sequential reference:
// strconv.ParseFloat, refusing a NaN or an infinity. It is the oracle
// FuzzParseNumber holds parseNumber to.
func parseField(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("non-finite value %q", s)
	}
	return v, err
}

// sameBits reports whether two datasets hold the same names and the
// same columns bit for bit.
func sameBits(a, b *Dataset) bool {
	if !slices.Equal(a.ColNames, b.ColNames) || a.Dims() != b.Dims() {
		return false
	}
	eq := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
	}
	for c := range a.Pred {
		if !eq(a.Pred[c], b.Pred[c]) {
			return false
		}
	}
	return eq(a.Agg, b.Agg)
}

// FuzzReadCSV holds the chunked reader, cut into as many as 8 chunks
// whatever the input's size, to one sequential encoding/csv reader: both
// accept or both reject with the same error text, and an accepted input
// loads to bitwise equal columns.
func FuzzReadCSV(f *testing.F) {
	for _, s := range []string{
		"hour,light\n1,2\n3,4\n5,6\n7,8\n",
		"a,b,c\n1,2,3\n4,5,6\n7,8,9",
		"\"a\",\"b\"\n\"1\",\"2\"\n\"3\",\"4\"\n",
		"\"a\nb\",c\n\"1\",2\n3,\"4\"\n",
		"a,b\r\n1,2\r\n\"3\r\n\",4\r\n5,6\r\n",
		"\"a\"\"x\",b\n1,2\n\"3\"\"\",4\n",
		"a,b\n1,2\"\n3,4\n",
		"a,b\n\"1\"2,3\n4,5\n",
		"a,b\n1,2\n\n\n3,4\n\n5,6\n",
		"a,b\n1,2\n3\n4,5\n",
		"a,b\n1,2,3\n4,5\n",
		"a,b\n1,NaN\n2,3\n", "a,b\n+Inf,1\n", "a,b\n1,-infinity\n",
		"\ufeffx,v\n1,2\n3,4\n", "\ufeff\"x\",v\n1,2\n",
		"x,x,v\n1,2,3\n", ",v\n1,2\n", "x\n1\n", "",
		"a,b\n1,\"2\n", "a,b\n\"1\n2\",3\n", "a,b\n1e400,2\n", "a,b\n0x1p-2,-0\n",
		// records whose fields would realign into whole rows if a split
		// ignored where each record ends
		"a,b\n1,2,3,4\n5,6\n", "a,b,c\n1,2\n3,4\n5,6\n7,8\n",
	} {
		for chunks := uint8(1); chunks <= 4; chunks++ {
			f.Add([]byte(s), chunks)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, chunks uint8) {
		want, wantErr := sequentialReadCSV(bytes.NewReader(data), "t")
		got, gotErr := readCSV(bytes.Clone(data), "t", 1+int(chunks%8))
		if (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() {
			t.Fatalf("%q in %d chunks: error %v, want %v", data, 1+chunks%8, gotErr, wantErr)
		}
		if wantErr == nil && !sameBits(got, want) {
			t.Fatalf("%q in %d chunks:\n got %v %v %v\nwant %v %v %v", data, 1+chunks%8,
				got.ColNames, got.Pred, got.Agg, want.ColNames, want.Pred, want.Agg)
		}
	})
}

// TestRecordCutsSkipQuotedNewlines: on quoted fields that hold newlines
// every cut still falls at the start of a record, so such input is
// parsed in chunks rather than again on one reader.
func TestRecordCutsSkipQuotedNewlines(t *testing.T) {
	const rec = "\"a\nb\"\"\n\",\"1\r\n\"\n"
	body := []byte(strings.Repeat(rec, 50))
	for n := 2; n <= 9; n++ {
		cuts := recordCuts(body, n)
		if len(cuts) != n+1 {
			t.Errorf("%d chunks: cuts %v", n, cuts)
		}
		for _, c := range cuts[:len(cuts)-1] {
			if c%len(rec) != 0 {
				t.Errorf("%d chunks: cut at %d is inside a record", n, c)
			}
		}
	}
}

// TestReadCSVHeaderNames: a leading byte order mark is dropped, and a
// header with an empty or a repeated name, which no statement could
// query by, is refused with the column and its positions.
func TestReadCSVHeaderNames(t *testing.T) {
	d, err := ReadCSV(strings.NewReader("\ufeffx,v\n1,2\n"), "t")
	if err != nil || !slices.Equal(d.ColNames, []string{"x", "v"}) {
		t.Errorf("BOM header: %v, %v; want columns [x v]", d, err)
	}
	for _, tc := range []struct{ csv, want string }{
		{"x,x,v\n0.5,5,1\n", `dataset: column name "x" is used twice, at positions 1 and 2`},
		{"x,v,x\n1,2,3\n", `dataset: column name "x" is used twice, at positions 1 and 3`},
		{",v\n1,2\n", "dataset: column 1 has an empty name"},
		{"x,\n1,2\n", "dataset: column 2 has an empty name"},
	} {
		if _, err := ReadCSV(strings.NewReader(tc.csv), "t"); err == nil || err.Error() != tc.want {
			t.Errorf("ReadCSV(%q) = %v, want %s", tc.csv, err, tc.want)
		}
	}
}

// taxiTable is shaped like the served benchmark's 1-D table: a pickup
// hour in four decimals, so heavy with ties, in no order, and a trip
// distance.
func taxiTable(n int) *Dataset {
	rng := stats.NewRNG(7)
	d := New("taxi", 1)
	d.ColNames = []string{"pickup_time", "trip_distance"}
	d.Pred[0] = make([]float64, n)
	d.Agg = make([]float64, n)
	for i := range d.Agg {
		d.Pred[0][i] = math.Round(rng.Float64()*24e4) / 1e4
		d.Agg[i] = math.Round(rng.LogNormal(0.6, 0.8)*1e4) / 1e4
	}
	return d
}

func taxiCSV(t testing.TB, n int) []byte {
	var buf bytes.Buffer
	if err := taxiTable(n).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadCSVMatchesSequentialAtScale loads a benchmark-sized table on
// every CPU and on one reader: the columns must be bitwise equal.
func TestReadCSVMatchesSequentialAtScale(t *testing.T) {
	data := taxiCSV(t, 1_000_000)
	want, err := sequentialReadCSV(bytes.NewReader(data), "t")
	if err != nil {
		t.Fatal(err)
	}
	for _, chunks := range []int{2, 7} {
		got, err := readCSV(data, "t", chunks)
		if err != nil || !sameBits(got, want) {
			t.Fatalf("%d chunks: %v; columns equal: %v", chunks, err, err == nil && sameBits(got, want))
		}
	}
}

// TestReadCSVAllocations holds the allocations ReadCSV makes per row of
// the benchmark-shaped table: none, since splitRows parses it in place;
// what is left is per chunk and per column.
func TestReadCSVAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const rows = 100_000
	data := taxiCSV(t, rows)
	perRow := testing.AllocsPerRun(5, func() {
		if _, err := ReadCSV(bytes.NewReader(data), "t"); err != nil {
			t.Fatal(err)
		}
	}) / rows
	const ceiling = 0.01
	if perRow > ceiling {
		t.Errorf("ReadCSV: %.4f allocs per row, want at most %v", perRow, ceiling)
	}
	t.Logf("ReadCSV: %.4f allocs per row", perRow)
}

// BenchmarkReadCSV loads the benchmark-shaped 1M-row table: go test
// -run '^$' -bench ReadCSV -benchmem ./internal/dataset/
func BenchmarkReadCSV(b *testing.B) {
	data := taxiCSV(b, 1_000_000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ReadCSV(bytes.NewReader(data), "t"); err != nil {
			b.Fatal(err)
		}
	}
}

// comparatorSortByPred is SortByPred as it was before the radix sort:
// (key, index) pairs under the generic sorter. It is the reference for
// the permutation on NaN-free columns.
func comparatorSortByPred(d *Dataset, dim int) {
	type kv struct {
		key float64
		idx int
	}
	col := d.Pred[dim]
	pairs := make([]kv, len(col))
	for i, v := range col {
		pairs[i] = kv{key: v, idx: i}
	}
	slices.SortFunc(pairs, func(a, b kv) int {
		switch {
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		case a.idx < b.idx:
			return -1
		case a.idx > b.idx:
			return 1
		default:
			return 0
		}
	})
	idx := make([]int, len(pairs))
	for i, p := range pairs {
		idx[i] = p.idx
	}
	d.Permute(idx)
}

// TestSortByPredMatchesComparator: on NaN-free columns the radix sort
// leaves the comparator sort's permutation, read off the aggregate
// column, which holds each row's input position.
func TestSortByPredMatchesComparator(t *testing.T) {
	rng := stats.NewRNG(3)
	negZero := math.Copysign(0, -1)
	specials := []float64{0, negZero, 5e-324, -5e-324, 2.2250738585072014e-308, -1, 1,
		math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, 1e300, -1e-300}
	gens := map[string]func(i, n int) float64{
		"ties":     func(i, n int) float64 { return float64(rng.Intn(5)) - 2 },
		"zeros":    func(i, n int) float64 { return []float64{0, negZero}[rng.Intn(2)] },
		"specials": func(i, n int) float64 { return specials[rng.Intn(len(specials))] },
		"mixed":    func(i, n int) float64 { return rng.NormMS(0, 1e3) * math.Pow(10, float64(rng.Intn(40)-20)) },
		"hours":    func(i, n int) float64 { return math.Round(rng.Float64()*24e2) / 1e2 },
		"sorted":   func(i, n int) float64 { return float64(i / 3) },
		"reversed": func(i, n int) float64 { return float64(n - i/2) },
		"negative": func(i, n int) float64 { return -rng.Float64() },
	}
	for name, gen := range gens {
		for _, n := range []int{0, 1, 2, 3, 7, 255, 257, 1001, 4099} {
			d := New("t", 2)
			for i := 0; i < n; i++ {
				d.Append([]float64{gen(i, n), rng.Float64()}, float64(i))
			}
			want := d.Clone()
			comparatorSortByPred(want, 0)
			d.SortByPred(0)
			if !sameBits(d, want) {
				t.Fatalf("%s, n=%d: permutation %v, want %v", name, n, d.Agg, want.Agg)
			}
		}
	}
}

// TestSortByPredNaNLast: NaN keys, which no loader admits, go after every
// other key in their input order.
func TestSortByPredNaNLast(t *testing.T) {
	nan := math.NaN()
	d := New("t", 1)
	for i, v := range []float64{nan, 2, math.Inf(1), -nan, 1, nan} {
		d.Append([]float64{v}, float64(i))
	}
	d.SortByPred(0)
	if want := []float64{4, 1, 2, 0, 3, 5}; !slices.Equal(d.Agg, want) {
		t.Errorf("order %v, want %v", d.Agg, want)
	}
}

// BenchmarkSortByPred sorts the benchmark-shaped 1M-row table by its
// predicate column: go test -run '^$' -bench SortByPred -benchmem
// ./internal/dataset/
func BenchmarkSortByPred(b *testing.B) {
	base := taxiTable(1_000_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := base.Clone()
		b.StartTimer()
		d.SortByPred(0)
	}
}
