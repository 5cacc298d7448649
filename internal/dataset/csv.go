package dataset

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"

	"repro/internal/parallel"
)

// WriteCSV writes the dataset with a header row (predicate columns, then
// the aggregate column).
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(d.ColNames); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	row := make([]string, d.Dims()+1)
	for i := 0; i < d.N(); i++ {
		for c := 0; c < d.Dims(); c++ {
			row[c] = strconv.FormatFloat(d.Pred[c][i], 'g', -1, 64)
		}
		row[d.Dims()] = strconv.FormatFloat(d.Agg[i], 'g', -1, 64)
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("dataset: write row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// parallelCSVBytes is the input size from which ReadCSV parses on every
// CPU; a smaller input is one chunk, where starting workers would cost
// more than they save.
const parallelCSVBytes = 256 << 10

// ReadCSV reads a dataset written by WriteCSV: a header row followed by
// numeric rows where the last column is the aggregate. One leading UTF-8
// byte order mark is dropped; a header with an empty or a repeated column
// name is refused, since no statement could name that column.
//
// An input of parallelCSVBytes or more is cut at record boundaries into
// parallel.Workers() chunks that are parsed concurrently. A chunk is first
// split on newlines and commas directly (splitRows); one that holds a
// quote or a carriage return, or fails that split in any way, is parsed
// by encoding/csv. If any chunk fails there, the input is parsed again as
// one chunk by encoding/csv, so every error names the row, line and column
// it would on one reader.
func ReadCSV(r io.Reader, name string) (*Dataset, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dataset: read csv: %w", err)
	}
	return ReadCSVBytes(data, name)
}

// ReadCSVBytes is ReadCSV over data, parsed where it lies: data is not
// copied, not kept, and must not change during the call.
func ReadCSVBytes(data []byte, name string) (*Dataset, error) {
	chunks := 1
	if len(data) >= parallelCSVBytes {
		chunks = parallel.Workers()
	}
	return readCSV(data, name, chunks)
}

// readCSV is ReadCSV over data cut into at most chunks chunks.
func readCSV(data []byte, name string, chunks int) (*Dataset, error) {
	data = bytes.TrimPrefix(data, []byte("\ufeff"))
	cr := csv.NewReader(bytes.NewReader(data))
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	header = slices.Clone(header)
	if err := checkHeader(header); err != nil {
		return nil, err
	}
	body := data[cr.InputOffset():]
	if cuts := recordCuts(body, chunks); len(cuts) > 2 {
		chunkReader := func(i int) *csv.Reader {
			r := csv.NewReader(bytes.NewReader(body[cuts[i]:cuts[i+1]]))
			r.ReuseRecord = true
			r.FieldsPerRecord = len(header)
			return r
		}
		if d, err := readChunks(name, header, body, cuts, chunkReader); err == nil {
			return d, nil
		}
	}
	// One chunk: the header's reader goes on (it took the header's width
	// as FieldsPerRecord), so an error carries the file's row, line and
	// column.
	return readChunks(name, header, body, []int{0, len(body)}, func(int) *csv.Reader { return cr })
}

// checkHeader refuses a header a statement cannot query by: fewer than
// two columns, or a column with an empty or an already used name.
func checkHeader(header []string) error {
	if len(header) < 2 {
		return fmt.Errorf("dataset: need at least 2 columns, got %d", len(header))
	}
	for i, name := range header {
		if name == "" {
			return fmt.Errorf("dataset: column %d has an empty name", i+1)
		}
		if j := slices.Index(header[:i], name); j >= 0 {
			return fmt.Errorf("dataset: column name %q is used twice, at positions %d and %d", name, j+1, i+1)
		}
	}
	return nil
}

// recordCuts cuts body into at most n chunks that each start at a record
// and returns their offsets, 0 first and len(body) last. A cut lies just
// past a newline outside quotes, which is one with an even number of '"'
// before it: on input encoding/csv accepts, every '"' opens or closes a
// quoted field or is half of a "" inside one. On input it rejects, a cut
// may land inside a record; the chunk around it then fails too.
func recordCuts(body []byte, n int) []int {
	cuts := []int{0}
	if n > 1 {
		seg := func(i int) int { return i * len(body) / n }
		quotes := make([]int, n)
		parallel.For(n, func(i int) { quotes[i] = bytes.Count(body[seg(i):seg(i+1)], []byte{'"'}) })
		before := 0 // '"' in body[:seg(i)]
		for i := 1; i < n; i++ {
			before += quotes[i-1]
			if at := recordStart(body, seg(i), before%2 == 1); at > cuts[len(cuts)-1] && at < len(body) {
				cuts = append(cuts, at)
			}
		}
	}
	return append(cuts, len(body))
}

// recordStart returns the offset just past the first newline outside
// quotes at or after from, or len(body); quoted says whether from lies
// inside a quoted field.
func recordStart(body []byte, from int, quoted bool) int {
	for i := from; i < len(body); i++ {
		switch body[i] {
		case '"':
			quoted = !quoted
		case '\n':
			if !quoted {
				return i + 1
			}
		}
	}
	return len(body)
}

// readChunks parses body[cuts[i]:cuts[i+1]], all chunks at once, into
// columns shared by the chunks, then closes the gaps between them. Chunk i
// is split by splitRows, or else parsed by reader(i). It owns as many
// slots as it has newlines (the last one more), never fewer than its
// records, so no chunk outgrows its slots and, on input with no blank line
// or quoted newline, no row moves.
func readChunks(name string, header []string, body []byte, cuts []int, reader func(i int) *csv.Reader) (*Dataset, error) {
	n := len(cuts) - 1
	slots := make([]int, n)
	parallel.For(n, func(i int) { slots[i] = bytes.Count(body[cuts[i]:cuts[i+1]], []byte{'\n'}) })
	slots[n-1]++ // the last record may lack its newline
	total := 0
	for _, s := range slots {
		total += s
	}
	cols := make([][]float64, len(header))
	for c := range cols {
		cols[c] = make([]float64, total)
	}
	parts := make([][][]float64, n)
	errs := make([]error, n)
	parallel.For(n, func(i int) {
		lo := 0
		for _, s := range slots[:i] {
			lo += s
		}
		part := make([][]float64, len(cols))
		for c := range part {
			part[c] = cols[c][lo : lo : lo+slots[i]]
		}
		if !splitRows(body[cuts[i]:cuts[i+1]], part) {
			for c := range part {
				part[c] = part[c][:0]
			}
			errs[i] = readRows(reader(i), header, part)
		}
		parts[i] = part
	})
	rows := 0
	for i, part := range parts {
		if errs[i] != nil {
			return nil, errs[i]
		}
		for c := range cols {
			copy(cols[c][rows:], part[c])
		}
		rows += len(part[0])
	}
	dims := len(header) - 1
	d := &Dataset{Name: name, ColNames: header, Pred: make([][]float64, dims), Agg: cols[dims][:rows]}
	for c := range d.Pred {
		d.Pred[c] = cols[c][:rows]
	}
	return d, nil
}

// splitRows appends the records of chunk to cols, one column per field,
// when every record is len(cols) numbers that parseNumber accepts, and
// reports whether they were. It splits on '\n' and ',' and skips empty
// lines, which is what encoding/csv does on a chunk with no '"' and no
// '\r'; a field with either byte is no number, so such a chunk fails here
// and encoding/csv parses it. On failure cols holds a prefix of the rows.
func splitRows(chunk []byte, cols [][]float64) bool {
	last := len(cols) - 1
	for i := 0; i < len(chunk); {
		if chunk[i] == '\n' {
			i++ // an empty line
			continue
		}
		for c := range cols {
			j := i
			for j < len(chunk) && chunk[j] != ',' && chunk[j] != '\n' {
				j++
			}
			v, err := parseNumber(chunk[i:j])
			// a field ends at ',' exactly when another one follows it
			if err != nil || (j < len(chunk) && chunk[j] == ',') != (c < last) {
				return false
			}
			cols[c] = append(cols[c], v)
			i = j + 1
		}
	}
	return true
}

// readRows appends the records cr yields to cols, one column per field,
// numbering rows from 1. cr must refuse a record whose width is not the
// header's.
func readRows(cr *csv.Reader, header []string, cols [][]float64) error {
	agg := len(header) - 1
	for row := 1; ; row++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("dataset: read row %d: %w", row, err)
		}
		for c, field := range rec {
			v, err := parseNumber(field)
			if err != nil {
				if c == agg {
					return fmt.Errorf("dataset: row %d aggregate column %q: %w", row, header[c], err)
				}
				return fmt.Errorf("dataset: row %d column %q: %w", row, header[c], err)
			}
			cols[c] = append(cols[c], v)
		}
	}
}
