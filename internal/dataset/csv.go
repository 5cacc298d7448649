package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
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

// ReadCSV reads a dataset written by WriteCSV: a header row followed by
// numeric rows where the last column is the aggregate.
func ReadCSV(r io.Reader, name string) (*Dataset, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	if len(header) < 2 {
		return nil, fmt.Errorf("dataset: need at least 2 columns, got %d", len(header))
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

// parseField reads one CSV field as a finite number. A NaN or an
// infinity is refused: one in a table makes every aggregate over it
// non-finite, and no answer with it can be sent as JSON.
func parseField(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("non-finite value %q", s)
	}
	return v, err
}
