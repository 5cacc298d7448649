package pass

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/sqlfe"
)

// Dict is a dictionary encoding of a categorical (string) column: the
// bridge between SQL string predicates and PASS's numeric rectangles
// (Section 4.5 of the paper).
type Dict struct {
	inner *dataset.Dict
}

// EncodeStrings dictionary-encodes a string column: it returns the
// numeric codes (to Append as a predicate column) and the dictionary (to
// attach to the table with SetDict so SQL queries can use the strings).
func EncodeStrings(column []string) ([]float64, *Dict) {
	codes, d := dataset.Encode(column)
	return codes, &Dict{inner: d}
}

// Code returns the numeric code of a category.
func (d *Dict) Code(v string) (float64, bool) { return d.inner.Code(v) }

// Value returns the category of a code.
func (d *Dict) Value(code float64) (string, error) { return d.inner.Value(code) }

// Categories returns the number of distinct categories.
func (d *Dict) Categories() int { return d.inner.Len() }

// SetDict attaches a dictionary to a predicate column (by name), enabling
// string predicates and GROUP BY on it in SQL queries.
func (t *Table) SetDict(column string, d *Dict) error {
	for i := 0; i < t.inner.Dims(); i++ {
		if t.inner.ColNames[i] == column {
			if t.dicts == nil {
				t.dicts = map[string]*dataset.Dict{}
			}
			t.dicts[column] = d.inner
			return nil
		}
	}
	return fmt.Errorf("pass: %q is not a predicate column", column)
}

// GroupAnswer is one group's result in a GROUP BY query.
type GroupAnswer struct {
	// Group is the numeric group key.
	Group float64
	// Label is the dictionary category when the grouping column has one.
	Label string
	// Answer is the group's approximate aggregate; NoMatch reports groups
	// with no (estimable) matching tuples.
	Answer  Answer
	NoMatch bool
}

// GroupBy answers agg(...) WHERE pred GROUP BY column dim, one equality
// predicate per group key (Section 4.5).
func (s *Synopsis) GroupBy(agg Agg, dim int, groups []float64, pred ...Range) ([]GroupAnswer, error) {
	kind, err := agg.internal()
	if err != nil {
		return nil, err
	}
	res, err := s.inner.GroupBy(kind, toRect(pred), dim, groups)
	if err != nil {
		return nil, err
	}
	return groupAnswers(res, nil, s.inner.N()), nil
}

// SQLResult is the answer of one SQL statement: a scalar for plain
// aggregates, or per-group answers for GROUP BY.
type SQLResult struct {
	// Scalar holds the answer of a non-grouped query.
	Scalar Answer
	// Groups holds the per-group answers of a GROUP BY query (nil
	// otherwise).
	Groups []GroupAnswer
	// Sketch holds the answer of a sketch-family aggregate — QUANTILE,
	// COUNT DISTINCT, TOPK — (nil otherwise); Scalar is then unused.
	Sketch *SketchAnswer
	// Trace is the execution span tree of an EXPLAIN ANALYZE statement
	// (nil for plain statements). The answer it annotates is bitwise
	// identical to the untraced statement's.
	Trace *obs.SpanJSON
}

// SetSchema attaches column names (and optional dictionaries) to a
// synopsis, so it can be registered on a Session and queried with SQL —
// needed after LoadSynopsis, which does not persist names.
func (s *Synopsis) SetSchema(predCols []string, aggCol string, dicts map[string]*Dict) {
	s.schema = sqlfe.Schema{
		PredColumns: append([]string(nil), predCols...),
		AggColumn:   aggCol,
	}
	if len(dicts) > 0 {
		s.schema.Dicts = make(map[string]*dataset.Dict, len(dicts))
		for k, v := range dicts {
			s.schema.Dicts[k] = v.inner
		}
	}
}
