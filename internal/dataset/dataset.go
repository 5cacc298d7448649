// Package dataset provides the columnar data substrate for the PASS
// reproduction: tuple storage with one aggregation column and d predicate
// columns, rectangular predicates, exact (ground-truth) aggregation, CSV
// import/export, and synthetic generators that simulate the paper's three
// real-world datasets plus its adversarial synthetic dataset.
package dataset

import (
	"errors"
	"fmt"
	"math"
)

// AggKind identifies one of the aggregate functions supported by PASS.
type AggKind int

const (
	// Sum aggregates Σ a over tuples matching the predicate.
	Sum AggKind = iota
	// Count counts tuples matching the predicate.
	Count
	// Avg averages a over tuples matching the predicate.
	Avg
	// Min returns the minimum a among matching tuples.
	Min
	// Max returns the maximum a among matching tuples.
	Max
)

// String returns the SQL name of the aggregate.
func (k AggKind) String() string {
	switch k {
	case Sum:
		return "SUM"
	case Count:
		return "COUNT"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	}
	return fmt.Sprintf("AggKind(%d)", int(k))
}

// ParseAggKind converts a SQL aggregate name ("SUM", "count", ...) to an
// AggKind.
func ParseAggKind(s string) (AggKind, error) {
	switch {
	case equalFold(s, "SUM"):
		return Sum, nil
	case equalFold(s, "COUNT"):
		return Count, nil
	case equalFold(s, "AVG"):
		return Avg, nil
	case equalFold(s, "MIN"):
		return Min, nil
	case equalFold(s, "MAX"):
		return Max, nil
	}
	return 0, fmt.Errorf("dataset: unknown aggregate %q", s)
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'a' <= ca && ca <= 'z' {
			ca -= 'a' - 'A'
		}
		if 'a' <= cb && cb <= 'z' {
			cb -= 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// Rect is an axis-aligned rectangular predicate x_i <= C_i <= y_i over the
// predicate columns (Section 3.1 of the paper). Bounds are inclusive.
type Rect struct {
	Lo, Hi []float64
}

// NewRect returns a rectangle with the given inclusive bounds. The slices
// are retained.
func NewRect(lo, hi []float64) Rect { return Rect{Lo: lo, Hi: hi} }

// Rect1 builds a one-dimensional rectangle (interval).
func Rect1(lo, hi float64) Rect {
	return Rect{Lo: []float64{lo}, Hi: []float64{hi}}
}

// Dims returns the dimensionality of the rectangle.
func (r Rect) Dims() int { return len(r.Lo) }

// Contains reports whether the point p satisfies the predicate. Dimensions
// of p beyond the rectangle's are ignored (the rectangle is unconstrained
// there), which is what the workload-shift experiments rely on.
func (r Rect) Contains(p []float64) bool {
	for i := range r.Lo {
		if p[i] < r.Lo[i] || p[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether other lies entirely inside r on r's
// dimensions.
func (r Rect) ContainsRect(other Rect) bool {
	for i := range r.Lo {
		if other.Lo[i] < r.Lo[i] || other.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether the two rectangles overlap on r's dimensions.
func (r Rect) Intersects(other Rect) bool {
	for i := range r.Lo {
		if other.Hi[i] < r.Lo[i] || other.Lo[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// String renders the rectangle as conjunctive range predicates.
func (r Rect) String() string {
	s := ""
	for i := range r.Lo {
		if i > 0 {
			s += " AND "
		}
		s += fmt.Sprintf("%g <= C%d <= %g", r.Lo[i], i, r.Hi[i])
	}
	return s
}

// Dataset is a columnar collection of N tuples (c_i, a_i): d predicate
// columns and one aggregation column. Column-major layout keeps scans and
// per-column sorts cache-friendly.
type Dataset struct {
	Name string
	// ColNames names the predicate columns, then the aggregate column last.
	ColNames []string
	// Pred[d][i] is predicate column d of tuple i.
	Pred [][]float64
	// Agg[i] is the aggregation value of tuple i.
	Agg []float64
}

// New creates an empty dataset with the given predicate dimensionality.
func New(name string, dims int) *Dataset {
	d := &Dataset{Name: name, Pred: make([][]float64, dims)}
	d.ColNames = make([]string, dims+1)
	for i := 0; i < dims; i++ {
		d.ColNames[i] = fmt.Sprintf("c%d", i)
	}
	d.ColNames[dims] = "a"
	return d
}

// N returns the number of tuples.
func (d *Dataset) N() int { return len(d.Agg) }

// Dims returns the number of predicate columns.
func (d *Dataset) Dims() int { return len(d.Pred) }

// Append adds one tuple. len(pred) must equal Dims().
func (d *Dataset) Append(pred []float64, agg float64) {
	if len(pred) != d.Dims() {
		panic("dataset: Append with wrong predicate arity")
	}
	for i, v := range pred {
		d.Pred[i] = append(d.Pred[i], v)
	}
	d.Agg = append(d.Agg, agg)
}

// Point returns the predicate vector of tuple i (a view, not a copy).
func (d *Dataset) Point(i int) []float64 {
	p := make([]float64, d.Dims())
	for j := range p {
		p[j] = d.Pred[j][i]
	}
	return p
}

// Matches reports whether tuple i satisfies r.
func (d *Dataset) Matches(i int, r Rect) bool {
	for j := range r.Lo {
		v := d.Pred[j][i]
		if v < r.Lo[j] || v > r.Hi[j] {
			return false
		}
	}
	return true
}

// Permute reorders tuples so that new position i holds old tuple idx[i].
func (d *Dataset) Permute(idx []int) {
	if len(idx) != d.N() {
		panic("dataset: Permute with wrong index length")
	}
	for c := range d.Pred {
		old := d.Pred[c]
		nw := make([]float64, len(old))
		for i, j := range idx {
			nw[i] = old[j]
		}
		d.Pred[c] = nw
	}
	oldA := d.Agg
	nwA := make([]float64, len(oldA))
	for i, j := range idx {
		nwA[i] = oldA[j]
	}
	d.Agg = nwA
}

// Slice returns a shallow view of tuples [lo, hi): the returned dataset
// shares backing arrays with d.
func (d *Dataset) Slice(lo, hi int) *Dataset {
	out := &Dataset{Name: d.Name, ColNames: d.ColNames, Pred: make([][]float64, d.Dims())}
	for c := range d.Pred {
		out.Pred[c] = d.Pred[c][lo:hi]
	}
	out.Agg = d.Agg[lo:hi]
	return out
}

// Clone returns a deep copy of the dataset.
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{Name: d.Name}
	out.ColNames = append([]string(nil), d.ColNames...)
	out.Pred = make([][]float64, d.Dims())
	for c := range d.Pred {
		out.Pred[c] = append([]float64(nil), d.Pred[c]...)
	}
	out.Agg = append([]float64(nil), d.Agg...)
	return out
}

// Bounds returns the bounding rectangle of the predicate columns. For an
// empty dataset it returns a degenerate rectangle of ±Inf.
func (d *Dataset) Bounds() Rect {
	dims := d.Dims()
	lo := make([]float64, dims)
	hi := make([]float64, dims)
	for c := 0; c < dims; c++ {
		lo[c], hi[c] = math.Inf(1), math.Inf(-1)
		for _, v := range d.Pred[c] {
			if v < lo[c] {
				lo[c] = v
			}
			if v > hi[c] {
				hi[c] = v
			}
		}
	}
	return Rect{Lo: lo, Hi: hi}
}

// ErrNoMatch is returned by Exact for AVG/MIN/MAX queries whose predicate
// selects no tuples.
var ErrNoMatch = errors.New("dataset: predicate matches no tuples")

// Exact computes the ground-truth answer of the aggregate over tuples
// matching r by a full scan. SUM and COUNT of an empty selection are 0;
// AVG, MIN, MAX return ErrNoMatch.
func (d *Dataset) Exact(kind AggKind, r Rect) (float64, error) {
	sum, count := 0.0, 0
	mn, mx := math.Inf(1), math.Inf(-1)
	for i := 0; i < d.N(); i++ {
		if !d.Matches(i, r) {
			continue
		}
		a := d.Agg[i]
		sum += a
		count++
		if a < mn {
			mn = a
		}
		if a > mx {
			mx = a
		}
	}
	switch kind {
	case Sum:
		return sum, nil
	case Count:
		return float64(count), nil
	case Avg:
		if count == 0 {
			return 0, ErrNoMatch
		}
		return sum / float64(count), nil
	case Min:
		if count == 0 {
			return 0, ErrNoMatch
		}
		return mn, nil
	case Max:
		if count == 0 {
			return 0, ErrNoMatch
		}
		return mx, nil
	}
	return 0, fmt.Errorf("dataset: unknown aggregate kind %d", kind)
}

// CountMatching returns how many tuples satisfy r.
func (d *Dataset) CountMatching(r Rect) int {
	n := 0
	for i := 0; i < d.N(); i++ {
		if d.Matches(i, r) {
			n++
		}
	}
	return n
}

// AggBounds returns the min and max of the aggregation column; (+Inf, -Inf)
// when empty.
func (d *Dataset) AggBounds() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, a := range d.Agg {
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
	}
	return lo, hi
}
