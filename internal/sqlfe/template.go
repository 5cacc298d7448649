package sqlfe

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/dataset"
	"repro/internal/sketch"
)

// This file implements statement normalization and prepared statements:
// the front half of the plan cache. Normalize lifts literals out of a
// statement into a parameter vector and renders the rest in one canonical
// spelling, so every execution of the same statement *shape* maps to the
// same Template.Text regardless of whitespace, keyword case, or literal
// values. CompileTemplate resolves a template against a schema once
// (column indexes, group metadata); Bind then instantiates a Plan from a
// parameter vector without lexing, parsing, or name resolution.
//
// Placeholders are typed — "?n" for numbers, "?s" for strings — because a
// numeric and a string comparison against the same column compile
// differently (strings go through the column dictionary). Folding both
// into one untyped "?" would let `c = 5` and `c = 'x'` share a template
// with different semantics; the typed spelling keeps templates
// collision-free: two statements normalize to the same Text only if they
// are token-for-token identical up to literal values, and the canonical
// text re-parses deterministically to the same plan shape.

// Param is one literal lifted out of a statement by Normalize, or supplied
// by a caller to Prepared.Bind.
type Param struct {
	// Num is the numeric value when IsStr is false.
	Num float64
	// Str is the string value when IsStr is true.
	Str string
	// IsStr selects between Num and Str.
	IsStr bool
}

// NumParam and StrParam build Bind arguments.
func NumParam(v float64) Param { return Param{Num: v} }

// StrParam builds a string Bind argument.
func StrParam(s string) Param { return Param{Str: s, IsStr: true} }

// Template is a normalized statement: the canonical parameterized text
// (the plan-cache key), the lowercased table name, the literals lifted out
// in placeholder order, and the parameterized statement structure.
type Template struct {
	// Text is the canonical parameterized statement, e.g.
	// "SELECT SUM ( price ) FROM sales WHERE region = ?s AND qty >= ?n".
	Text string
	// Table is the FROM table, lowercased (table resolution is
	// case-insensitive everywhere in the stack).
	Table string

	params []Param
	stmt   tmplStmt
}

// Params returns the literal values of the normalized statement, in
// placeholder order. The slice is shared with the template: treat it as
// read-only.
func (t *Template) Params() []Param { return t.params }

// NumParams reports the number of placeholders in the template.
func (t *Template) NumParams() int { return len(t.params) }

// tmplStmt is the parameterized twin of Stmt: conditions reference
// parameter indexes instead of literal values.
type tmplStmt struct {
	agg       dataset.AggKind
	aggColumn string
	conds     []tmplCond
	groupBy   string
	sketch    *tmplSketch
}

// tmplSketch is the parameterized twin of SketchSpec: the numeric
// argument of QUANTILE/TOPK is lifted to parameter index arg (so q and k
// do not fragment the plan cache); arg is -1 for COUNT DISTINCT, which
// takes none.
type tmplSketch struct {
	kind sketch.Kind
	arg  int
}

// tmplCond is one predicate with its literal(s) replaced by parameter
// indexes (lo == hi for single-value operators).
type tmplCond struct {
	column string
	op     CondOp
	lo, hi int
}

// normalizer mirrors the parser's walk over the token stream, emitting
// canonical tokens instead of building a Stmt. It must stay structurally
// identical to parser.selectStmt/cond/value: keywords are folded to upper
// case only at positions where the parser consumes them as keywords, so a
// column that happens to be named "between" or "and" is preserved
// verbatim exactly where the parser would treat it as an identifier.
//
// A normalizer is pooled scratch: its slices are reused across calls, and
// Normalize copies out of it everything the returned Template keeps.
type normalizer struct {
	toks   []token
	pos    int
	out    []byte // canonical text, tokens separated by one space
	params []Param
	table  string
	stmt   tmplStmt
}

var normalizers = sync.Pool{New: func() any { return new(normalizer) }}

// maxPooledNormalizer bounds the canonical text a pooled normalizer may
// keep: one pathological statement must not pin a large buffer forever.
const maxPooledNormalizer = 64 << 10

// Normalize canonicalizes one statement of the supported class into a
// Template. Statements the parser would reject are rejected here with
// equivalent errors; callers that want the parser's exact diagnostics can
// fall back to Parse on any Normalize error.
func Normalize(sql string) (*Template, error) {
	n := normalizers.Get().(*normalizer)
	defer n.release()
	toks, err := lexAppend(n.toks[:0], sql)
	if err != nil {
		return nil, err
	}
	n.toks = toks
	if err := n.run(); err != nil {
		return nil, err
	}
	return n.template(), nil
}

// template copies the normalized statement out of the scratch: one
// allocation for Text, one each for the parameter and condition vectors.
// Column names and string parameters are token texts, which reference the
// (immutable) source statement, never the scratch.
func (n *normalizer) template() *Template {
	t := &Template{Text: string(n.out), Table: n.table, stmt: n.stmt}
	t.params = append([]Param(nil), n.params...)
	t.stmt.conds = append([]tmplCond(nil), n.stmt.conds...)
	return t
}

// release clears every reference into the last statement and returns the
// scratch to the pool.
func (n *normalizer) release() {
	if cap(n.out) > maxPooledNormalizer {
		return
	}
	clear(n.toks)
	clear(n.params)
	clear(n.stmt.conds)
	*n = normalizer{
		toks:   n.toks[:0],
		out:    n.out[:0],
		params: n.params[:0],
		stmt:   tmplStmt{conds: n.stmt.conds[:0]},
	}
	normalizers.Put(n)
}

func (n *normalizer) cur() token { return n.toks[n.pos] }

func (n *normalizer) advance() token {
	t := n.toks[n.pos]
	if t.kind != tokEOF {
		n.pos++
	}
	return t
}

func (n *normalizer) keyword(kw string) bool {
	if n.cur().kind == tokIdent && strings.EqualFold(n.cur().text, kw) {
		n.pos++
		return true
	}
	return false
}

func (n *normalizer) expectKeyword(kw string) error {
	if !n.keyword(kw) {
		return fmt.Errorf("sqlfe: expected %s near %q", kw, n.cur().text)
	}
	n.emit(kw)
	return nil
}

func (n *normalizer) expectSymbol(sym string) error {
	if n.cur().kind == tokSymbol && n.cur().text == sym {
		n.pos++
		n.emit(sym)
		return nil
	}
	return fmt.Errorf("sqlfe: expected %q near %q", sym, n.cur().text)
}

// emit appends one canonical token, separated from the last by a space.
func (n *normalizer) emit(tok string) {
	if len(n.out) > 0 {
		n.out = append(n.out, ' ')
	}
	n.out = append(n.out, tok...)
}

// run mirrors parser.selectStmt.
func (n *normalizer) run() error {
	if err := n.expectKeyword("SELECT"); err != nil {
		return err
	}
	fn := n.advance()
	if fn.kind != tokIdent {
		return fmt.Errorf("sqlfe: expected aggregate function, got %q", fn.text)
	}
	kind, err := dataset.ParseAggKind(fn.text)
	if err != nil {
		if err := n.sketchAgg(fn.text); err != nil {
			return err
		}
	} else {
		n.stmt.agg = kind
		n.emit(strings.ToUpper(fn.text))
		if err := n.expectSymbol("("); err != nil {
			return err
		}
		arg := n.advance()
		switch {
		case arg.kind == tokSymbol && arg.text == "*":
			if kind != dataset.Count {
				return fmt.Errorf("sqlfe: %s(*) is not supported; name a column", kind)
			}
			n.stmt.aggColumn = "*"
			n.emit("*")
		case arg.kind == tokIdent:
			// mirrors the parser: COUNT(DISTINCT col) is the distinct
			// sketch; DISTINCT is folded to upper case only here, where
			// the parser consumes it as a keyword.
			if kind == dataset.Count && strings.EqualFold(arg.text, "DISTINCT") && n.cur().kind == tokIdent {
				n.stmt.aggColumn = n.advance().text
				n.stmt.sketch = &tmplSketch{kind: sketch.KindDistinct, arg: -1}
				n.emit("DISTINCT")
				n.emit(n.stmt.aggColumn)
			} else {
				n.stmt.aggColumn = arg.text
				n.emit(arg.text)
			}
		default:
			return fmt.Errorf("sqlfe: expected column or * in aggregate, got %q", arg.text)
		}
		if err := n.expectSymbol(")"); err != nil {
			return err
		}
	}
	if err := n.expectKeyword("FROM"); err != nil {
		return err
	}
	tbl := n.advance()
	if tbl.kind != tokIdent {
		return fmt.Errorf("sqlfe: expected table name, got %q", tbl.text)
	}
	n.table = strings.ToLower(tbl.text)
	n.emit(n.table)
	if n.keyword("WHERE") {
		n.emit("WHERE")
		for {
			if err := n.cond(); err != nil {
				return err
			}
			if n.cur().kind == tokIdent && strings.EqualFold(n.cur().text, "OR") {
				return fmt.Errorf("sqlfe: OR is not supported — PASS answers rectangular (conjunctive) predicates")
			}
			if !n.keyword("AND") {
				break
			}
			n.emit("AND")
		}
	}
	if n.keyword("GROUP") {
		n.emit("GROUP")
		if err := n.expectKeyword("BY"); err != nil {
			return err
		}
		col := n.advance()
		if col.kind != tokIdent {
			return fmt.Errorf("sqlfe: expected grouping column, got %q", col.text)
		}
		n.stmt.groupBy = col.text
		n.emit(col.text)
	}
	if n.cur().kind != tokEOF {
		return fmt.Errorf("sqlfe: unexpected trailing input %q", n.cur().text)
	}
	return nil
}

// sketchAgg mirrors parser.sketchAgg: QUANTILE(col, q) and TOPK(col, k),
// with the numeric argument lifted into the parameter vector so every q
// (or k) shares one template.
func (n *normalizer) sketchAgg(fn string) error {
	var kind sketch.Kind
	switch {
	case strings.EqualFold(fn, "QUANTILE"):
		kind = sketch.KindQuantile
	case strings.EqualFold(fn, "TOPK"):
		kind = sketch.KindTopK
	default:
		return fmt.Errorf("sqlfe: %q is not a supported aggregate (SUM/COUNT/AVG/MIN/MAX/QUANTILE/TOPK/COUNT DISTINCT)", fn)
	}
	n.emit(strings.ToUpper(fn))
	if err := n.expectSymbol("("); err != nil {
		return err
	}
	col := n.advance()
	if col.kind != tokIdent {
		return fmt.Errorf("sqlfe: expected column in %s, got %q", kind, col.text)
	}
	n.stmt.aggColumn = col.text
	n.emit(col.text)
	if err := n.expectSymbol(","); err != nil {
		return err
	}
	arg := n.advance()
	if arg.kind != tokNumber {
		return fmt.Errorf("sqlfe: %s needs a numeric second argument, got %q", kind, arg.text)
	}
	v, err := strconv.ParseFloat(arg.text, 64)
	if err != nil {
		return fmt.Errorf("sqlfe: bad number %q", arg.text)
	}
	idx := len(n.params)
	n.params = append(n.params, Param{Num: v})
	n.emit("?n")
	if err := n.expectSymbol(")"); err != nil {
		return err
	}
	n.stmt.sketch = &tmplSketch{kind: kind, arg: idx}
	return nil
}

// cond mirrors parser.cond.
func (n *normalizer) cond() error {
	col := n.advance()
	if col.kind != tokIdent {
		return fmt.Errorf("sqlfe: expected column name in WHERE, got %q", col.text)
	}
	c := tmplCond{column: col.text}
	n.emit(col.text)
	if n.keyword("BETWEEN") {
		n.emit("BETWEEN")
		lo, loStr, err := n.value()
		if err != nil {
			return err
		}
		if err := n.expectKeyword("AND"); err != nil {
			return err
		}
		hi, hiStr, err := n.value()
		if err != nil {
			return err
		}
		if loStr != hiStr {
			return fmt.Errorf("sqlfe: BETWEEN bounds must both be numbers or both strings")
		}
		c.op, c.lo, c.hi = OpBetween, lo, hi
		n.stmt.conds = append(n.stmt.conds, c)
		return nil
	}
	op := n.advance()
	if op.kind != tokSymbol {
		return fmt.Errorf("sqlfe: expected comparison operator after %q, got %q", col.text, op.text)
	}
	switch op.text {
	case "=":
		c.op = OpEq
	case "<=":
		c.op = OpLe
	case ">=":
		c.op = OpGe
	case "<":
		c.op = OpLt
	case ">":
		c.op = OpGt
	case "<>", "!=":
		return fmt.Errorf("sqlfe: != predicates are not rectangular and are not supported")
	default:
		return fmt.Errorf("sqlfe: unsupported operator %q", op.text)
	}
	n.emit(op.text)
	v, _, err := n.value()
	if err != nil {
		return err
	}
	c.lo, c.hi = v, v
	n.stmt.conds = append(n.stmt.conds, c)
	return nil
}

// value lifts one literal into the parameter vector and emits its typed
// placeholder, returning the parameter index.
func (n *normalizer) value() (idx int, isStr bool, err error) {
	t := n.advance()
	switch t.kind {
	case tokNumber:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return 0, false, fmt.Errorf("sqlfe: bad number %q", t.text)
		}
		idx = len(n.params)
		n.params = append(n.params, Param{Num: v})
		n.emit("?n")
		return idx, false, nil
	case tokString:
		idx = len(n.params)
		n.params = append(n.params, Param{Str: t.text, IsStr: true})
		n.emit("?s")
		return idx, true, nil
	}
	return 0, false, fmt.Errorf("sqlfe: expected a literal, got %q", t.text)
}

// Prepared is a template compiled against a schema: table and column names
// resolved, group metadata materialized. Executing the statement again
// needs only Bind, which is pure arithmetic plus dictionary lookups for
// string parameters. A Prepared is immutable after CompileTemplate and
// safe for concurrent Bind calls.
type Prepared struct {
	// Text is the canonical template text this plan was compiled from.
	Text string

	agg       dataset.AggKind
	dims      int
	conds     []preparedCond
	groupDim  int
	groups    []float64
	groupDict *dataset.Dict
	// sketch is non-nil for sketch-family statements; Bind then emits a
	// Plan carrying a sketch.Query instead of a rectangle.
	sketch *tmplSketch
	// paramStr[i] reports whether parameter i must be a string.
	paramStr []bool
}

// preparedCond is a schema-resolved predicate awaiting parameter values.
type preparedCond struct {
	dim    int
	op     CondOp
	lo, hi int // parameter indexes
	column string
	// dict resolves string parameters; nil for numeric predicates.
	dict *dataset.Dict
}

// CompileTemplate resolves a normalized template against a schema,
// performing all the name resolution Compile would do but none of the
// literal arithmetic, which moves to Bind.
func CompileTemplate(t *Template, schema Schema) (*Prepared, error) {
	if schema.Table != "" && !strings.EqualFold(t.Table, schema.Table) {
		return nil, fmt.Errorf("sqlfe: unknown table %q (schema serves %q)", t.Table, schema.Table)
	}
	colIndex := make(map[string]int, len(schema.PredColumns))
	for i, c := range schema.PredColumns {
		colIndex[c] = i
	}
	if t.stmt.aggColumn != "*" && t.stmt.aggColumn != schema.AggColumn {
		return nil, fmt.Errorf("sqlfe: aggregate column %q is not the synopsis's aggregation column %q",
			t.stmt.aggColumn, schema.AggColumn)
	}
	p := &Prepared{
		Text:     t.Text,
		agg:      t.stmt.agg,
		dims:     len(schema.PredColumns),
		groupDim: -1,
		paramStr: make([]bool, len(t.params)),
	}
	for i, prm := range t.params {
		p.paramStr[i] = prm.IsStr
	}
	if t.stmt.sketch != nil {
		if err := checkSketchStmt(len(t.stmt.conds) > 0, t.stmt.groupBy != "", t.stmt.sketch.kind); err != nil {
			return nil, err
		}
		p.sketch = t.stmt.sketch
		return p, nil
	}
	for _, c := range t.stmt.conds {
		dim, ok := colIndex[c.column]
		if !ok {
			return nil, fmt.Errorf("sqlfe: unknown predicate column %q (have %v)", c.column, schema.PredColumns)
		}
		pc := preparedCond{dim: dim, op: c.op, lo: c.lo, hi: c.hi, column: c.column}
		if t.params[c.lo].IsStr {
			d := schema.Dicts[c.column]
			if d == nil {
				return nil, fmt.Errorf("sqlfe: column %q compared to a string but has no dictionary", c.column)
			}
			pc.dict = d
		}
		p.conds = append(p.conds, pc)
	}
	if t.stmt.groupBy != "" {
		dim, ok := colIndex[t.stmt.groupBy]
		if !ok {
			return nil, fmt.Errorf("sqlfe: unknown grouping column %q", t.stmt.groupBy)
		}
		p.groupDim = dim
		if d := schema.Dicts[t.stmt.groupBy]; d != nil {
			p.groups = d.Codes()
			p.groupDict = d
		}
	}
	return p, nil
}

// NumParams reports the number of parameters Bind expects.
func (p *Prepared) NumParams() int { return len(p.paramStr) }

// Agg reports the statement's aggregate kind.
func (p *Prepared) Agg() dataset.AggKind { return p.agg }

// Bind instantiates the prepared statement with a parameter vector,
// producing the same Plan Compile would have built for the statement with
// those literals. Parameter kinds must match the template's placeholders.
func (p *Prepared) Bind(params []Param) (*Plan, error) {
	if len(params) != len(p.paramStr) {
		return nil, fmt.Errorf("sqlfe: statement has %d parameters, got %d", len(p.paramStr), len(params))
	}
	for i := range params {
		if params[i].IsStr != p.paramStr[i] {
			want := "a number"
			if p.paramStr[i] {
				want = "a string"
			}
			return nil, fmt.Errorf("sqlfe: parameter %d must be %s", i+1, want)
		}
	}
	if p.sketch != nil {
		q := sketch.Query{Kind: p.sketch.kind}
		if p.sketch.arg >= 0 {
			q.Arg = params[p.sketch.arg].Num
		}
		if err := validateSketchArg(q); err != nil {
			return nil, err
		}
		return &Plan{GroupDim: -1, Sketch: &q}, nil
	}
	lo := make([]float64, p.dims)
	hi := make([]float64, p.dims)
	for c := 0; c < p.dims; c++ {
		lo[c], hi[c] = math.Inf(-1), math.Inf(1)
	}
	for _, c := range p.conds {
		vLo, err := c.resolve(params[c.lo])
		if err != nil {
			return nil, err
		}
		vHi, err := c.resolve(params[c.hi])
		if err != nil {
			return nil, err
		}
		cLo, cHi, err := opBounds(c.op, vLo, vHi)
		if err != nil {
			return nil, err
		}
		if cLo > lo[c.dim] {
			lo[c.dim] = cLo
		}
		if cHi < hi[c.dim] {
			hi[c.dim] = cHi
		}
	}
	return &Plan{
		Agg:       p.agg,
		Rect:      dataset.Rect{Lo: lo, Hi: hi},
		GroupDim:  p.groupDim,
		Groups:    p.groups,
		GroupDict: p.groupDict,
	}, nil
}

// resolve maps one parameter to its numeric predicate value, going through
// the column dictionary for string parameters.
func (c *preparedCond) resolve(prm Param) (float64, error) {
	if c.dict == nil {
		return prm.Num, nil
	}
	v, ok := c.dict.Code(prm.Str)
	if !ok {
		return 0, fmt.Errorf("sqlfe: %q is not a known category of column %q", prm.Str, c.column)
	}
	return v, nil
}
