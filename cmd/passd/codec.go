package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/jsonenc"
	"repro/internal/jsonout"
	"repro/pass"
)

// passd's hot request and response bodies go through this file instead
// of encoding/json's reflection: every body passd decodes, the /query
// answer and the insert answer. Each function here keeps encoding/json's
// behaviour exactly — codec_test.go fuzzes the readers against
// json.Unmarshal and the writers against json.Encoder — so the wire
// contract is still "what encoding/json does with these structs".

// bodyBufs pools request and response bodies. A response is built whole
// before its header goes out, so an encoding failure still becomes a
// 500, and every body leaves in one write with a Content-Length instead
// of chunked.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody bounds the buffers kept in bodyBufs: one huge body must
// not pin its buffer for the life of the process.
const maxPooledBody = 1 << 20

func getBuf() *[]byte { return bodyBufs.Get().(*[]byte) }

func putBuf(p *[]byte, b []byte) {
	if cap(b) <= maxPooledBody {
		*p = b[:0]
		bodyBufs.Put(p)
	}
}

// readBody reads the request body under the -max-body-mb cap and decodes
// it into v, mapping failures to the right client error: 413 when the cap
// was exceeded, 400 for a body json.Unmarshal would reject, trailing data
// included. A false return means the response has been written.
func readBody[T any](s *server, w http.ResponseWriter, r *http.Request, v *T, decode func(*jsonReader, *T)) bool {
	p := getBuf()
	if want := min(r.ContentLength, s.maxBody) + 1; want > int64(cap(*p)) {
		// room for the declared body and the read that finds its end
		*p = make([]byte, 0, want)
	}
	body, err := readAll(http.MaxBytesReader(w, r.Body, s.maxBody), *p)
	if err == nil {
		err = decodeJSON(body, v, decode)
	}
	putBuf(p, body)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
		return false
	}
	httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
	return false
}

// readAll appends everything r yields to b.
func readAll(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// decodeJSON decodes one JSON document into v. Like json.Unmarshal it
// rejects anything but whitespace after the value.
func decodeJSON[T any](data []byte, v *T, decode func(*jsonReader, *T)) error {
	d := jsonReader{data: data}
	decode(&d, v)
	if d.err == nil && d.peek() != eof {
		d.fail("after top-level value")
	}
	return d.err
}

// The request bodies, field by field as encoding/json matches their tags:
// an exact key first, then a case-insensitive one; unknown keys skipped;
// null leaves a scalar as it was and clears a slice.

func decodeQuery(d *jsonReader, q *queryRequest) {
	if !d.object() {
		return
	}
	for first := true; d.more('}', first); first = false {
		switch key := d.key(); {
		case keyIs(key, "sql"):
			d.readString(&q.SQL)
		case keyIs(key, "statements"):
			decodeSlice(d, &q.Statements, (*jsonReader).readString)
		case keyIs(key, "prepared"):
			d.readString(&q.Prepared)
		case keyIs(key, "params"):
			// arbitrary values: the one field left to encoding/json,
			// on its raw bytes
			start := d.skipSpace()
			d.skip()
			if d.err == nil {
				d.err = json.Unmarshal(d.data[start:d.pos], &q.Params)
			}
		default:
			d.skip()
		}
	}
}

func decodePrepare(d *jsonReader, p *prepareRequest) {
	if !d.object() {
		return
	}
	for first := true; d.more('}', first); first = false {
		switch key := d.key(); {
		case keyIs(key, "name"):
			d.readString(&p.Name)
		case keyIs(key, "sql"):
			d.readString(&p.SQL)
		default:
			d.skip()
		}
	}
}

func decodeCreateTable(d *jsonReader, c *createTableRequest) {
	if !d.object() {
		return
	}
	for first := true; d.more('}', first); first = false {
		switch key := d.key(); {
		case keyIs(key, "name"):
			d.readString(&c.Name)
		case keyIs(key, "csv"):
			d.readString(&c.CSV)
		case keyIs(key, "partitions"):
			d.readInt(&c.Partitions)
		case keyIs(key, "sample_rate"):
			d.readFloat(&c.SampleRate)
		case keyIs(key, "sample_size"):
			d.readInt(&c.SampleSize)
		case keyIs(key, "seed"):
			d.readUint(&c.Seed)
		case keyIs(key, "shards"):
			d.readInt(&c.Shards)
		default:
			d.skip()
		}
	}
}

func decodeInsertRows(d *jsonReader, req *insertRowsRequest) {
	if !d.object() {
		return
	}
	for first := true; d.more('}', first); first = false {
		switch key := d.key(); {
		case keyIs(key, "rows"):
			decodeSlice(d, &req.Rows, decodeRow)
		default:
			d.skip()
		}
	}
}

func decodeRow(d *jsonReader, row *insertRow) {
	if !d.object() {
		return
	}
	for first := true; d.more('}', first); first = false {
		switch key := d.key(); {
		case keyIs(key, "point"):
			decodeSlice(d, &row.Point, (*jsonReader).readFloat)
		case keyIs(key, "value"):
			d.readFloat(&row.Value)
		default:
			d.skip()
		}
	}
}

// keyIs matches an object key to a field name as encoding/json does:
// exactly, or else under Unicode case folding.
func keyIs(key []byte, name string) bool {
	return string(key) == name || bytes.EqualFold(key, []byte(name))
}

// decodeSlice decodes a JSON array into *dst in place, as encoding/json
// does: elements are decoded into the existing ones (a null or an object
// missing a field leaves what was there), the slice grows by append, an
// empty array leaves a non-nil empty slice and null leaves nil.
func decodeSlice[T any](d *jsonReader, dst *[]T, elem func(*jsonReader, *T)) {
	if d.null() {
		*dst = nil
		return
	}
	if d.open('[') {
		s, i := *dst, 0
		for first := true; d.more(']', first); first = false {
			if i == len(s) {
				if i < cap(s) {
					s = s[:i+1]
				} else {
					var zero T
					s = append(s, zero)
				}
			}
			elem(d, &s[i])
			i++
		}
		if i == 0 {
			s = []T{}
		}
		*dst = s[:i]
	}
}

// eof is what peek returns past the last byte.
const eof = -1

// maxDepth is encoding/json's nesting limit for objects and arrays.
const maxDepth = 10000

// jsonReader is a single-pass reader over one JSON document. Its first
// error sticks: every later call is a no-op and every loop ends, so
// decoders check d.err once, at the end.
type jsonReader struct {
	data    []byte
	pos     int
	depth   int
	err     error
	scratch []byte // decoded strings that needed unescaping
}

func (d *jsonReader) fail(what string) {
	if d.err != nil {
		return
	}
	if d.pos >= len(d.data) {
		d.err = fmt.Errorf("unexpected end of JSON input")
		return
	}
	d.err = fmt.Errorf("invalid character %q %s at offset %d", d.data[d.pos], what, d.pos)
}

// skipSpace skips JSON whitespace and returns the new offset.
func (d *jsonReader) skipSpace() int {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return d.pos
		}
	}
	return d.pos
}

// peek returns the next byte after whitespace, or eof.
func (d *jsonReader) peek() int {
	if d.skipSpace() < len(d.data) {
		return int(d.data[d.pos])
	}
	return eof
}

// literal consumes word (true, false or null) at the cursor.
func (d *jsonReader) literal(word string) {
	if !bytes.HasPrefix(d.data[d.pos:], []byte(word)) {
		d.fail("in literal")
		return
	}
	d.pos += len(word)
}

// null consumes a null at the cursor and reports whether there was one.
func (d *jsonReader) null() bool {
	if d.err != nil || d.peek() != 'n' {
		return false
	}
	d.literal("null")
	return true
}

// open enters the object or array that delim opens, which must be next.
func (d *jsonReader) open(delim byte) bool {
	if d.err != nil {
		return false
	}
	if d.peek() != int(delim) {
		d.fail("looking for beginning of value")
		return false
	}
	d.pos++
	if d.depth++; d.depth > maxDepth {
		d.err = errors.New("exceeded max depth")
		return false
	}
	return true
}

// object enters the object at the cursor. It returns false for a null,
// which leaves the value being decoded as it was, and on an error.
func (d *jsonReader) object() bool { return !d.null() && d.open('{') }

// more reports whether the object or array that end closes has another
// member, and consumes the ',' before it or end after the last. first
// is true before the first member.
func (d *jsonReader) more(end byte, first bool) bool {
	if d.err != nil {
		return false
	}
	switch c := d.peek(); {
	case c == int(end):
		d.pos++
		d.depth--
		return false
	case first:
		return true
	case c == ',':
		d.pos++
		return true
	}
	d.fail("after object member or array element")
	return false
}

// key reads an object key and its ':'. The returned bytes are valid
// until the next string is read.
func (d *jsonReader) key() []byte {
	if d.peek() != '"' {
		d.fail("looking for beginning of object key string")
		return nil
	}
	k := d.stringBytes()
	if d.peek() != ':' {
		d.fail("after object key")
		return nil
	}
	d.pos++
	return k
}

// value checks that the next value is of the kind that starts with one
// of starts, consuming a null first; false means leave the field be.
func (d *jsonReader) value(kind, starts string) bool {
	if d.null() {
		return false
	}
	c := d.peek()
	if d.err != nil || c == eof {
		d.fail("looking for beginning of value")
		return false
	}
	for i := 0; i < len(starts); i++ {
		if c == int(starts[i]) {
			return true
		}
	}
	// encoding/json reports a mismatch only after checking the whole
	// document; either way the body is a 400
	d.err = fmt.Errorf("cannot unmarshal value at offset %d into a %s field", d.pos, kind)
	return false
}

func (d *jsonReader) readString(dst *string) {
	if d.value("string", `"`) {
		if b := d.stringBytes(); d.err == nil {
			*dst = string(b)
		}
	}
}

// The number fields fail, as in encoding/json, on a literal out of the
// field's range and, for integer fields, on one with a fraction or an
// exponent.

func (d *jsonReader) readFloat(dst *float64) {
	if num := d.numberValue(); num != nil {
		var err error
		*dst, err = strconv.ParseFloat(string(num), 64)
		d.numberErr(num, err)
	}
}

func (d *jsonReader) readInt(dst *int) {
	if num := d.numberValue(); num != nil {
		var err error
		*dst, err = strconv.Atoi(string(num))
		d.numberErr(num, err)
	}
}

func (d *jsonReader) readUint(dst *uint64) {
	if num := d.numberValue(); num != nil {
		var err error
		*dst, err = strconv.ParseUint(string(num), 10, 64)
		d.numberErr(num, err)
	}
}

// numberValue reads the number literal at the cursor; nil means a null,
// or an error.
func (d *jsonReader) numberValue() []byte {
	if !d.value("number", "-0123456789") {
		return nil
	}
	if num := d.number(); d.err == nil {
		return num
	}
	return nil
}

// numberErr records a literal the field's parse rejected. The field was
// written, but a body with an error is rejected whole.
func (d *jsonReader) numberErr(num []byte, err error) {
	if err != nil {
		d.err = fmt.Errorf("cannot unmarshal number %s: %w", num, err)
	}
}

// number reads a number literal under JSON's grammar:
// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *jsonReader) number() []byte {
	start := d.pos
	if d.at('-') {
		d.pos++
	}
	if d.at('0') {
		d.pos++
	} else if !d.digits() {
		d.fail("in numeric literal")
		return nil
	}
	if d.at('.') {
		d.pos++
		if !d.digits() {
			d.fail("after decimal point in numeric literal")
			return nil
		}
	}
	if d.at('e') || d.at('E') {
		d.pos++
		if d.at('+') || d.at('-') {
			d.pos++
		}
		if !d.digits() {
			d.fail("in exponent of numeric literal")
			return nil
		}
	}
	return d.data[start:d.pos]
}

func (d *jsonReader) at(c byte) bool { return d.pos < len(d.data) && d.data[d.pos] == c }

// digits consumes [0-9]* and reports whether there was at least one.
func (d *jsonReader) digits() bool {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}

// stringBytes reads the string at the cursor and returns its decoded
// bytes: a slice of the body when it needs no decoding, else d.scratch.
func (d *jsonReader) stringBytes() []byte {
	d.pos++ // the opening quote
	start := d.pos
	for d.pos < len(d.data) {
		switch c := d.data[d.pos]; {
		case c == '"':
			d.pos++
			return d.data[start : d.pos-1]
		case c == '\\':
			return d.unescape(start)
		case c < 0x20:
			d.fail("in string literal")
			return nil
		case c < utf8.RuneSelf:
			d.pos++
		default:
			r, n := utf8.DecodeRune(d.data[d.pos:])
			if r == utf8.RuneError && n == 1 {
				return d.unescape(start)
			}
			d.pos += n
		}
	}
	d.fail("")
	return nil
}

// unescape finishes a string whose bytes from start on need decoding:
// escapes resolved, a lone or misordered UTF-16 surrogate and every
// invalid UTF-8 byte replaced by U+FFFD.
func (d *jsonReader) unescape(start int) []byte {
	if rest := len(d.data) - start; cap(d.scratch) < rest {
		// the rest of the body bounds the string, but for the few bytes
		// a U+FFFD adds: one allocation for a 15 MB csv, not twenty
		d.scratch = make([]byte, 0, rest)
	}
	b := append(d.scratch[:0], d.data[start:d.pos]...)
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			d.pos++
			d.scratch = b[:0]
			return b
		case c == '\\':
			if d.pos+1 >= len(d.data) {
				d.pos = len(d.data)
				d.fail("")
				return nil
			}
			switch e := d.data[d.pos+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := d.utf16At(d.pos)
				if r < 0 {
					d.pos += 2
					d.fail("in \\u hexadecimal character escape")
					return nil
				}
				d.pos += 6
				if utf16.IsSurrogate(r) {
					if pair := utf16.DecodeRune(r, d.utf16At(d.pos)); pair != utf8.RuneError {
						r = pair
						d.pos += 6
					} else {
						r = utf8.RuneError
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.pos++
				d.fail("in string escape code")
				return nil
			}
			d.pos += 2
		case c < 0x20:
			d.fail("in string literal")
			return nil
		case c < utf8.RuneSelf:
			// the run of plain bytes up to the next quote, backslash,
			// control or non-ASCII byte goes over in one append
			end := d.pos + 1
			for end < len(d.data) && plainByte[d.data[end]] {
				end++
			}
			b = append(b, d.data[d.pos:end]...)
			d.pos = end
		default:
			r, n := utf8.DecodeRune(d.data[d.pos:])
			if r == utf8.RuneError && n == 1 {
				b = utf8.AppendRune(b, utf8.RuneError)
			} else {
				b = append(b, d.data[d.pos:d.pos+n]...)
			}
			d.pos += n
		}
	}
	d.fail("")
	return nil
}

// plainByte marks the bytes a string carries through as they are:
// printable ASCII but the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// utf16At decodes the \uXXXX escape at offset i, or returns -1.
func (d *jsonReader) utf16At(i int) rune {
	if i+6 > len(d.data) || d.data[i] != '\\' || d.data[i+1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range d.data[i+2 : i+6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// skip reads past one value of any kind, checking its syntax and depth.
func (d *jsonReader) skip() {
	switch c := d.peek(); {
	case d.err != nil:
	case c == '{':
		d.open('{')
		for first := true; d.more('}', first); first = false {
			d.key()
			d.skip()
		}
	case c == '[':
		d.open('[')
		for first := true; d.more(']', first); first = false {
			d.skip()
		}
	case c == '"':
		d.stringBytes()
	case c == '-' || '0' <= c && c <= '9':
		d.number()
	case c == 't':
		d.literal("true")
	case c == 'f':
		d.literal("false")
	case c == 'n':
		d.literal("null")
	default:
		d.fail("looking for beginning of value")
	}
}

// respond sends the body build appends, through a pooled buffer. A body
// build cannot encode (a non-finite number) is answered 500 with the
// error, encoded as the body would have been.
func respond(w http.ResponseWriter, status int, compact bool, build func([]byte) ([]byte, error)) {
	p := getBuf()
	body, err := build(*p)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = encodeJSON((*p)[:0], map[string]string{"error": "encode response: " + err.Error()}, compact)
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
	putBuf(p, body)
}

// encodeJSON appends v and a newline as encoding/json writes them:
// compact without HTML escaping, the /query form, or two-space indented,
// the form of every other endpoint.
func encodeJSON(b []byte, v any, compact bool) ([]byte, error) {
	buf := bytes.NewBuffer(b)
	enc := json.NewEncoder(buf)
	if compact {
		enc.SetEscapeHTML(false)
	} else {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(v); err != nil {
		return b, err
	}
	return buf.Bytes(), nil
}

// appendQueryAnswer appends the /query answer {"results": [...]}, one
// member per statement with the keys sql, then one of error, no_match,
// scalar, groups or sketch, then trace. It is compact and without HTML
// escaping: batch answers are the largest and hottest bodies the server
// sends, indentation doubled their cost, and every "<=" echoed would
// cost "\u003c=". Scalars are written here; groups, sketches and traces,
// the cold answers, go through encoding/json.
func appendQueryAnswer(b []byte, results []pass.StmtResult) ([]byte, error) {
	var err error
	b = append(b, `{"results":[`...)
	for i, sr := range results {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"sql":`...)
		b = jsonenc.AppendString(b, sr.SQL, false)
		switch {
		case errors.Is(sr.Err, pass.ErrNoMatch):
			b = append(b, `,"no_match":true`...)
		case sr.Err != nil:
			if msg := sr.Err.Error(); msg != "" {
				b = jsonenc.AppendString(append(b, `,"error":`...), msg, false)
			}
		case sr.Result.Groups != nil:
			if len(sr.Result.Groups) > 0 {
				b, err = appendCold(append(b, `,"groups":`...), jsonout.FromGroups(sr.Result.Groups))
			}
		case sr.Result.Sketch != nil:
			b, err = appendCold(append(b, `,"sketch":`...), jsonout.FromSketch(sr.Result.Sketch))
		default:
			b, err = appendAnswer(append(b, `,"scalar":`...), jsonout.FromAnswer(sr.Result.Scalar))
		}
		if err == nil && sr.Result.Trace != nil {
			b, err = appendCold(append(b, `,"trace":`...), sr.Result.Trace)
		}
		if err != nil {
			return b, err
		}
		b = append(b, '}')
	}
	return append(b, "]}\n"...), nil
}

// appendAnswer appends a's wire form as encoding/json writes the
// jsonout.Answer struct: its tag order, omitempty fields left out at
// zero.
func appendAnswer(b []byte, a *jsonout.Answer) ([]byte, error) {
	var err error
	b, err = jsonenc.AppendFloat(append(b, `{"estimate":`...), a.Estimate)
	if err == nil {
		b, err = jsonenc.AppendFloat(append(b, `,"ci_half":`...), a.CIHalf)
	}
	if err == nil && a.HardLo != 0 {
		b, err = jsonenc.AppendFloat(append(b, `,"hard_lo":`...), a.HardLo)
	}
	if err == nil && a.HardHi != 0 {
		b, err = jsonenc.AppendFloat(append(b, `,"hard_hi":`...), a.HardHi)
	}
	if err != nil {
		return b, err
	}
	if a.HardBounds {
		b = append(b, `,"hard_bounds":true`...)
	}
	if a.Exact {
		b = append(b, `,"exact":true`...)
	}
	b = strconv.AppendInt(append(b, `,"tuples_read":`...), int64(a.TuplesRead), 10)
	if b, err = jsonenc.AppendFloat(append(b, `,"skip_rate":`...), a.SkipRate); err != nil {
		return b, err
	}
	if a.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if a.ShardsTotal != 0 {
		b = strconv.AppendInt(append(b, `,"shards_total":`...), int64(a.ShardsTotal), 10)
	}
	if a.ShardsAnswered != 0 {
		b = strconv.AppendInt(append(b, `,"shards_answered":`...), int64(a.ShardsAnswered), 10)
	}
	return append(b, '}'), nil
}

// appendCold appends v through encoding/json, as the /query encoder
// writes it, without the newline.
func appendCold(b []byte, v any) ([]byte, error) {
	out, err := encodeJSON(b, v, true)
	if err != nil {
		return b, err
	}
	return out[:len(out)-1], nil
}

// appendInserted appends the insert answer {"inserted": n}, indented as
// every endpoint but /query answers.
func appendInserted(b []byte, n int) []byte {
	b = strconv.AppendInt(append(b, "{\n  \"inserted\": "...), int64(n), 10)
	return append(b, "\n}\n"...)
}
