package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/jsonenc"
	"repro/internal/jsonout"
	"repro/internal/parallel"
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
	body, ok := readDecode(s, w, r, *p, v, decode)
	putBuf(p, body)
	return ok
}

// readOwnedBody is readBody into a buffer of the request's own, for a
// decoder that leaves v holding slices of the body (decodeCreateTable
// decodes the csv string in place).
func readOwnedBody[T any](s *server, w http.ResponseWriter, r *http.Request, v *T, decode func(*jsonReader, *T)) bool {
	_, ok := readDecode(s, w, r, nil, v, decode)
	return ok
}

// readDecode reads the body into buf, grown to hold it, decodes it into
// v, and answers the client error when either fails.
func readDecode[T any](s *server, w http.ResponseWriter, r *http.Request, buf []byte, v *T, decode func(*jsonReader, *T)) ([]byte, bool) {
	if want := min(r.ContentLength, s.maxBody) + 1; want > int64(cap(buf)) {
		// room for the declared body and the read that finds its end
		buf = make([]byte, 0, want)
	}
	body, err := readAll(http.MaxBytesReader(w, r.Body, s.maxBody), buf)
	if err == nil {
		err = decodeJSON(body, v, decode)
	}
	if err == nil {
		return body, true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
		return body, false
	}
	httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
	return body, false
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
			d.readOwnedString(&c.CSV)
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

// readOwnedString reads a string field as bytes the caller keeps: the
// string decoded in place in d.data (stringInPlace), on every CPU when
// the body from the string on is at least parallelCSVBytes long.
func (d *jsonReader) readOwnedString(dst *[]byte) {
	if d.value("string", `"`) {
		chunks := 1
		if len(d.data)-d.pos >= parallelCSVBytes {
			chunks = parallel.Workers()
		}
		if b := d.stringInPlace(chunks); d.err == nil {
			*dst = b
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

// parallelCSVBytes is the body length, from the string on, from which
// readOwnedString asks stringInPlace for a chunk per CPU; below it the
// string is one chunk, where starting workers would cost more than they
// save.
const parallelCSVBytes = 256 << 10

// stringInPlace reads the string at the cursor, like stringBytes, and
// returns its decoded bytes as a slice of d.data, which it overwrites:
// d.data must be the caller's own. The string is cut into at most chunks
// chunks, each ending just after a \n escape, so each starts at an
// escape boundary; all are decoded at once, each over its own bytes
// (unescapeInPlace), and then closed up in order.
//
// A chunk stops, its bytes from there on as they came, at anything that
// could fail or decode to more bytes than it takes: a control byte, a bad
// escape, invalid UTF-8. stringBytes' decoder then takes the chunk from
// there (settle), so the bytes and the error come out as stringBytes'
// own. A string with no closing quote fails in stringBytes.
func (d *jsonReader) stringInPlace(chunks int) []byte {
	start := d.pos + 1
	end := stringEnd(d.data, start)
	if end < 0 {
		return d.stringBytes()
	}
	s := d.data[start:end]
	cuts := escapeCuts(s, chunks)
	n := len(cuts) - 1
	w, r := make([]int, n), make([]int, n)
	parallel.For(n, func(i int) { w[i], r[i] = unescapeInPlace(s[cuts[i]:cuts[i+1]]) })
	for i := range n {
		if cuts[i]+r[i] < cuts[i+1] {
			return d.settle(start, cuts, w, r)
		}
	}
	size := w[0]
	for i := 1; i < n; i++ {
		size += copy(s[size:], s[cuts[i]:cuts[i]+w[i]])
	}
	d.pos = end + 1
	return s[:size]
}

// settle finishes a stringInPlace whose chunk i stopped at read offset
// r[i] having written w[i] bytes, in a new buffer: the written bytes of
// each chunk, then the rest of any stopped one as unescape decodes it.
// The rest is bytes as they came and starts at an escape boundary, so
// unescape, run there with the chunk's end made a closing quote for the
// time, decodes it as it would within the whole string, and fails on its
// first bad byte with stringBytes' error.
func (d *jsonReader) settle(start int, cuts, w, r []int) []byte {
	var out []byte
	for i := range w {
		lo, hi := start+cuts[i], start+cuts[i+1]
		out = append(out, d.data[lo:lo+w[i]]...)
		if at := lo + r[i]; at < hi {
			saved := d.data[hi]
			d.data[hi] = '"'
			d.pos = at
			rest := d.unescape(at)
			d.data[hi] = saved
			if d.err != nil {
				return nil
			}
			out = append(out, rest...)
		}
	}
	d.pos = start + cuts[len(cuts)-1] + 1
	return out
}

// stringEnd returns the offset of the quote that closes the string whose
// first byte is at start, the first '"' after an even run of
// backslashes, or -1 if there is none.
func stringEnd(data []byte, start int) int {
	for from := start; ; {
		q := bytes.IndexByte(data[from:], '"')
		if q < 0 {
			return -1
		}
		q += from
		if backslashesBefore(data[start:], q-start)%2 == 0 {
			return q
		}
		from = q + 1
	}
}

// backslashesBefore counts the run of backslashes that ends just before
// s[i].
func backslashesBefore(s []byte, i int) int {
	n := 0
	for i-n > 0 && s[i-n-1] == '\\' {
		n++
	}
	return n
}

// escapeCuts cuts the raw string bytes s into at most n chunks and
// returns their offsets, 0 first and len(s) last. Each inner cut lies
// just after a \n escape whose backslash starts an escape (an odd run of
// backslashes ends at it), at or after an even share of s.
func escapeCuts(s []byte, n int) []int {
	cuts := []int{0}
	for i := 1; i < n; i++ {
		from := max(i*len(s)/n, cuts[len(cuts)-1])
		for {
			j := bytes.Index(s[from:], []byte(`\n`))
			if j < 0 {
				return append(cuts, len(s))
			}
			j += from
			if backslashesBefore(s, j+1)%2 == 1 {
				if j+2 < len(s) {
					cuts = append(cuts, j+2)
				}
				break
			}
			from = j + 1
		}
	}
	return append(cuts, len(s))
}

// unescapeInPlace decodes the raw string bytes s, which start at an
// escape boundary, over themselves as unescape would, and returns how
// many bytes it wrote and up to which offset it read. It stops, r short
// of len(s), at the first control byte, quote, bad or cut-off escape or
// invalid UTF-8, leaving s[r:] as it was. Nothing it decodes grows, so
// the write offset never passes the read offset.
func unescapeInPlace(s []byte) (w, r int) {
	for r < len(s) {
		if r+8 <= len(s) {
			// move the plain bytes of the next word: the whole word when
			// it lands on bytes already read, else only them
			x := binary.LittleEndian.Uint64(s[r:])
			p := plainPrefix(x)
			if w+8 <= r {
				binary.LittleEndian.PutUint64(s[w:], x)
			} else if w < r {
				copy(s[w:], s[r:r+p])
			}
			w, r = w+p, r+p
			if p == 8 {
				continue
			}
		}
		switch c := s[r]; {
		case plainByte[c]:
			s[w] = c
			w, r = w+1, r+1
		case c == '\\':
			if r+1 == len(s) {
				return w, r
			}
			switch e := s[r+1]; e {
			case '"', '\\', '/':
				s[w] = e
			case 'b':
				s[w] = '\b'
			case 'f':
				s[w] = '\f'
			case 'n':
				s[w] = '\n'
			case 'r':
				s[w] = '\r'
			case 't':
				s[w] = '\t'
			case 'u':
				u := utf16Of(s[r:])
				if u < 0 {
					return w, r
				}
				r += 6
				if utf16.IsSurrogate(u) {
					if pair := utf16.DecodeRune(u, utf16Of(s[r:])); pair != utf8.RuneError {
						u = pair
						r += 6
					} else {
						u = utf8.RuneError
					}
				}
				w += utf8.EncodeRune(s[w:], u)
				continue
			default:
				return w, r
			}
			w, r = w+1, r+2
		case c < utf8.RuneSelf: // a control byte or a quote
			return w, r
		default:
			u, n := utf8.DecodeRune(s[r:])
			if u == utf8.RuneError && n == 1 {
				return w, r
			}
			w += copy(s[w:], s[r:r+n])
			r += n
		}
	}
	return w, r
}

// plainPrefix returns how many of the bytes of x, a little-endian word
// of string bytes, are plainByte before the first that is not: a control
// byte, '"', '\\' or a byte of a multi-byte UTF-8 sequence. Each test
// sets the high bit of the bytes it matches; a borrow can set false ones,
// but only above a true one, so the lowest set bit is exact.
func plainPrefix(x uint64) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	quote, backslash := x^(ones*'"'), x^(ones*'\\')
	m := (x-ones*0x20)&^x | (quote-ones)&^quote | (backslash-ones)&^backslash | x
	return bits.TrailingZeros64(m&highs) >> 3
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
func (d *jsonReader) utf16At(i int) rune { return utf16Of(d.data[min(i, len(d.data)):]) }

// utf16Of decodes the \uXXXX escape that s starts with, or returns -1.
func utf16Of(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
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
