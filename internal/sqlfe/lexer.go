// Package sqlfe is a small SQL front-end for the PASS engine: it parses
// the subpopulation-aggregate query class of the paper —
//
//	SELECT SUM|COUNT|AVG|MIN|MAX ( column | * )
//	FROM   table
//	WHERE  col >= x AND col <= y AND col BETWEEN a AND b AND col = v ...
//	[GROUP BY col]
//
// — and compiles it against a table schema into a rectangular predicate
// plan the synopsis can execute. Conjunctions only: PASS's query class is
// rectangular (Section 3.1), so OR is rejected with a clear error.
//
// The sketch-aggregate class answers from mergeable sketches over the
// whole aggregate column, so it takes no WHERE or GROUP BY:
//
//	SELECT QUANTILE ( column , q ) | COUNT ( DISTINCT column ) | TOPK ( column , k )
//	FROM   table
package sqlfe

import (
	"fmt"
	"unicode"
)

// tokKind classifies lexer tokens.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // ( ) , * = < > <= >= <> !=
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenises the input; errors carry byte offsets for diagnostics.
func lex(src string) ([]token, error) { return lexAppend(nil, src) }

// lexAppend tokenises src, appending the tokens to dst so a caller can
// reuse one slice across statements. Token texts are sub-slices of src,
// except string literals holding a doubled-quote escape.
func lexAppend(dst []token, src string) ([]token, error) {
	l := lexer{src: src, toks: dst}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case isIdentStart(c):
			l.ident()
		case unicode.IsDigit(rune(c)) || c == '.' ||
			((c == '-' || c == '+') && l.pos+1 < len(l.src) && startsNumber(l.src[l.pos+1])):
			if err := l.number(); err != nil {
				return nil, err
			}
		case c == '\'':
			if err := l.str(); err != nil {
				return nil, err
			}
		case c == '(' || c == ')' || c == ',' || c == '*' || c == '=':
			l.emit(tokSymbol, l.pos, l.pos+1)
		case c == '<' || c == '>' || c == '!':
			end := l.pos + 1
			if end < len(l.src) && (l.src[end] == '=' || (c == '<' && l.src[end] == '>')) {
				end++
			}
			l.emit(tokSymbol, l.pos, end)
		default:
			return nil, fmt.Errorf("sqlfe: unexpected character %q at offset %d", c, l.pos)
		}
	}
	l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
	return l.toks, nil
}

func startsNumber(c byte) bool { return c >= '0' && c <= '9' || c == '.' }

// isIdentStart and isIdentRune classify one source byte, read as the
// Latin-1 rune of the same value, from a table the unicode package fills.
// The lookup inlines where unicode.IsLetter/IsDigit do not: on a 3-D
// six-literal statement it cuts BenchmarkNormalize by about a quarter,
// ~2.1 to ~1.6 µs (2-vCPU Xeon, medians of six interleaved runs each,
// the table faster in all six pairs).
func isIdentStart(c byte) bool { return identClass[c] == identStart }

func isIdentRune(c byte) bool { return identClass[c] != 0 }

const (
	identStart = 1 + iota // a letter or '_'
	identDigit
)

var identClass = func() (t [256]uint8) {
	for c := range t {
		switch r := rune(c); {
		case unicode.IsLetter(r) || r == '_':
			t[c] = identStart
		case unicode.IsDigit(r):
			t[c] = identDigit
		}
	}
	return t
}()

// emit appends the token src[start:end] and moves past it.
func (l *lexer) emit(kind tokKind, start, end int) {
	l.toks = append(l.toks, token{kind: kind, text: l.src[start:end], pos: start})
	l.pos = end
}

func (l *lexer) ident() {
	start := l.pos
	end := start
	for end < len(l.src) && isIdentRune(l.src[end]) {
		end++
	}
	l.emit(tokIdent, start, end)
}

func (l *lexer) number() error {
	start := l.pos
	if l.src[l.pos] == '-' || l.src[l.pos] == '+' {
		l.pos++
	}
	digits, dot, exp := false, false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c >= '0' && c <= '9':
			digits = true
			l.pos++
		case c == '.' && !dot && !exp:
			dot = true
			l.pos++
		case (c == 'e' || c == 'E') && digits && !exp:
			exp = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '-' || l.src[l.pos] == '+') {
				l.pos++
			}
		default:
			goto done
		}
	}
done:
	if !digits {
		return fmt.Errorf("sqlfe: malformed number at offset %d", start)
	}
	l.emit(tokNumber, start, l.pos)
	return nil
}

// str lexes a quoted literal. Without a doubled-quote escape its text is a
// sub-slice of the source; with one, the unescaped text is built once.
func (l *lexer) str() error {
	start := l.pos
	l.pos++ // opening quote
	from := l.pos
	var esc []byte // the unescaped prefix, once a '' escape was seen
	for l.pos < len(l.src) {
		if l.src[l.pos] != '\'' {
			l.pos++
			continue
		}
		// '' escapes a quote
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
			esc = append(esc, l.src[from:l.pos+1]...)
			l.pos += 2
			from = l.pos
			continue
		}
		text := l.src[from:l.pos]
		if esc != nil {
			text = string(append(esc, text...))
		}
		l.pos++
		l.toks = append(l.toks, token{kind: tokString, text: text, pos: start})
		return nil
	}
	return fmt.Errorf("sqlfe: unterminated string at offset %d", start)
}
