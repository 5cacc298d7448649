package dataset

import (
	"fmt"
	"math"
	"strconv"
)

// pow10 holds the powers of ten a float64 holds exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseNumber reads one CSV field as a finite number, bit for bit as
// strconv.ParseFloat(s, 64) does. A NaN or an infinity is refused: one in
// a table makes every aggregate over it non-finite, and no answer with it
// can be sent as JSON. A plain decimal that exactDecimal covers costs no
// allocation; anything else, every error included, is strconv's.
func parseNumber[T string | []byte](s T) (float64, error) {
	if v, ok := exactDecimal(s); ok {
		return v, nil
	}
	v, err := strconv.ParseFloat(string(s), 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("non-finite value %q", string(s))
	}
	return v, err
}

// exactDecimal reads s when it is [+-]digits[.digits][(e|E)[+-]digits]
// with at least one digit, at most 15 digits before the exponent and a
// decimal exponent, fraction digits included, within ±22. Both the digits
// and the power of ten are then exact float64s, so one IEEE multiplication
// or division rounds the value correctly, as strconv.ParseFloat does
// (Clinger's fast path). It reports false for anything else.
func exactDecimal[T string | []byte](s T) (float64, bool) {
	i, neg := 0, false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg, i = s[0] == '-', 1
	}
	var mant uint64
	digits, frac, dot := 0, 0, false
	for ; i < len(s); i++ {
		switch c := s[i]; {
		case '0' <= c && c <= '9':
			mant = mant*10 + uint64(c-'0')
			digits++
			if dot {
				frac++
			}
			continue
		case c == '.' && !dot:
			dot = true
			continue
		}
		break
	}
	if digits == 0 || digits > 15 {
		return 0, false
	}
	exp := -frac
	if i < len(s) {
		if s[i] != 'e' && s[i] != 'E' {
			return 0, false
		}
		i++
		eneg := false
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			eneg = s[i] == '-'
			i++
		}
		e, start := 0, i
		for ; i < len(s) && i-start < 4 && '0' <= s[i] && s[i] <= '9'; i++ {
			e = e*10 + int(s[i]-'0')
		}
		if i == start || i < len(s) {
			return 0, false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	f := float64(mant)
	if neg {
		f = -f
	}
	switch {
	case exp == 0:
		return f, true
	case 0 < exp && exp < len(pow10):
		return f * pow10[exp], true
	case -len(pow10) < exp && exp < 0:
		return f / pow10[-exp], true
	}
	return 0, false
}
