package dataset

import (
	"math"
	"testing"
)

// FuzzParseNumber holds parseNumber to strconv.ParseFloat plus the finite
// check (parseField): the same error or none, with the same text, and on
// success the same bits.
func FuzzParseNumber(f *testing.F) {
	for _, s := range []string{
		"-0", "+0", "0", "5.", ".5", "-.5e1", "007", "1e5", "1E+05", "1e-22", "9e22",
		"123456789012345", "1234567890123456", "0.1234567890123456", "999999999999999e22",
		"0x1p-2", "+1", "1_0", "Inf", "-Infinity", "NaN", "1e400", "1e-400", "4.9e-324",
		"", ".", "+", "e5", "1e", "1e+", "1.2.3", "0.30000000000000004", "24.0001",
		"1e0005", "00000000000000000001", "2.2250738585072011e-308",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, wantErr := parseField(s)
		got, gotErr := parseNumber(s)
		gotB, gotBErr := parseNumber([]byte(s))
		if (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() {
			t.Fatalf("parseNumber(%q): error %v, want %v", s, gotErr, wantErr)
		}
		if wantErr == nil && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parseNumber(%q) = %v (%#x), want %v (%#x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if math.Float64bits(gotB) != math.Float64bits(got) || (gotBErr == nil) != (gotErr == nil) {
			t.Fatalf("parseNumber(%q) reads bytes as %v, %v and the string as %v, %v", s, gotB, gotBErr, got, gotErr)
		}
	})
}
