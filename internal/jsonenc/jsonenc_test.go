package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// TestMatchesEncodingJSON compares both appenders with encoding/json on
// its escaping and float-format boundaries.
func TestMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{"", "plain", "ctl \x00\x01\x1f\b\f\n\r\t\x7f", "bad \xff\xfe\xc3 utf-8", "sep \u2028\u2029",
		`html <>& "quotes" \ /`, "\u00e9\U0001F600\ufffd"} {
		for _, html := range []bool{true, false} {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(html)
			if err := enc.Encode(s); err != nil {
				t.Fatal(err)
			}
			if got, want := string(AppendString(nil, s, html)), string(bytes.TrimSuffix(buf.Bytes(), []byte("\n"))); got != want {
				t.Errorf("AppendString(%q, %v) = %s, want %s", s, html, got, want)
			}
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 9.999999999999999e-7, 0.1, 123456.789,
		1 << 53, 1e20, 999999999999999900000, 1e21, -1e21, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		want, wantErr := json.Marshal(f)
		got, err := AppendFloat(nil, f)
		if string(got) != string(want) || (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Errorf("AppendFloat(%v) = %s, %v; want %s, %v", f, got, err, want, wantErr)
		}
	}
}
