package obs

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// FuzzHTTPRequestLine holds EmitHTTPRequest to the line Emit writes for
// the same fields through encoding/json, byte for byte; a duration Emit
// cannot marshal drops the line on both.
func FuzzHTTPRequestLine(f *testing.F) {
	for _, path := range []string{"/query", "/tables/trips/rows", "/ctl\x00\x1f\b\f\n\r\t", "/bad\xff\xfe\xc3",
		"/sep\u2028\u2029", `/html<>&"quotes"\`, "/\u00e9\U0001F600"} {
		for _, ms := range []float64{0, 0.001, 1e-7, 312.5, 1e21, math.NaN(), math.Inf(1)} {
			f.Add("POST", path, 200, ms, int64(len(path)), int64(1700000000123456789))
		}
	}
	f.Fuzz(func(t *testing.T, method, path string, status int, ms float64, n, unixNano int64) {
		at := time.Unix(0, unixNano)
		var got, want bytes.Buffer
		typed, generic := &JSONLog{w: &got, now: func() time.Time { return at }}, &JSONLog{w: &want, now: func() time.Time { return at }}
		typed.EmitHTTPRequest(method, path, status, ms, n)
		generic.Emit("http_request", map[string]any{
			"method": method, "path": path, "status": status, "duration_ms": ms, "bytes": n,
		})
		if got.String() != want.String() {
			t.Fatalf("EmitHTTPRequest wrote\n%q\nEmit writes\n%q", got.String(), want.String())
		}
	})
}
