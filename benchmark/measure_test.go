package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {99.9, 100}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50},    // nothing has ten beyond it: fall back to the median
		{20, 50},   // 10 beyond p50
		{99, 50},   // p90 leaves 9
		{100, 90},  // p90 leaves exactly 10
		{999, 90},  // p99 leaves 9
		{1000, 99}, // p99 leaves exactly 10
		{10000, 99.9},
		{64908, 99.9}, // p99.99 leaves 6
		{100000, 99.99},
		{1000000, 99.999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
}

const promBefore = `# HELP pass_http_requests_total HTTP requests served
# TYPE pass_http_requests_total counter
pass_http_requests_total 10
pass_http_request_duration_seconds_bucket{le="0.0001"} 4
pass_http_request_duration_seconds_bucket{le="+Inf"} 10
pass_http_request_duration_seconds_sum 0.5
pass_http_request_duration_seconds_count 10
pass_audit_total{table="a b",agg="SUM"} 3 1700000000000
go_gc_pause_p99_seconds 0.000458752
`

const promAfter = `pass_http_requests_total 110
pass_http_request_duration_seconds_bucket{le="0.0001"} 54
pass_http_request_duration_seconds_bucket{le="+Inf"} 110
pass_http_request_duration_seconds_sum 0.7
pass_http_request_duration_seconds_count 110
pass_audit_total{table="a b",agg="SUM"} 5 1700000001000
go_gc_pause_p99_seconds 1.5e-3
`

func TestPromParseAndDelta(t *testing.T) {
	before, err := parseProm([]byte(promBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm([]byte(promAfter))
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 7 {
		t.Errorf("parsed %d series, want 7: %v", len(before), before)
	}
	d := promDelta{before, after}
	if got := d.of("pass_http_requests_total"); got != 100 {
		t.Errorf("requests delta = %v, want 100", got)
	}
	if got := d.of(`pass_http_request_duration_seconds_bucket{le="0.0001"}`); got != 50 {
		t.Errorf("labelled bucket delta = %v, want 50", got)
	}
	if got := d.of(`pass_audit_total{table="a b",agg="SUM"}`); got != 2 {
		t.Errorf("series with a space in a label and a timestamp: delta = %v, want 2", got)
	}
	if got, want := d.mean("pass_http_request_duration_seconds"), 0.2/100; math.Abs(got-want) > 1e-12 {
		t.Errorf("histogram mean over the interval = %v, want %v", got, want)
	}
	if got := d.mean("pass_wal_fsync_seconds"); got != 0 {
		t.Errorf("mean of a histogram that saw nothing = %v, want 0", got)
	}
	if got := after["go_gc_pause_p99_seconds"]; got != 1.5e-3 {
		t.Errorf("exponent value = %v", got)
	}
	if _, err := parseProm([]byte("pass_tables\n")); err == nil {
		t.Error("a line without a value parsed")
	}
	if _, err := parseProm([]byte("pass_tables many\n")); err == nil {
		t.Error("a non-numeric value parsed")
	}
}

func TestProcStatTickConversion(t *testing.T) {
	// field 2 is a command name with spaces and parentheses; utime=150 and
	// stime=50 ticks are fields 14 and 15
	stat := "4242 (pass d) (x)) S 1 4242 4242 0 -1 4194560 1000 0 0 0 150 50 7 8 20 0 9 0 12345 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	ms, err := parseProcStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 200.0 * 1000 / userHZ; ms != want {
		t.Errorf("cpu = %v ms, want %v (200 ticks at %d Hz)", ms, want, userHZ)
	}
	if _, err := parseProcStatCPU("1 (x) S 1 2"); err == nil {
		t.Error("a truncated stat line parsed")
	}
}
