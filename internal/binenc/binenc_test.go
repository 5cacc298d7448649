package binenc

import (
	"bytes"
	"math"
	"runtime"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(0)
	w.U64(1<<63 + 17)
	w.I64(-12345)
	w.F64(math.Pi)
	w.F64(math.Inf(-1))
	w.Str("hello, wörld")
	w.Str("")
	w.Bytes([]byte{1, 2, 3})
	w.Bytes(nil)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	if got := r.U64(); got != 0 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.U64(); got != 1<<63+17 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -12345 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := r.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 = %v, want -Inf", got)
	}
	if got := r.Str(); got != "hello, wörld" {
		t.Errorf("Str = %q", got)
	}
	if got := r.Str(); got != "" {
		t.Errorf("Str = %q", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := r.Bytes(); len(got) != 0 {
		t.Errorf("Bytes = %v", got)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderStickyErrorOnTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Str("some payload")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()[:3]))
	_ = r.Str()
	if r.Err() == nil {
		t.Fatal("truncated string read succeeded")
	}
	// sticky: further reads keep returning zero values, not panicking
	if got := r.U64(); got != 0 {
		t.Errorf("post-error U64 = %d", got)
	}
}

func TestReaderRejectsAbsurdLengths(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(1 << 62) // a "length" no real string has
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	_ = r.Str()
	if r.Err() == nil {
		t.Fatal("absurd string length accepted")
	}
}

// TestStrClaimAllocatesLittle: a 16-byte input whose string claims 64 MiB
// fails, and the read allocates in proportion to the bytes present, not to
// the claim.
func TestStrClaimAllocatesLittle(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(maxStr)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	in := append(buf.Bytes(), make([]byte, 16-buf.Len())...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewReader(bytes.NewReader(in))
	s := r.Str()
	runtime.ReadMemStats(&after)
	if r.Err() == nil || s != "" {
		t.Fatalf("Str of a 64 MiB claim over 16 bytes = %q, %v; want an error", s, r.Err())
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("Str allocated %d bytes for a 16-byte input", alloc)
	}
}
