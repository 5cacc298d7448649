// Package binenc provides the small varint-based binary encoding shared
// by the repository's persistence formats (the store snapshot codec, the
// write-ahead log, and the baseline engine serializers): sticky-error
// writers and readers for unsigned/signed varints, float64s, strings and
// byte blobs.
//
// The encoding is deliberately minimal — every multi-byte value is either
// a varint (counts, lengths, quantized deltas) or an IEEE-754 bit pattern
// carried in a varint — so the formats built on top stay compact and
// self-describing enough for corruption checks to produce clear errors.
package binenc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// maxBlob bounds a single length-prefixed string or byte blob (64 MiB for
// strings, 1 GiB for blobs). A corrupt length field then fails fast with a
// clear error instead of attempting an absurd allocation.
const (
	maxStr  = 64 << 20
	maxBlob = 1 << 30
)

// Writer encodes values onto an io.Writer with a sticky error: after the
// first failure every subsequent call is a no-op and Flush reports it.
type Writer struct {
	w   *bufio.Writer
	err error
}

// NewWriter returns a Writer buffering onto w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// U64 writes an unsigned varint.
func (w *Writer) U64(v uint64) {
	if w.err != nil {
		return
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, w.err = w.w.Write(buf[:n])
}

// I64 writes a signed (zig-zag) varint.
func (w *Writer) I64(v int64) {
	if w.err != nil {
		return
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	_, w.err = w.w.Write(buf[:n])
}

// F64 writes a float64 as its IEEE-754 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Str writes a length-prefixed UTF-8 string.
func (w *Writer) Str(s string) {
	w.U64(uint64(len(s)))
	if w.err != nil {
		return
	}
	_, w.err = w.w.WriteString(s)
}

// Bytes writes a length-prefixed byte blob.
func (w *Writer) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(b)
}

// Err returns the first error encountered, if any.
func (w *Writer) Err() error { return w.err }

// Flush drains the buffer and returns the first error encountered.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Reader decodes values from an io.Reader with a sticky error: after the
// first failure every subsequent call returns zero values and Err reports
// the failure.
type Reader struct {
	r   *bufio.Reader
	err error
}

// NewReader returns a Reader buffering from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// U64 reads an unsigned varint.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.err = fmt.Errorf("binenc: read uvarint: %w", err)
	}
	return v
}

// I64 reads a signed (zig-zag) varint.
func (r *Reader) I64() int64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(r.r)
	if err != nil {
		r.err = fmt.Errorf("binenc: read varint: %w", err)
	}
	return v
}

// F64 reads a float64 written by Writer.F64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Str reads a length-prefixed string. Like a blob, it grows as its bytes
// arrive, so a corrupt length field cannot claim maxStr up front.
func (r *Reader) Str() string { return string(r.blob(maxStr, "string")) }

// Bytes reads a length-prefixed byte blob.
func (r *Reader) Bytes() []byte { return r.BytesCap(maxBlob) }

// BytesCap reads a length-prefixed byte blob whose length the format
// bounds more tightly than the global blob limit. The blob grows as its
// bytes arrive, so a corrupt length field costs at most about twice the
// input actually present, never the claimed size.
func (r *Reader) BytesCap(limit uint64) []byte { return r.blob(min(limit, maxBlob), "blob") }

// blob reads a length prefix of at most limit and the bytes it counts;
// what names the value in errors.
func (r *Reader) blob(limit uint64, what string) []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > limit {
		r.err = fmt.Errorf("binenc: %s length %d exceeds limit (corrupt data?)", what, n)
		return nil
	}
	buf, err := io.ReadAll(io.LimitReader(r.r, int64(n)))
	if err == nil && uint64(len(buf)) < n {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		r.err = fmt.Errorf("binenc: read %s body: %w", what, err)
		return nil
	}
	return buf
}

// F64s writes a float64 slice as one blob of little-endian IEEE-754 bit
// patterns, 8 bytes each, so every value round-trips to the bit.
func (w *Writer) F64s(v []float64) {
	w.U64(uint64(8 * len(v)))
	var b [8]byte
	for _, x := range v {
		if w.err != nil {
			return
		}
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		_, w.err = w.w.Write(b[:])
	}
}

// F64s reads a slice written by Writer.F64s.
func (r *Reader) F64s() []float64 {
	b := r.Bytes()
	if r.err != nil {
		return nil
	}
	if len(b)%8 != 0 {
		r.err = fmt.Errorf("binenc: float64 blob of %d bytes (corrupt data?)", len(b))
		return nil
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// WriteInts writes an integer slice as one blob of signed varints.
func WriteInts[T ~int | ~int32](w *Writer, v []T) {
	b := make([]byte, 0, 2*len(v))
	for _, x := range v {
		b = binary.AppendVarint(b, int64(x))
	}
	w.Bytes(b)
}

// ReadInts reads a slice written by WriteInts; a value T cannot hold is
// corrupt data.
func ReadInts[T ~int | ~int32](r *Reader) []T {
	b := r.Bytes()
	if r.err != nil {
		return nil
	}
	var out []T
	for len(b) > 0 {
		x, n := binary.Varint(b)
		if n <= 0 || int64(T(x)) != x {
			r.err = fmt.Errorf("binenc: bad varint in integer blob (corrupt data?)")
			return nil
		}
		out = append(out, T(x))
		b = b[n:]
	}
	return out
}

// Fail records err as the reader's error unless it already has one, so a
// format's own consistency checks share the sticky-error path.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }
