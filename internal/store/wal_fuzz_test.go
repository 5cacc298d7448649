package store

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzScanWAL hands parseWAL arbitrary bytes, seeded with logs written
// the way the store writes them and with their torn, flipped and
// mislabelled variants. A refused input must fail with an error wrapping
// ErrCorrupt, never a panic; an accepted one yields well-formed records
// and an end offset inside the input; either way the parse allocates no
// more than a small multiple of the input.
func FuzzScanWAL(f *testing.F) {
	path := filepath.Join(f.TempDir(), "t.wal")
	w, _, err := OpenWAL(path, false)
	if err != nil {
		f.Fatal(err)
	}
	for _, group := range [][]Record{
		{{Op: OpInsert, Point: []float64{12.5}, Value: 3.25}},
		{{Op: OpInsert, Point: []float64{8.1234, 17, 201}, Value: 2.5}, {Op: OpDelete, Point: []float64{8.1234, 17, 201}, Value: 2.5}},
		{{Op: OpInsert, Point: []float64{math.Inf(-1)}, Value: math.Copysign(0, -1)}, {Op: OpInsert, Point: nil, Value: 1e300}},
	} {
		if err := w.AppendGroup(group); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)-1])                      // torn tail
		f.Add(raw[:headerLen])                       // header only
		f.Add(append(raw[:len(raw):len(raw)], 0xff)) // a stray byte after the last record
		flipped := append([]byte(nil), raw...)
		flipped[len(flipped)-3] ^= 0x10
		f.Add(flipped)
	}
	if err := w.Truncate(7); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(append([]byte{0x50, 0x57, 0x41}, raw[3:]...)) // bad magic
	version := append([]byte(nil), raw...)
	version[headerLen-9]++ // the version varint, just before the generation
	f.Add(version)
	f.Add([]byte{})
	// a record claiming a 1024-coordinate point in a few bytes
	f.Add(append(encodeHeader(0), 4, 1, 0x80, 0x08, 0, 0))
	// many records of a few bytes each
	many := encodeHeader(3)
	for i := 0; i < 500; i++ {
		if many, _, err = appendRecord(many, nil, Record{Op: OpInsert, Value: float64(i % 3)}); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(many)

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, _, end, err := parseWAL(data)
		runtime.ReadMemStats(&after)
		// the slack covers what the fuzzing engine's own goroutines
		// allocate between the two reads
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(data))+1<<20 {
			t.Fatalf("parsing %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("refused with an error that is not ErrCorrupt: %v", err)
			}
			return
		}
		if end < headerLen || end > int64(len(data)) {
			t.Fatalf("end offset %d outside [%d, %d]", end, headerLen, len(data))
		}
		for i, rec := range recs {
			if rec.Op != OpInsert && rec.Op != OpDelete || len(rec.Point) > 1<<10 {
				t.Fatalf("record %d is malformed: %+v", i, rec)
			}
		}
	})
}
