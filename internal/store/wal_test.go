package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func tmpWAL(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "t.wal")
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	path := tmpWAL(t)
	w, recs, err := OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh WAL has %d records", len(recs))
	}
	want := []Record{
		{Op: OpInsert, Point: []float64{1, 2}, Value: 3.5},
		{Op: OpDelete, Point: []float64{4, 5}, Value: -1},
		{Op: OpInsert, Point: []float64{6}, Value: 0},
	}
	for _, rec := range want {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if w.Records() != len(want) {
		t.Errorf("Records() = %d, want %d", w.Records(), len(want))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, got, err := OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Op != want[i].Op || got[i].Value != want[i].Value || len(got[i].Point) != len(want[i].Point) {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
		for j := range want[i].Point {
			if got[i].Point[j] != want[i].Point[j] {
				t.Errorf("record %d point[%d] = %v, want %v", i, j, got[i].Point[j], want[i].Point[j])
			}
		}
	}
	// appends continue after a reopen
	if err := w2.Append(Record{Op: OpInsert, Point: []float64{9}, Value: 9}); err != nil {
		t.Fatal(err)
	}
	if w2.Records() != len(want)+1 {
		t.Errorf("Records() after reopen+append = %d", w2.Records())
	}
}

func TestWALTruncateAndRollback(t *testing.T) {
	path := tmpWAL(t)
	w, _, err := OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 5; i++ {
		if err := w.Append(Record{Op: OpInsert, Point: []float64{float64(i)}, Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// rollback undoes exactly the last append
	if err := w.Rollback(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 4 {
		t.Errorf("Records() after rollback = %d, want 4", w.Records())
	}
	// a second rollback without an intervening append must refuse
	if err := w.Rollback(); err == nil {
		t.Error("double rollback accepted")
	}
	if err := w.Truncate(7); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 0 {
		t.Errorf("Records() after truncate = %d", w.Records())
	}
	if w.Gen() != 7 {
		t.Errorf("Gen() after truncate = %d, want 7", w.Gen())
	}
	w.Close()
	w2, recs, err := OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(recs) != 0 {
		t.Errorf("truncated WAL replayed %d records", len(recs))
	}
	if w2.Gen() != 7 {
		t.Errorf("generation lost across reopen: %d, want 7", w2.Gen())
	}
}

// TestWALRejectsTornTail simulates a crash mid-append: the file ends with
// a partial record, and the open must fail with a clear ErrCorrupt error
// rather than silently dropping or misparsing state.
func TestWALRejectsTornTail(t *testing.T) {
	path := tmpWAL(t)
	w, _, err := OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(Record{Op: OpInsert, Point: []float64{float64(i)}, Value: 2}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// every cut lands inside the final record (records are ~25 bytes)
	for cut := len(raw) - 1; cut >= len(raw)-12 && cut > int(headerLen); cut -= 3 {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := OpenWAL(path, false)
		if err == nil {
			t.Fatalf("OpenWAL accepted a WAL truncated to %d of %d bytes", cut, len(raw))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation at %d: error %v does not wrap ErrCorrupt", cut, err)
		}
	}
}

// TestWALRejectsBitFlip damages a record body and checks the CRC catches it.
func TestWALRejectsBitFlip(t *testing.T) {
	path := tmpWAL(t)
	w, _, err := OpenWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(Record{Op: OpInsert, Point: []float64{float64(i) + 0.25}, Value: 2}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// flip a bit in the middle of the second record's payload
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenWAL(path, false)
	if err == nil {
		t.Fatal("OpenWAL accepted a bit-flipped record")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("error %v does not wrap ErrCorrupt", err)
	}
}

func TestWALRejectsWrongMagic(t *testing.T) {
	path := tmpWAL(t)
	if err := os.WriteFile(path, []byte("definitely not a WAL file"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenWAL(path, false)
	if err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenWAL on garbage: err = %v, want ErrCorrupt", err)
	}
}

// TestWALRejectsUnknownOp: a record whose op is neither insert nor
// delete is corrupt, even when its low byte would read as one (257 is
// 1 in a byte) and its checksum holds.
func TestWALRejectsUnknownOp(t *testing.T) {
	for _, op := range []uint64{0, 3, 257, 258} {
		payload := binary.AppendUvarint(nil, op)
		payload = binary.AppendUvarint(payload, 0)
		payload = binary.AppendUvarint(payload, math.Float64bits(1.5))
		raw := binary.AppendUvarint(encodeHeader(0), uint64(len(payload)))
		raw = append(raw, payload...)
		raw = binary.AppendUvarint(raw, uint64(crc32.ChecksumIEEE(payload)))
		if recs, _, _, err := parseWAL(raw); !errors.Is(err, ErrCorrupt) {
			t.Errorf("op %d: records %+v, error %v; want ErrCorrupt", op, recs, err)
		}
	}
}
