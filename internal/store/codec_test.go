package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sqlfe"
	"repro/internal/vfs"
)

func demoSnapshot() *Snapshot {
	return &Snapshot{
		Name:   "Sensors",
		Engine: "PASS",
		Rows:   4321,
		Schema: sqlfe.Schema{
			Table:       "Sensors",
			PredColumns: []string{"time", "room"},
			AggColumn:   "light",
			Dicts: map[string]*dataset.Dict{
				"room": dataset.DictFromValues([]string{"kitchen", "lab", "atrium"}),
			},
		},
		Payload: []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, demoSnapshot()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := demoSnapshot()
	if got.Name != want.Name || got.Engine != want.Engine || got.Rows != want.Rows {
		t.Errorf("header = %q/%q/%d, want %q/%q/%d", got.Name, got.Engine, got.Rows, want.Name, want.Engine, want.Rows)
	}
	if got.Schema.Table != want.Schema.Table || got.Schema.AggColumn != want.Schema.AggColumn {
		t.Errorf("schema = %+v", got.Schema)
	}
	if len(got.Schema.PredColumns) != 2 || got.Schema.PredColumns[0] != "time" || got.Schema.PredColumns[1] != "room" {
		t.Errorf("pred columns = %v", got.Schema.PredColumns)
	}
	// dictionary codes must survive in their original (non-sorted) order
	d := got.Schema.Dicts["room"]
	if d == nil {
		t.Fatal("room dictionary lost")
	}
	if v, err := d.Value(1); err != nil || v != "lab" {
		t.Errorf("code 1 = %q (%v), want lab", v, err)
	}
	if !bytes.Equal(got.Payload, want.Payload) {
		t.Errorf("payload = %x, want %x", got.Payload, want.Payload)
	}
}

func TestSnapshotFileAtomicRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.snap")
	if err := WriteSnapshotFileFS(vfs.OS(), path, demoSnapshot()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temporary file left behind")
	}
	got, err := ReadSnapshotFileFS(vfs.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "Sensors" {
		t.Errorf("Name = %q", got.Name)
	}
}

// TestSnapshotRejectsCorruption flips every byte position in turn; no
// damaged file may load successfully, and every failure must be typed.
func TestSnapshotRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, demoSnapshot()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for i := range raw {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0xff
		snap, err := ReadSnapshot(bytes.NewReader(bad))
		if err == nil {
			// a flip in the payload CRC region could theoretically collide,
			// but with CRC32 over these sizes it must not happen here
			t.Fatalf("byte %d: corrupted snapshot loaded: %+v", i, snap)
		}
	}
}

func TestSnapshotRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, demoSnapshot()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 0; cut < len(raw); cut += 3 {
		_, err := ReadSnapshot(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("snapshot truncated to %d of %d bytes loaded", cut, len(raw))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation at %d: error %v does not wrap ErrCorrupt", cut, err)
		}
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	_, err := ReadSnapshot(bytes.NewReader([]byte("not a snapshot at all")))
	if err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbage: err = %v, want ErrCorrupt", err)
	}
}
