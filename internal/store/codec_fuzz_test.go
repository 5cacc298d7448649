package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/binenc"
	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/engine/factory"
	"repro/internal/sqlfe"
)

// savedFiles persists a PASS table of the given dimensionality and shard
// count the way a checkpoint does and returns its manifest and its shard
// snapshots, byte for byte.
func savedFiles(tb testing.TB, dims, shards int) (manifest []byte, snaps [][]byte) {
	tb.Helper()
	d := dataset.GenIntelWireless(600, 5)
	if dims > 1 {
		d = dataset.GenNYCTaxi(600, dims, 5)
	}
	e, err := factory.Build(fmt.Sprintf("sharded:pass:%d", shards), d, factory.Spec{Partitions: 8, SampleSize: 40, Seed: 5})
	if err != nil {
		tb.Fatal(err)
	}
	schema := sqlfe.SchemaFromColNames(d.ColNames)
	schema.Table = "t"
	tbl, err := catalog.New().Register("t", e, schema)
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	st, err := Open(dir, testOpts())
	if err != nil {
		tb.Fatal(err)
	}
	defer st.Close()
	if _, err := st.AttachSharded(tbl, nil, shards); err != nil {
		tb.Fatal(err)
	}
	if err := st.SaveSharded(tbl); err != nil {
		tb.Fatal(err)
	}
	read := func(path string) []byte {
		b, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	manifest = read(st.manifestPath("t"))
	for i := 0; i < shards; i++ {
		snaps = append(snaps, read(st.shardSnapPath("t", i)))
	}
	return manifest, snaps
}

// damaged adds to f the file, its first frame's section alone (which the
// fuzz functions also decode under a valid frame), and the ways the file
// is found damaged: torn at its start, middle and end, with one bit
// flipped near each end, behind a bad magic, and with its first frame
// claiming a huge length.
func damaged(f *testing.F, file []byte, headerLen int) {
	f.Add(file)
	r := binenc.NewReader(bytes.NewReader(file[headerLen:]))
	section := r.Bytes()
	if r.Err() != nil {
		f.Fatal(r.Err())
	}
	f.Add(section)
	for _, cut := range []int{1, headerLen, len(file) / 2, len(file) - 1} {
		f.Add(file[:cut])
	}
	for _, at := range []int{headerLen + 2, len(file) - 2} {
		flipped := bytes.Clone(file)
		flipped[at] ^= 0x04
		f.Add(flipped)
	}
	f.Add(append([]byte{0x01}, file[1:]...))
	huge := append(bytes.Clone(file[:headerLen]), 0xff, 0xff, 0xff, 0xff, 0x0f)
	f.Add(append(huge, file[headerLen+1:]...))
}

// checkDecode runs one decoder over data and fails unless it returned
// cleanly or with an error wrapping ErrCorrupt, allocating no more than
// FuzzLoadSynopsis allows: 64 bytes per input byte plus 4 MiB.
func checkDecode(t *testing.T, data []byte, decode func([]byte) error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decode(data)
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(data))+4<<20 {
		t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
	}
	if err != nil && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("refused with an error that is not ErrCorrupt: %v", err)
	}
}

// header is a file's magic and version, as the writers put them.
func header(magic, version uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(nil, magic), version)
}

// reframed is header followed by frames copies of section, each framed
// with its checksum as the writers frame it, so a decoder reaches the
// section's own parsing.
func reframed(header, section []byte, frames int) []byte {
	buf := bytes.NewBuffer(bytes.Clone(header))
	bw := binenc.NewWriter(buf)
	for i := 0; i < frames; i++ {
		frame(bw, section)
	}
	_ = bw.Flush()
	return buf.Bytes()
}

// FuzzReadSnapshot: ReadSnapshot refuses damaged snapshot files with
// ErrCorrupt and never panics or allocates past its input's share; each
// input is also decoded as a meta section under a valid frame, since a
// damaged section almost never keeps its checksum.
func FuzzReadSnapshot(f *testing.F) {
	for _, shape := range [][2]int{{1, 1}, {1, 4}, {3, 1}, {3, 4}} {
		_, snaps := savedFiles(f, shape[0], shape[1])
		for _, s := range snaps {
			damaged(f, s, len(header(snapMagic, snapVersion)))
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		decode := func(b []byte) error {
			_, err := ReadSnapshot(bytes.NewReader(b))
			return err
		}
		checkDecode(t, data, decode)
		checkDecode(t, reframed(header(snapMagic, snapVersion), data, 2), decode)
	})
}

// FuzzReadManifest: ReadManifest refuses damaged manifests with
// ErrCorrupt and never panics or allocates past its input's share, also
// when the damage sits inside a frame whose checksum matches.
func FuzzReadManifest(f *testing.F) {
	for _, shape := range [][2]int{{1, 1}, {1, 4}, {3, 1}, {3, 4}} {
		m, _ := savedFiles(f, shape[0], shape[1])
		damaged(f, m, len(header(manifestMagic, manifestVersion)))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		decode := func(b []byte) error {
			_, err := ReadManifest(bytes.NewReader(b))
			return err
		}
		checkDecode(t, data, decode)
		checkDecode(t, reframed(header(manifestMagic, manifestVersion), data, 1), decode)
	})
}
