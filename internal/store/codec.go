// Package store is the durable table-storage subsystem: versioned,
// CRC-checked snapshot files (engine bytes plus the schema needed to serve
// SQL after a restart), a manifest per table naming its shards, one
// write-ahead log per table for the updates that arrive between
// snapshots, and a Store manager that loads everything back on boot and
// checkpoints in the background.
//
// On-disk layout inside a data directory — one layout for every table, an
// unsharded engine being the one-shard case (N = 1, empty policy):
//
//	<table>.manifest   shard count N, routing policy, cuts, bounds
//	<table>.s<i>.snap  shard i's snapshot: engine name, schema (+dicts), payload
//	<table>.wal        write-ahead log: Insert/Delete tuples since the snapshots
//
// Recovery is snapshots + WAL replay: the snapshots restore the synopses a
// checkpoint captured, and replaying the log re-applies every journaled
// update, so a restarted server answers exactly what the pre-crash catalog
// answered — without rebuilding any synopsis. A directory holding a file
// of an older layout (a bare <table>.snap, or a <table>.s<i>.wal) is
// refused at load, never half-read.
package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/binenc"
	"repro/internal/dataset"
	"repro/internal/sqlfe"
	"repro/internal/vfs"
)

// Snapshot file format:
//
//	magic   u64 varint  ("PSS1")
//	version u64 varint
//	frame(meta)     — name, engine name, rows, schema, dicts
//	frame(payload)  — engine bytes written by engine.Serializable.Save
//
// where frame(x) = [len uvarint][x bytes][crc32(x) uvarint], crc32 being
// IEEE. Both frames are independently checksummed so a truncated or
// bit-flipped file is rejected with a clear error instead of being
// half-loaded.
const (
	snapMagic   = 0x50535331 // "PSS1"
	snapVersion = 1
)

// ErrCorrupt tags snapshot and WAL decoding failures caused by damaged
// files (bad magic, CRC mismatch, truncated frames). Callers can
// errors.Is against it to distinguish corruption from I/O errors.
var ErrCorrupt = errors.New("corrupt file")

// ErrIO tags write-path failures caused by the underlying filesystem —
// failed writes, fsyncs, renames, truncations — as opposed to validation
// or corruption errors. It is the transience signal: an ErrIO failure may
// succeed on retry (and the checkpoint path retries it with bounded
// backoff), while ErrCorrupt and validation failures never will.
var ErrIO = errors.New("storage I/O failure")

// ioErr tags one I/O failure with ErrIO, keeping the cause in the chain.
func ioErr(op string, err error) error {
	return fmt.Errorf("store: %s: %w (%w)", op, err, ErrIO)
}

// Snapshot is one persisted table: everything needed to re-register it in
// a catalog after a restart.
type Snapshot struct {
	// Name is the catalog table name.
	Name string
	// Engine is the engine display name ("PASS", "US", "ST") used to
	// dispatch the matching factory loader.
	Engine string
	// Gen is the checkpoint generation. The table's WAL carries the same
	// number; a WAL with a lower generation predates this snapshot (a
	// crash hit between snapshot publish and log truncation) and its
	// records are already folded in — replaying them would double-apply.
	Gen uint64
	// Rows is the base-table cardinality at snapshot time (informational;
	// engines that track their own size are authoritative after load).
	Rows int
	// Schema is the SQL-resolution schema, dictionaries included.
	Schema sqlfe.Schema
	// Payload is the engine's own serialized bytes.
	Payload []byte
}

// WriteSnapshot encodes a snapshot onto w.
func WriteSnapshot(w io.Writer, snap *Snapshot) error {
	bw := binenc.NewWriter(w)
	bw.U64(snapMagic)
	bw.U64(snapVersion)

	meta := encodeMeta(snap)
	frame(bw, meta)
	frame(bw, snap.Payload)
	return bw.Flush()
}

// frame writes [len][bytes][crc32].
func frame(bw *binenc.Writer, payload []byte) {
	bw.Bytes(payload)
	bw.U64(uint64(crc32.ChecksumIEEE(payload)))
}

// encodeMeta serializes the snapshot header section.
func encodeMeta(snap *Snapshot) []byte {
	var buf bytes.Buffer
	mw := binenc.NewWriter(&buf)
	mw.Str(snap.Name)
	mw.Str(snap.Engine)
	mw.U64(snap.Gen)
	mw.U64(uint64(snap.Rows))
	mw.Str(snap.Schema.Table)
	mw.U64(uint64(len(snap.Schema.PredColumns)))
	for _, c := range snap.Schema.PredColumns {
		mw.Str(c)
	}
	mw.Str(snap.Schema.AggColumn)
	// dictionaries, sorted by column for deterministic bytes
	cols := make([]string, 0, len(snap.Schema.Dicts))
	for c := range snap.Schema.Dicts {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	mw.U64(uint64(len(cols)))
	for _, c := range cols {
		mw.Str(c)
		vals := snap.Schema.Dicts[c].Values()
		mw.U64(uint64(len(vals)))
		for _, v := range vals {
			mw.Str(v)
		}
	}
	_ = mw.Flush()
	return buf.Bytes()
}

// ReadSnapshot decodes a snapshot written by WriteSnapshot, verifying both
// frame checksums.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	br := binenc.NewReader(r)
	if m := br.U64(); br.Err() != nil || m != snapMagic {
		return nil, fmt.Errorf("store: not a snapshot file (bad magic): %w", ErrCorrupt)
	}
	if v := br.U64(); v != snapVersion {
		if br.Err() != nil {
			return nil, fmt.Errorf("store: truncated snapshot header: %w", ErrCorrupt)
		}
		return nil, fmt.Errorf("store: unsupported snapshot version %d: %w", v, ErrCorrupt)
	}
	meta, err := readFrame(br, "meta")
	if err != nil {
		return nil, err
	}
	payload, err := readFrame(br, "engine payload")
	if err != nil {
		return nil, err
	}
	snap, err := decodeMeta(meta)
	if err != nil {
		return nil, err
	}
	snap.Payload = payload
	return snap, nil
}

// readFrame reads and verifies one CRC-framed section.
func readFrame(br *binenc.Reader, what string) ([]byte, error) {
	payload := br.Bytes()
	crc := br.U64()
	if br.Err() != nil {
		return nil, fmt.Errorf("store: truncated snapshot (%s frame): %w", what, ErrCorrupt)
	}
	if got := uint64(crc32.ChecksumIEEE(payload)); got != crc {
		return nil, fmt.Errorf("store: snapshot %s frame CRC mismatch (file damaged): %w", what, ErrCorrupt)
	}
	return payload, nil
}

// decodeMeta parses the snapshot header section.
func decodeMeta(meta []byte) (*Snapshot, error) {
	mr := binenc.NewReader(bytes.NewReader(meta))
	snap := &Snapshot{}
	snap.Name = mr.Str()
	snap.Engine = mr.Str()
	snap.Gen = mr.U64()
	snap.Rows = int(mr.U64())
	snap.Schema.Table = mr.Str()
	nPred := int(mr.U64())
	if mr.Err() != nil {
		return nil, fmt.Errorf("store: corrupt snapshot meta: %w", ErrCorrupt)
	}
	// every column name takes at least its length byte, so a count past
	// the section's bytes is corrupt before anything is sized by it
	if nPred < 0 || nPred > min(len(meta), 1<<16) {
		return nil, fmt.Errorf("store: corrupt snapshot meta (%d predicate columns): %w", nPred, ErrCorrupt)
	}
	snap.Schema.PredColumns = make([]string, nPred)
	for i := range snap.Schema.PredColumns {
		snap.Schema.PredColumns[i] = mr.Str()
	}
	snap.Schema.AggColumn = mr.Str()
	nDicts := int(mr.U64())
	if mr.Err() != nil {
		return nil, fmt.Errorf("store: corrupt snapshot meta: %w", ErrCorrupt)
	}
	if nDicts < 0 || nDicts > len(meta) {
		return nil, fmt.Errorf("store: corrupt snapshot meta (%d dictionaries): %w", nDicts, ErrCorrupt)
	}
	if nDicts > 0 {
		snap.Schema.Dicts = make(map[string]*dataset.Dict, nDicts)
		for i := 0; i < nDicts; i++ {
			col := mr.Str()
			nVals := int(mr.U64())
			if mr.Err() != nil || nVals < 0 || nVals > min(len(meta), 1<<24) {
				return nil, fmt.Errorf("store: corrupt snapshot dictionary: %w", ErrCorrupt)
			}
			vals := make([]string, nVals)
			for j := range vals {
				vals[j] = mr.Str()
			}
			snap.Schema.Dicts[col] = dataset.DictFromValues(vals)
		}
	}
	if mr.Err() != nil {
		return nil, fmt.Errorf("store: corrupt snapshot meta: %w", ErrCorrupt)
	}
	return snap, nil
}

// WriteSnapshotFileFS writes a snapshot atomically: the bytes land in a
// temporary file that is fsynced and renamed over the target, so a crash
// mid-checkpoint leaves the previous snapshot intact. Write-path failures
// are tagged ErrIO (transient, retryable).
func WriteSnapshotFileFS(fsys vfs.FS, path string, snap *Snapshot) error {
	tmp := path + ".tmp"
	f, err := vfs.Create(fsys, tmp)
	if err != nil {
		return ioErr("create snapshot", err)
	}
	if err := WriteSnapshot(f, snap); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return ioErr("write snapshot", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return ioErr("sync snapshot", err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return ioErr("close snapshot", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return ioErr("publish snapshot", err)
	}
	// fsync the directory so the rename itself survives a machine crash:
	// without it the WAL could be durably truncated against a snapshot
	// whose directory entry was lost, stranding the folded updates
	return syncDir(fsys, filepath.Dir(path))
}

// syncDir fsyncs a directory, making recent renames and unlinks durable.
func syncDir(fsys vfs.FS, dir string) error {
	d, err := fsys.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return ioErr("open dir for sync", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return ioErr("sync dir", err)
	}
	return nil
}

// ReadSnapshotFileFS reads and verifies a snapshot file.
func ReadSnapshotFileFS(fsys vfs.FS, path string) (*Snapshot, error) {
	f, err := vfs.Open(fsys, path)
	if err != nil {
		return nil, fmt.Errorf("store: open snapshot: %w", err)
	}
	defer f.Close()
	snap, err := ReadSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("store: snapshot %s: %w", path, err)
	}
	return snap, nil
}
