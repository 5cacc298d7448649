package store

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"

	"repro/internal/binenc"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/vfs"
)

// Shard manifest file format:
//
//	magic   u64 varint  ("PSM1")
//	version u64 varint
//	frame(meta) — table name, inner engine, policy, dim, cuts, per-shard
//	              generations and bounding rectangles, row count
//
// Every table persists as one manifest, one snapshot per shard
// (<table>.s<i>.snap) and one WAL (<table>.wal). The manifest carries the
// routing topology — everything shard.New needs to rebuild the
// scatter-gather router at warm start; an unsharded table is the
// one-shard case with an empty Policy. Each shard snapshot pairs with the
// table's log by generation (see loadTable).
const (
	manifestMagic   = 0x50534d31 // "PSM1"
	manifestVersion = 1
)

// ShardManifest describes one persisted sharded table.
type ShardManifest struct {
	// Name is the catalog table name.
	Name string
	// Engine is the inner engines' display name ("PASS", "US", "ST") used
	// to dispatch the factory loader for every shard snapshot.
	Engine string
	// Policy, Dim, Cuts, Bounds mirror engine.ShardInfo. An empty Policy
	// marks an unsharded table: its one shard IS the engine.
	Policy string
	Dim    int
	Cuts   []float64
	Bounds []dataset.Rect
	// Shards is the shard count.
	Shards int
	// Rows is the whole-table cardinality at manifest time (informational).
	Rows int
	// Gens records each shard's checkpoint generation at manifest time
	// (informational: the snapshots' own generations are authoritative
	// for recovery).
	Gens []uint64
}

// Info converts the manifest's routing topology to an engine.ShardInfo.
func (m *ShardManifest) Info() engine.ShardInfo {
	return engine.ShardInfo{
		Policy: m.Policy,
		Dim:    m.Dim,
		Cuts:   m.Cuts,
		Bounds: m.Bounds,
		Shards: m.Shards,
	}
}

// WriteManifest encodes a shard manifest onto w.
func WriteManifest(w io.Writer, m *ShardManifest) error {
	if m.Shards <= 0 || len(m.Bounds) != m.Shards || len(m.Gens) != m.Shards {
		return fmt.Errorf("store: malformed manifest: %d shards, %d bounds, %d gens",
			m.Shards, len(m.Bounds), len(m.Gens))
	}
	var buf bytes.Buffer
	mw := binenc.NewWriter(&buf)
	mw.Str(m.Name)
	mw.Str(m.Engine)
	mw.Str(m.Policy)
	mw.U64(uint64(m.Dim))
	mw.U64(uint64(m.Shards))
	mw.U64(uint64(m.Rows))
	mw.U64(uint64(len(m.Cuts)))
	for _, c := range m.Cuts {
		mw.F64(c)
	}
	for _, g := range m.Gens {
		mw.U64(g)
	}
	for _, b := range m.Bounds {
		mw.U64(uint64(b.Dims()))
		for c := 0; c < b.Dims(); c++ {
			mw.F64(b.Lo[c])
			mw.F64(b.Hi[c])
		}
	}
	if err := mw.Flush(); err != nil {
		return err
	}
	bw := binenc.NewWriter(w)
	bw.U64(manifestMagic)
	bw.U64(manifestVersion)
	frame(bw, buf.Bytes())
	return bw.Flush()
}

// ReadManifest decodes a manifest written by WriteManifest, verifying the
// frame checksum.
func ReadManifest(r io.Reader) (*ShardManifest, error) {
	br := binenc.NewReader(r)
	if magic := br.U64(); br.Err() != nil || magic != manifestMagic {
		return nil, fmt.Errorf("store: not a shard manifest (bad magic): %w", ErrCorrupt)
	}
	if v := br.U64(); v != manifestVersion {
		if br.Err() != nil {
			return nil, fmt.Errorf("store: truncated manifest header: %w", ErrCorrupt)
		}
		return nil, fmt.Errorf("store: unsupported manifest version %d: %w", v, ErrCorrupt)
	}
	meta, err := readFrame(br, "manifest")
	if err != nil {
		return nil, err
	}
	mr := binenc.NewReader(bytes.NewReader(meta))
	m := &ShardManifest{}
	m.Name = mr.Str()
	m.Engine = mr.Str()
	m.Policy = mr.Str()
	m.Dim = int(mr.U64())
	m.Shards = int(mr.U64())
	m.Rows = int(mr.U64())
	nCuts := int(mr.U64())
	if mr.Err() != nil {
		return nil, fmt.Errorf("store: corrupt manifest: %w", ErrCorrupt)
	}
	// every shard's generation and bounds, and every cut, take at least a
	// byte each, so counts past the section's bytes are corrupt before
	// anything is sized by them
	if m.Shards <= 0 || m.Shards > min(len(meta), 1<<16) || nCuts < 0 || nCuts >= m.Shards {
		return nil, fmt.Errorf("store: corrupt manifest (%d shards, %d cuts): %w", m.Shards, nCuts, ErrCorrupt)
	}
	if m.Dim < 0 || m.Dim > 1<<12 {
		return nil, fmt.Errorf("store: corrupt manifest (partition dimension %d): %w", m.Dim, ErrCorrupt)
	}
	m.Cuts = make([]float64, nCuts)
	for i := range m.Cuts {
		m.Cuts[i] = mr.F64()
	}
	m.Gens = make([]uint64, m.Shards)
	for i := range m.Gens {
		m.Gens[i] = mr.U64()
	}
	m.Bounds = make([]dataset.Rect, m.Shards)
	for i := range m.Bounds {
		dims := int(mr.U64())
		if mr.Err() != nil || dims < 0 || dims > min(len(meta), 1<<12) {
			return nil, fmt.Errorf("store: corrupt manifest bounds: %w", ErrCorrupt)
		}
		lo := make([]float64, dims)
		hi := make([]float64, dims)
		for c := 0; c < dims; c++ {
			lo[c] = mr.F64()
			hi[c] = mr.F64()
		}
		m.Bounds[i] = dataset.Rect{Lo: lo, Hi: hi}
	}
	if mr.Err() != nil {
		return nil, fmt.Errorf("store: corrupt manifest: %w", ErrCorrupt)
	}
	return m, nil
}

// WriteManifestFileFS writes a manifest atomically (temp file + fsync +
// rename), like snapshots. Write-path failures are tagged ErrIO.
func WriteManifestFileFS(fsys vfs.FS, path string, m *ShardManifest) error {
	tmp := path + ".tmp"
	f, err := vfs.Create(fsys, tmp)
	if err != nil {
		return ioErr("create manifest", err)
	}
	if err := WriteManifest(f, m); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return ioErr("write manifest", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return ioErr("sync manifest", err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return ioErr("close manifest", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return ioErr("publish manifest", err)
	}
	return syncDir(fsys, filepath.Dir(path))
}

// ReadManifestFileFS reads and verifies a manifest file.
func ReadManifestFileFS(fsys vfs.FS, path string) (*ShardManifest, error) {
	f, err := vfs.Open(fsys, path)
	if err != nil {
		return nil, fmt.Errorf("store: open manifest: %w", err)
	}
	defer f.Close()
	m, err := ReadManifest(f)
	if err != nil {
		return nil, fmt.Errorf("store: manifest %s: %w", path, err)
	}
	return m, nil
}
