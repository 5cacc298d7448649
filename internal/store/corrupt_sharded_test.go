package store

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"repro/internal/engine/factory"
	"repro/internal/vfs"
)

// setupShardedDir persists a 3-shard table with journaled updates into a
// fresh directory and closes the store, returning the directory and a
// throwaway store handle for path computation only.
func setupShardedDir(t *testing.T) (string, *Store) {
	t.Helper()
	dir := t.TempDir()
	tbl, live, _ := buildShardedTable(t, "trips", 3000, 3, 13)
	st, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	j, err := st.AttachSharded(tbl, live, 3)
	if err != nil {
		t.Fatal(err)
	}
	tbl.AttachJournal(j)
	if err := st.SaveSharded(tbl); err != nil {
		t.Fatal(err)
	}
	info := live.ShardInfo()
	for i := 0; i < info.Shards; i++ {
		if err := tbl.Insert([]float64{info.Bounds[i].Lo[0]}, float64(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, st
}

// expectLoadCorrupt asserts that a warm start of dir fails with a typed
// ErrCorrupt — never a silent partial load, never an untyped error.
func expectLoadCorrupt(t *testing.T, dir, context string) {
	t.Helper()
	st, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, err = st.LoadAll()
	if err == nil {
		t.Fatalf("%s: LoadAll should fail", context)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%s: LoadAll error %v does not wrap ErrCorrupt", context, err)
	}
}

// expectShardLoadable asserts one per-shard snapshot still decodes into a
// working engine — corruption elsewhere must not damage siblings.
func expectShardLoadable(t *testing.T, st *Store, shard int) {
	t.Helper()
	snap, err := ReadSnapshotFileFS(vfs.OS(), st.shardSnapPath("trips", shard))
	if err != nil {
		t.Fatalf("sibling shard %d snapshot unreadable: %v", shard, err)
	}
	load, ok := factory.Loader(snap.Engine)
	if !ok {
		t.Fatalf("no loader for %q", snap.Engine)
	}
	if _, err := load(bytes.NewReader(snap.Payload)); err != nil {
		t.Fatalf("sibling shard %d engine does not decode: %v", shard, err)
	}
}

func TestShardedTruncatedManifest(t *testing.T) {
	dir, st := setupShardedDir(t)
	path := st.manifestPath("trips")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	expectLoadCorrupt(t, dir, "truncated manifest")
	// the manifest is gone but every shard's data survives intact
	for i := 0; i < 3; i++ {
		expectShardLoadable(t, st, i)
	}
}

func TestShardedBitFlippedShardSnapshot(t *testing.T) {
	dir, st := setupShardedDir(t)
	path := st.shardSnapPath("trips", 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)*2/3] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// the CRC-framed codec catches the flip and types it
	if _, err := ReadSnapshotFileFS(vfs.OS(), path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit-flipped shard snapshot read = %v, want ErrCorrupt", err)
	}
	expectLoadCorrupt(t, dir, "bit-flipped shard snapshot")
	// the damage is confined to shard 1: its siblings stay loadable
	expectShardLoadable(t, st, 0)
	expectShardLoadable(t, st, 2)
}

func TestShardedTornWALTail(t *testing.T) {
	dir, st := setupShardedDir(t)
	path := st.walPath("trips")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if w, recs, err := OpenWAL(path, false); err != nil || len(recs) != 3 {
		t.Fatalf("setup should have journaled one record per shard: %d records, %v", len(recs), err)
	} else {
		w.Close()
	}
	// cut inside the final record — a crash mid-append
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(path, false); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn WAL open = %v, want ErrCorrupt", err)
	}
	expectLoadCorrupt(t, dir, "torn WAL tail")
	// the log is damaged but every shard's snapshot survives intact
	for i := 0; i < 3; i++ {
		expectShardLoadable(t, st, i)
	}
}

// TestShardedSnapshotBehindLog: one shard's snapshot put back from before
// the last checkpoint is a generation behind the log, which no crash
// produces — the records it lacks are gone from the log — so the load
// must refuse it rather than serve a table missing them.
func TestShardedSnapshotBehindLog(t *testing.T) {
	dir, st := setupShardedDir(t)
	stale, err := os.ReadFile(st.shardSnapPath("trips", 1))
	if err != nil {
		t.Fatal(err)
	}
	st2, _, err := openTable(t, dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.shardSnapPath("trips", 1), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	expectLoadCorrupt(t, dir, "shard snapshot behind the log")
}
