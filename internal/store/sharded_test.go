package store

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/engine/factory"
	"repro/internal/shard"
	"repro/internal/sqlfe"
	"repro/internal/vfs"
)

// buildShardedTable registers a freshly built sharded PASS engine in a
// catalog, returning the table (the ShardCheckpointable) and its engine.
func buildShardedTable(t *testing.T, name string, rows, shards int, seed uint64) (*catalog.Table, *shard.Engine, *dataset.Dataset) {
	t.Helper()
	d := dataset.GenIntelWireless(rows, seed)
	e, err := factory.Build(fmt.Sprintf("sharded:pass:%d", shards), d, factory.Spec{
		Partitions: 16, SampleSize: rows / 10, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	schema := sqlfe.SchemaFromColNames(d.ColNames)
	schema.Table = name
	tbl, err := catalog.New().Register(name, e, schema)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, e.(*shard.Engine), d
}

func TestManifestRoundTrip(t *testing.T) {
	m := &ShardManifest{
		Name:   "trips",
		Engine: "PASS",
		Policy: "range",
		Dim:    0,
		Cuts:   []float64{10, 20.5},
		Bounds: []dataset.Rect{
			{Lo: []float64{0}, Hi: []float64{9}},
			{Lo: []float64{10}, Hi: []float64{20}},
			{Lo: []float64{20.5}, Hi: []float64{31}},
		},
		Shards: 3,
		Rows:   1234,
		Gens:   []uint64{4, 5, 6},
	}
	path := filepath.Join(t.TempDir(), "t.manifest")
	if err := WriteManifestFileFS(vfs.OS(), path, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifestFileFS(vfs.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != m.Name || got.Engine != m.Engine || got.Policy != m.Policy ||
		got.Dim != m.Dim || got.Shards != m.Shards || got.Rows != m.Rows {
		t.Errorf("round trip mismatch: %+v vs %+v", got, m)
	}
	for i := range m.Cuts {
		if got.Cuts[i] != m.Cuts[i] {
			t.Errorf("cut %d: %v != %v", i, got.Cuts[i], m.Cuts[i])
		}
	}
	for i := range m.Gens {
		if got.Gens[i] != m.Gens[i] {
			t.Errorf("gen %d: %v != %v", i, got.Gens[i], m.Gens[i])
		}
	}
	for i, b := range m.Bounds {
		if got.Bounds[i].Lo[0] != b.Lo[0] || got.Bounds[i].Hi[0] != b.Hi[0] {
			t.Errorf("bounds %d: %v != %v", i, got.Bounds[i], b)
		}
	}
}

func TestManifestRejectsCorruption(t *testing.T) {
	m := &ShardManifest{
		Name: "t", Engine: "PASS", Policy: "range", Shards: 1, Rows: 1,
		Bounds: []dataset.Rect{{Lo: []float64{0}, Hi: []float64{1}}},
		Gens:   []uint64{1},
	}
	path := filepath.Join(t.TempDir(), "t.manifest")
	if err := WriteManifestFileFS(vfs.OS(), path, m); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifestFileFS(vfs.OS(), path); err == nil {
		t.Fatal("bit-flipped manifest must be rejected")
	}
	// truncated tail
	if err := os.WriteFile(path, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifestFileFS(vfs.OS(), path); err == nil {
		t.Fatal("truncated manifest must be rejected")
	}
}

// TestShardedSaveAndWarmStart is the crash-recovery twin test of a
// sharded table: it is persisted, journaled updates land in its one WAL,
// the process "crashes" (the store is abandoned without a checkpoint),
// and a fresh store warm-starts the table — router, bounds and all —
// answering exactly what the live table answered.
func TestShardedSaveAndWarmStart(t *testing.T) {
	dir := t.TempDir()
	tbl, live, _ := buildShardedTable(t, "trips", 3000, 3, 7)

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
	// journaled updates on top of the snapshot, spread across shards
	info := live.ShardInfo()
	for i := 0; i < info.Shards; i++ {
		key := info.Bounds[i].Lo[0]
		if err := tbl.Insert([]float64{key}, float64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	// the table's one WAL carries the updates of every shard
	if total := st.tables["trips"].wal.Records(); total != info.Shards {
		t.Fatalf("%d journaled records in the WAL, want %d", total, info.Shards)
	}
	if got, want := strings.Join(fileset(t, dir), " "), "trips.manifest trips.s0.snap trips.s1.snap trips.s2.snap trips.wal"; got != want {
		t.Errorf("fileset = %s, want %s", got, want)
	}
	// crash: close WALs without checkpointing
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	loaded, err := st2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || loaded[0].Name != "trips" {
		t.Fatalf("loaded %+v, want the one sharded table", loaded)
	}
	if loaded[0].Replayed != info.Shards {
		t.Errorf("replayed %d records, want %d", loaded[0].Replayed, info.Shards)
	}
	restored, ok := loaded[0].Engine.(*shard.Engine)
	if !ok {
		t.Fatalf("restored engine is %T, want *shard.Engine", loaded[0].Engine)
	}
	ri := restored.ShardInfo()
	if ri.Shards != info.Shards || ri.Policy != info.Policy {
		t.Fatalf("restored shard info %+v, want %+v", ri, info)
	}
	for i, c := range info.Cuts {
		if ri.Cuts[i] != c {
			t.Errorf("restored cut %d = %v, want %v", i, ri.Cuts[i], c)
		}
	}
	sameAnswers(t, engine.Engine(live), loaded[0].Engine, "sharded warm start")
}

// TestShardedCrashBetweenSnapshotsAndManifest is the torn checkpoint of a
// 4-shard table: the crash lands on each filesystem operation in turn,
// leaving the manifest rewritten, 0–4 shard snapshots at generation g+1
// and the WAL still carrying the folded records at generation g. The
// loader must skip the records of exactly the shards that folded them —
// never double-apply, never drop — and roll the checkpoint forward; then
// the same sweep runs over that roll-forward, from the state with two
// shards ahead and two behind.
func TestShardedCrashBetweenSnapshotsAndManifest(t *testing.T) {
	base := t.TempDir()
	tbl, _, _ := buildShardedTable(t, "trips", 800, 4, 3)
	st, err := Open(base, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	persist(t, st, tbl)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	want := sweepCheckpointCrashes(t, base)

	torn, _ := journaled(t, base, true, &vfs.Fault{Op: vfs.OpWrite, Path: ".s2.snap", Crash: true})
	var ahead []int
	for i := 0; i < 4; i++ {
		snap, err := ReadSnapshotFileFS(vfs.OS(), st.shardSnapPath("trips", i))
		if err != nil {
			t.Fatal(err)
		}
		torn, err := ReadSnapshotFileFS(vfs.OS(), filepath.Join(torn, filepath.Base(st.shardSnapPath("trips", i))))
		if err != nil {
			t.Fatal(err)
		}
		if torn.Gen > snap.Gen {
			ahead = append(ahead, i)
		}
	}
	if fmt.Sprint(ahead) != "[0 1]" {
		t.Fatalf("torn checkpoint left shards %v ahead of the log, want [0 1]", ahead)
	}
	sweepLoadCrashes(t, torn, want)
}

// TestShardedKDCrashSweep runs the crash sweeps over a 3-D table of three
// k-d shards: every batch it is given is refused before it touches a file,
// a checkpoint crashed on any filesystem operation — and the load that
// rolls a torn one forward, crashed on any of its own — leaves a fileset
// that warm-starts to the uncrashed answers, to the bit.
func TestShardedKDCrashSweep(t *testing.T) {
	d := dataset.GenNYCTaxi(900, 3, 12)
	e, err := factory.Build("sharded:pass:3", d, factory.Spec{Partitions: 16, SampleSize: 90, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	schema := sqlfe.SchemaFromColNames(d.ColNames)
	schema.Table = "trips"
	tbl, err := catalog.New().Register("trips", e, schema)
	if err != nil {
		t.Fatal(err)
	}
	base := t.TempDir()
	st, err := Open(base, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	persist(t, st, tbl)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	want := sweepCheckpointCrashes(t, base)
	torn, _ := journaled(t, base, true, &vfs.Fault{Op: vfs.OpWrite, Path: ".s1.snap", Crash: true})
	sweepLoadCrashes(t, torn, want)
}

// TestInsertManyIsOneGroupCommitAcrossShards pins the write path's cost
// and atomicity: a batch whose rows route to every shard is one write and
// one fsync on the table's one WAL, a crash on either leaves all of it or
// none of it (never one shard's share), a torn write still fails the next
// load, and a batch the engine rejects half-way stays journaled as exactly
// the applied prefix.
func TestInsertManyIsOneGroupCommitAcrossShards(t *testing.T) {
	const rows = 800
	base := t.TempDir()
	tbl, live, _ := buildShardedTable(t, "trips", rows, 4, 7)
	st, err := Open(base, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	persist(t, st, tbl)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	points := make([][]float64, 16)
	values := make([]float64, 16)
	touched := map[int]bool{}
	for i := range points {
		points[i] = []float64{float64(i*50) + 0.5}
		values[i] = float64(i)
		si, err := live.Route(points[i])
		if err != nil {
			t.Fatal(err)
		}
		touched[si] = true
	}
	if len(touched) != 4 {
		t.Fatalf("the batch touches shards %v, want all 4", touched)
	}
	// insert runs the batch on a copy of base under a fault (nil: none) and
	// returns the directory it leaves behind
	insert := func(fault *vfs.Fault, batch [][]float64) (dir string, applied int, err error) {
		dir = cloneDir(t, base)
		fsys := vfs.NewFaultFS(vfs.OS())
		st, tbl, lerr := openTable(t, dir, faultOpts(fsys))
		if lerr != nil {
			t.Fatal(lerr)
		}
		defer st.Close()
		if fault != nil {
			fsys.Inject(fault)
		}
		writes, syncs := fsys.OpCount(vfs.OpWrite), fsys.OpCount(vfs.OpSync)
		applied, err = tbl.InsertMany(batch, values)
		if err == nil {
			if w, s := fsys.OpCount(vfs.OpWrite)-writes, fsys.OpCount(vfs.OpSync)-syncs; w != 1 || s != 1 {
				t.Errorf("a 16-row batch across 4 shards took %d writes and %d fsyncs, want 1 and 1", w, s)
			}
		}
		return dir, applied, err
	}
	count := func(dir string) (n, replayed int) {
		st, err := Open(dir, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		loaded, err := st.LoadAll()
		if err != nil {
			t.Fatal(err)
		}
		r, err := loaded[0].Engine.Query(dataset.Count, dataset.Rect1(-1e18, 1e18))
		if err != nil {
			t.Fatal(err)
		}
		return int(r.Estimate), loaded[0].Replayed
	}

	dir, applied, err := insert(nil, points)
	if err != nil || applied != 16 {
		t.Fatalf("InsertMany = %d, %v", applied, err)
	}
	if n, replayed := count(dir); n != rows+16 || replayed != 16 {
		t.Errorf("after restart: %d rows, %d replayed, want %d and 16", n, replayed, rows+16)
	}

	// the append is two operations, write then fsync: crash on each
	for k, want := range []int{rows, rows + 16} {
		dir, _, err := insert(&vfs.Fault{Op: vfs.OpAny, Path: ".wal", After: k, Crash: true}, points)
		if err == nil {
			t.Fatalf("InsertMany survived a crash on WAL operation %d", k+1)
		}
		if n, _ := count(dir); n != want {
			t.Errorf("crash on WAL operation %d: %d rows after restart, want %d (all of the batch or none)", k+1, n, want)
		}
	}

	// a write torn by the crash is not a prefix of the batch: it is corruption
	dir, _, err = insert(&vfs.Fault{Op: vfs.OpWrite, Path: ".wal", ShortWrite: 40, Crash: true}, points)
	if err == nil {
		t.Fatal("InsertMany survived a torn write")
	}
	expectLoadCorrupt(t, dir, "torn group append")

	// row 5 cannot be routed: the engine applies rows 0-4 and the catalog
	// rewinds the journal to exactly those
	poisoned := slices.Clone(points)
	poisoned[5] = []float64{}
	dir, applied, err = insert(nil, poisoned)
	if err == nil || applied != 5 {
		t.Fatalf("poisoned InsertMany = %d, %v, want 5 applied and an error", applied, err)
	}
	if n, replayed := count(dir); n != rows+5 || replayed != 5 {
		t.Errorf("poisoned batch after restart: %d rows, %d replayed, want %d and 5", n, replayed, rows+5)
	}
}

func TestShardedRemoveDeletesAllFiles(t *testing.T) {
	dir := t.TempDir()
	tbl, live, _ := buildShardedTable(t, "trips", 2000, 3, 9)
	st, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.AttachSharded(tbl, live, 3); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSharded(tbl); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) == 0 {
		t.Fatal("no files persisted")
	}
	base := cloneDir(t, dir)
	if err := st.Remove("trips"); err != nil {
		t.Fatal(err)
	}
	entries, _ = os.ReadDir(dir)
	for _, e := range entries {
		t.Errorf("file %s survived Remove", e.Name())
	}
	sweepRemoveCrashes(t, base)
}

// TestValidateTableNameRejectsShardCollisions: a table named like a
// per-shard file ("logs.s0") would vanish at warm start and be deleted
// by the prefix table's Remove, so the store refuses to persist it.
func TestValidateTableNameRejectsShardCollisions(t *testing.T) {
	for _, bad := range []string{"logs.s0", "Trips.S12", "x.s007"} {
		if err := ValidateTableName(bad); err == nil {
			t.Errorf("ValidateTableName(%q) accepted a colliding name", bad)
		}
	}
	for _, ok := range []string{"logs", "s0", "logs.snap", "a.sx", "metrics.2024"} {
		if err := ValidateTableName(ok); err != nil {
			t.Errorf("ValidateTableName(%q) = %v, want nil", ok, err)
		}
	}
	dir := t.TempDir()
	st, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tbl, _ := buildTable(t, "logs.s0", 1000, 1)
	if _, err := st.AttachSharded(tbl, nil, 0); err == nil {
		t.Error("AttachSharded accepted a shard-colliding unsharded table name")
	}
	stbl, live, _ := buildShardedTable(t, "logs.s1", 1000, 2, 1)
	if _, err := st.AttachSharded(stbl, live, 2); err == nil {
		t.Error("AttachSharded accepted a shard-colliding table name")
	}
}

// TestRemoveDoesNotTouchExtendedNameSiblings: dropping "logs" must not
// delete the shard files of "logs.staging".
func TestRemoveDoesNotTouchExtendedNameSiblings(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, name := range []string{"logs", "logs.staging"} {
		tbl, live, _ := buildShardedTable(t, name, 1000, 2, 4)
		if _, err := st.AttachSharded(tbl, live, 2); err != nil {
			t.Fatal(err)
		}
		if err := st.SaveSharded(tbl); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Remove("logs"); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	var left []string
	for _, e := range entries {
		left = append(left, e.Name())
	}
	want := map[string]bool{
		"logs.staging.manifest": true, "logs.staging.wal": true,
		"logs.staging.s0.snap": true, "logs.staging.s1.snap": true,
	}
	if len(left) != len(want) {
		t.Fatalf("files after Remove(logs): %v, want exactly logs.staging's fileset", left)
	}
	for _, f := range left {
		if !want[f] {
			t.Errorf("unexpected survivor %s", f)
		}
	}
	// and logs.staging still warm-starts
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	loaded, err := st2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || loaded[0].Name != "logs.staging" {
		t.Fatalf("loaded %+v, want logs.staging alone", loaded)
	}
}
