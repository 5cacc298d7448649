package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sqlfe"
	"repro/internal/vfs"
)

// buildTable registers a freshly built 1D PASS synopsis in a catalog,
// returning the table — the ShardCheckpointable the store persists, as the
// one-shard case.
func buildTable(t *testing.T, name string, rows int, seed uint64) (*catalog.Table, *dataset.Dataset) {
	t.Helper()
	d := dataset.GenIntelWireless(rows, seed)
	s, err := core.Build(d, core.Options{Partitions: 16, SampleSize: rows / 20, Kind: dataset.Sum, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	schema := sqlfe.SchemaFromColNames(d.ColNames)
	schema.Table = name
	tbl, err := catalog.New().Register(name, s, schema)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, d
}

func testOpts() Options {
	return Options{CheckpointInterval: -1, NoSync: true}
}

// persist attaches tbl's journal and takes its first checkpoint — what
// pass.Session does when a table is registered on a durable session.
func persist(t *testing.T, st *Store, tbl *catalog.Table) *ShardedTableLog {
	t.Helper()
	j, err := st.AttachSharded(tbl, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	tbl.AttachJournal(j)
	if err := st.SaveSharded(tbl); err != nil {
		t.Fatal(err)
	}
	return j
}

// fileset lists a data directory, sorted.
func fileset(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

func queries() []dataset.Rect {
	return []dataset.Rect{
		dataset.Rect1(0, 24),
		dataset.Rect1(3, 9),
		dataset.Rect1(10.5, 19.25),
	}
}

// sameAnswers asserts two engines answer a workload identically, every
// field of every result to the bit.
func sameAnswers(t *testing.T, want, got engine.Engine, context string) {
	t.Helper()
	for i, q := range queries() {
		for _, kind := range []dataset.AggKind{dataset.Sum, dataset.Count, dataset.Avg, dataset.Min, dataset.Max} {
			w, err1 := want.Query(kind, q)
			g, err2 := got.Query(kind, q)
			if ws, gs := fmt.Sprintf("%+v %v", w, err1), fmt.Sprintf("%+v %v", g, err2); ws != gs {
				t.Errorf("%s: query %d %v:\n got %s\nwant %s", context, i, kind, gs, ws)
			}
		}
	}
}

func TestStoreSaveAndLoadAll(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tbl, _ := buildTable(t, "sensors", 3000, 5)
	persist(t, st, tbl)
	// the unsharded table is the one-shard case of the one layout
	if got, want := strings.Join(fileset(t, dir), " "), "sensors.manifest sensors.s0.snap sensors.wal"; got != want {
		t.Errorf("fileset = %s, want %s", got, want)
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
	if len(loaded) != 1 {
		t.Fatalf("loaded %d tables, want 1", len(loaded))
	}
	lt := loaded[0]
	if lt.Name != "sensors" || lt.Replayed != 0 {
		t.Errorf("loaded = %+v", lt)
	}
	if lt.Schema.Table != "sensors" || lt.Schema.AggColumn == "" {
		t.Errorf("schema = %+v", lt.Schema)
	}
	// compare against a second identical build (same data, same seed)
	twin, _ := buildTable(t, "sensors", 3000, 5)
	sameAnswers(t, twinEngine(t, twin), lt.Engine, "after snapshot load")
}

// TestLoadAllRefusesOlderLayouts: a bare <table>.snap, or a per-shard
// <table>.s<i>.wal beside a manifest, is a file of a layout nothing writes
// any more. LoadAll fails naming it, and touches nothing, rather than
// loading around it — a table whose only file that was would vanish.
func TestLoadAllRefusesOlderLayouts(t *testing.T) {
	base := t.TempDir()
	st, err := Open(base, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := buildTable(t, "sensors", 1000, 3)
	persist(t, st, tbl)
	st.Close()
	snap, err := os.ReadFile(filepath.Join(base, "sensors.s0.snap"))
	if err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(base, "sensors.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		what, file string
		body       []byte
		fileset    bool // the current fileset of the table sits beside it
	}{
		{"bare snapshot alone", "sensors.snap", snap, false},
		{"bare snapshot beside a manifest", "sensors.snap", snap, true},
		{"per-shard WAL beside a manifest", "sensors.s0.wal", wal, true},
	} {
		dir := t.TempDir()
		if tc.fileset {
			dir = cloneDir(t, base)
		}
		if err := os.WriteFile(filepath.Join(dir, tc.file), tc.body, 0o644); err != nil {
			t.Fatal(err)
		}
		before := fileset(t, dir)
		st, err := Open(dir, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		_, err = st.LoadAll()
		st.Close()
		if err == nil || !strings.Contains(err.Error(), filepath.Join(dir, tc.file)) {
			t.Errorf("%s: LoadAll = %v, want a failure naming %s", tc.what, err, tc.file)
		}
		if after := fileset(t, dir); strings.Join(after, " ") != strings.Join(before, " ") {
			t.Errorf("%s: a refused load changed the directory from %v to %v", tc.what, before, after)
		}
	}
}

// twinEngine extracts a comparable engine view from a catalog table by
// querying through it.
func twinEngine(t *testing.T, tbl *catalog.Table) engine.Engine {
	t.Helper()
	return catalogEngine{tbl}
}

type catalogEngine struct{ tbl *catalog.Table }

func (c catalogEngine) Name() string     { return c.tbl.EngineName() }
func (c catalogEngine) MemoryBytes() int { return c.tbl.MemoryBytes() }
func (c catalogEngine) Query(kind dataset.AggKind, q dataset.Rect) (core.Result, error) {
	return c.tbl.Query(kind, q)
}
func (c catalogEngine) QueryBatch(qs []core.BatchQuery) []core.BatchResult {
	return c.tbl.QueryBatch(qs)
}

// TestStoreCrashRecoveryViaWAL is the core recovery scenario: snapshot,
// journal inserts WITHOUT checkpointing, "crash" (close without flushing),
// reopen — the replayed table must answer exactly like a twin that kept
// everything in memory.
func TestStoreCrashRecoveryViaWAL(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := buildTable(t, "sensors", 2500, 9)
	persist(t, st, tbl)

	// the twin: the snapshot's synopsis receiving the same inserts in
	// memory, never touching disk again
	snap, err := ReadSnapshotFileFS(vfs.OS(), st.shardSnapPath("sensors", 0))
	if err != nil {
		t.Fatal(err)
	}
	twinSyn, err := core.Load(strings.NewReader(string(snap.Payload)))
	if err != nil {
		t.Fatal(err)
	}

	const n = 137
	for i := 0; i < n; i++ {
		pt := []float64{float64(i%24) + 0.5}
		v := float64(i) / 7
		if err := tbl.Insert(pt, v); err != nil {
			t.Fatal(err)
		}
		if err := twinSyn.Insert(pt, v); err != nil {
			t.Fatal(err)
		}
	}
	// crash: no checkpoint, just drop the handles
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
	if len(loaded) != 1 || loaded[0].Replayed != n {
		t.Fatalf("loaded = %+v, want 1 table with %d replayed updates", loaded, n)
	}
	sameAnswers(t, twinSyn, loaded[0].Engine, "after crash recovery")
}

// TestStoreCheckpointTruncatesWAL checks the checkpoint protocol: once a
// table's journal crosses the threshold, Checkpoint folds it into the
// snapshot and empties the log.
func TestStoreCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.WALThreshold = 10
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tbl, _ := buildTable(t, "sensors", 2000, 3)
	j := persist(t, st, tbl)

	for i := 0; i < 9; i++ {
		if err := tbl.Insert([]float64{float64(i)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := j.ts.wal.Records(); got != 9 {
		t.Errorf("below threshold: WAL has %d records after Checkpoint, want 9 (untouched)", got)
	}
	if err := tbl.Insert([]float64{3}, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := j.ts.wal.Records(); got != 0 {
		t.Errorf("at threshold: WAL has %d records after Checkpoint, want 0", got)
	}

	// the post-checkpoint snapshot already contains the inserts: a load
	// with zero replay matches the live table
	st2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	loaded, err := st2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || loaded[0].Replayed != 0 {
		t.Fatalf("loaded = %+v, want zero replay after checkpoint", loaded)
	}
	sameAnswers(t, twinEngine(t, tbl), loaded[0].Engine, "after checkpoint")
}

// TestStoreBackgroundCheckpointer drives the goroutine end to end: with a
// tiny interval and threshold, journaled inserts are folded into the
// snapshot without any explicit Checkpoint call.
func TestStoreBackgroundCheckpointer(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{WALThreshold: 5, CheckpointInterval: 10 * time.Millisecond, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tbl, _ := buildTable(t, "sensors", 1500, 4)
	j := persist(t, st, tbl)
	for i := 0; i < 25; i++ {
		if err := tbl.Insert([]float64{float64(i % 24)}, 2); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for j.ts.wal.Records() >= 5 {
		if time.Now().After(deadline) {
			t.Fatalf("background checkpointer never truncated the WAL (%d records)", j.ts.wal.Records())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStoreConcurrentInsertWhileCheckpoint runs inserts and checkpoints
// concurrently under -race: the table write lock must serialize journal
// appends against snapshot+truncate so no update is lost.
func TestStoreConcurrentInsertWhileCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := buildTable(t, "sensors", 2000, 8)
	persist(t, st, tbl)

	const inserts = 400
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < inserts; i++ {
			if err := tbl.Insert([]float64{float64(i % 24)}, float64(i)); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if err := st.CheckpointAll(); err != nil {
				t.Errorf("checkpoint %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// every insert must be on disk: snapshot rows + WAL records = 2000+inserts
	st2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	loaded, err := st2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 {
		t.Fatalf("loaded %d tables", len(loaded))
	}
	r, err := loaded[0].Engine.Query(dataset.Count, dataset.Rect1(-1e18, 1e18))
	if err != nil {
		t.Fatal(err)
	}
	if int(r.Estimate) != 2000+inserts {
		t.Errorf("recovered row count = %v, want %d", r.Estimate, 2000+inserts)
	}
}

func TestStoreRemoveDeletesFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tbl, _ := buildTable(t, "Sensors", 1200, 2)
	persist(t, st, tbl)
	base := cloneDir(t, dir)
	if err := st.Remove("sensors"); err != nil { // case-insensitive
		t.Fatal(err)
	}
	if names := fileset(t, dir); len(names) != 0 {
		t.Errorf("files survive a drop: %v", names)
	}
	sweepRemoveCrashes(t, base)
}

func TestStoreLoadAllRejectsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tbl, _ := buildTable(t, "sensors", 1200, 2)
	persist(t, st, tbl)
	path := filepath.Join(dir, "sensors.s0.snap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := st2.LoadAll(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("LoadAll of a corrupt snapshot = %v, want ErrCorrupt", err)
	}
}

func TestStoreTableNameEscaping(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// a hostile name must not escape the data directory
	key := fileKey("../../etc/passwd")
	if strings.Contains(key, "/") {
		t.Errorf("fileKey left a path separator in %q", key)
	}
}

// TestCrashBetweenSnapshotAndTruncate simulates the checkpoint protocol's
// worst window: the new snapshot is published but the process dies before
// the WAL truncation. The generation stamp must prevent the journaled
// records — already folded into the snapshot — from being applied twice.
func TestCrashBetweenSnapshotAndTruncate(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := buildTable(t, "sensors", 1000, 6)
	j := persist(t, st, tbl)
	const n = 30
	for i := 0; i < n; i++ {
		if err := tbl.Insert([]float64{float64(i % 24)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	// snapshot publish WITHOUT the truncate: exactly what a crash between
	// the two filesystem operations leaves behind
	gen := j.ts.wal.Gen() + 1
	err = tbl.CheckpointShards(func(_ engine.ShardInfo, engineName string, schema sqlfe.Schema, payloads [][]byte, _ []int, rows int) error {
		return WriteSnapshotFileFS(vfs.OS(), st.shardSnapPath("sensors", 0), &Snapshot{
			Name: "sensors", Engine: engineName, Gen: gen, Rows: rows,
			Schema: schema, Payload: payloads[0],
		})
	})
	if err != nil {
		t.Fatal(err)
	}
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
	if len(loaded) != 1 || loaded[0].Replayed != 0 {
		t.Fatalf("loaded = %+v, want the stale WAL discarded (0 replayed)", loaded)
	}
	r, err := loaded[0].Engine.Query(dataset.Count, dataset.Rect1(-1e18, 1e18))
	if err != nil {
		t.Fatal(err)
	}
	if int(r.Estimate) != 1000+n {
		t.Errorf("row count = %v, want %d (double-applied WAL?)", r.Estimate, 1000+n)
	}
	// the load rolled the interrupted checkpoint forward: log and snapshot
	// are level again, so no later append lands on a log older than the
	// snapshot it would be replayed over
	snap, err := ReadSnapshotFileFS(vfs.OS(), st2.shardSnapPath("sensors", 0))
	if err != nil {
		t.Fatal(err)
	}
	if w := st2.tables["sensors"].wal; w.Gen() != snap.Gen || snap.Gen <= gen || w.Records() != 0 {
		t.Errorf("after roll-forward: WAL generation %d with %d records under snapshot generation %d (crashed checkpoint was %d)",
			w.Gen(), w.Records(), snap.Gen, gen)
	}
}

// TestCheckpointAfterRemoveDoesNotResurrect: a background checkpoint that
// captured a table before it was dropped must not recreate its files.
func TestCheckpointAfterRemoveDoesNotResurrect(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tbl, _ := buildTable(t, "sensors", 800, 6)
	j := persist(t, st, tbl)
	if err := tbl.Insert([]float64{1}, 1); err != nil {
		t.Fatal(err)
	}
	// the checkpointer captured the state, then the drop wins the race
	ts := j.ts
	if err := st.Remove("sensors"); err != nil {
		t.Fatal(err)
	}
	if err := st.saveShardedState(ts, tbl); err != nil {
		t.Fatalf("post-remove checkpoint should be a no-op, got %v", err)
	}
	if names := fileset(t, dir); len(names) != 0 {
		t.Errorf("checkpoint resurrected dropped table files: %v", names)
	}
}

// TestInsertManyGroupCommitRecovers: a batched insert is journaled as one
// group and fully recovered.
func TestInsertManyGroupCommitRecovers(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := buildTable(t, "sensors", 700, 6)
	j := persist(t, st, tbl)
	const n = 48
	points := make([][]float64, n)
	values := make([]float64, n)
	for i := range points {
		points[i] = []float64{float64(i % 24)}
		values[i] = float64(i)
	}
	if applied, err := tbl.InsertMany(points, values); err != nil || applied != n {
		t.Fatalf("InsertMany = %d, %v", applied, err)
	}
	if got := j.ts.wal.Records(); got != n {
		t.Errorf("WAL records = %d, want %d", got, n)
	}
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
	if len(loaded) != 1 || loaded[0].Replayed != n {
		t.Fatalf("loaded = %+v, want %d replayed", loaded, n)
	}
	r, err := loaded[0].Engine.Query(dataset.Count, dataset.Rect1(-1e18, 1e18))
	if err != nil {
		t.Fatal(err)
	}
	if int(r.Estimate) != 700+n {
		t.Errorf("row count = %v, want %d", r.Estimate, 700+n)
	}
}
