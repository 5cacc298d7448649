package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/retry"
	"repro/internal/vfs"
)

// fastRetry keeps chaos tests quick: three attempts, microsecond backoff.
func fastRetry() retry.Policy {
	return retry.Policy{Attempts: 3, Base: 100 * time.Microsecond, Max: time.Millisecond, Factor: 2}
}

// TestWALSyncFailureDegradesAndRecoversOnRestart is the headline chaos
// scenario: a WAL fsync starts failing mid-stream. The table must flip to
// read-only degraded mode (writes rejected with the cause, reads still
// serving), and a restart against the same directory must recover every
// ACKNOWLEDGED update — the twin-parity invariant — with the table
// healthy again.
func TestWALSyncFailureDegradesAndRecoversOnRestart(t *testing.T) {
	dir := t.TempDir()
	fsys := vfs.NewFaultFS(vfs.OS())
	st, err := Open(dir, Options{CheckpointInterval: -1, FS: fsys, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := buildTable(t, "sensors", 2500, 11)
	persist(t, st, tbl)

	// the twin starts from the same snapshot bytes the recovery will read
	snap, err := ReadSnapshotFileFS(vfs.OS(), st.shardSnapPath("sensors", 0))
	if err != nil {
		t.Fatal(err)
	}
	twin, err := core.Load(strings.NewReader(string(snap.Payload)))
	if err != nil {
		t.Fatal(err)
	}

	// 40 inserts succeed, then the WAL's disk goes bad: every later fsync
	// on the journal fails
	const acked = 40
	for i := 0; i < acked; i++ {
		pt := []float64{float64(i%24) + 0.25}
		v := float64(i) / 3
		if err := tbl.Insert(pt, v); err != nil {
			t.Fatal(err)
		}
		if err := twin.Insert(pt, v); err != nil {
			t.Fatal(err)
		}
	}
	fsys.Inject(&vfs.Fault{Op: vfs.OpSync, Path: ".wal"})

	err = tbl.Insert([]float64{5}, 1)
	if err == nil {
		t.Fatal("insert with failing WAL fsync should error")
	}
	if !errors.Is(err, ErrIO) {
		t.Fatalf("first failure = %v, want ErrIO-tagged", err)
	}

	// the table is now degraded: writes rejected with the original cause...
	deg, cause := st.Degraded("sensors")
	if !deg {
		t.Fatal("table should be degraded after a WAL append failure")
	}
	if !errors.Is(cause, ErrDegraded) || !errors.Is(cause, ErrIO) {
		t.Fatalf("degraded cause = %v, want ErrDegraded wrapping the ErrIO failure", cause)
	}
	if got := st.DegradedTables(); len(got) != 1 || got[0] != "sensors" {
		t.Fatalf("DegradedTables = %v, want [sensors]", got)
	}
	err = tbl.Insert([]float64{6}, 1)
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("insert on degraded table = %v, want ErrDegraded", err)
	}

	// ...but reads keep serving, and match the twin (which holds exactly
	// the acknowledged updates — the two rejected inserts never applied)
	sameAnswers(t, twin, twinEngine(t, tbl), "degraded reads")

	// the degraded table's WAL syncs fail persistently; the background
	// checkpointer must leave it alone rather than hammer the disk
	if err := st.CheckpointAll(); err != nil {
		t.Fatalf("CheckpointAll must skip the degraded table, got %v", err)
	}

	// restart: the disk is healthy again, recovery replays the WAL
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
	if len(loaded) != 1 || loaded[0].Replayed != acked {
		t.Fatalf("loaded = %+v, want 1 table with %d replayed updates", loaded, acked)
	}
	sameAnswers(t, twin, loaded[0].Engine, "after restart recovery")
	if deg, _ := st2.Degraded("sensors"); deg {
		t.Fatal("restarted table should be healthy")
	}
}

// TestCheckpointFailureRetriesThenDegrades drives the snapshot write
// path: transient ErrIO failures are retried with backoff; when all
// attempts are exhausted the table degrades, and a later successful
// explicit save recovers it without a restart.
func TestCheckpointFailureRetriesThenDegrades(t *testing.T) {
	dir := t.TempDir()
	fsys := vfs.NewFaultFS(vfs.OS())
	st, err := Open(dir, Options{CheckpointInterval: -1, NoSync: true, FS: fsys, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tbl, _ := buildTable(t, "sensors", 1500, 7)
	persist(t, st, tbl)
	for i := 0; i < 5; i++ {
		if err := tbl.Insert([]float64{float64(i)}, 1); err != nil {
			t.Fatal(err)
		}
	}

	// a transient failure (2 fsync errors on the snapshot temp file) is
	// absorbed by the retry loop: the checkpoint succeeds on attempt 3
	fsys.Inject(&vfs.Fault{Op: vfs.OpSync, Path: ".snap", Count: 2})
	syncsBefore := fsys.OpCount(vfs.OpSync)
	if err := st.CheckpointAll(); err != nil {
		t.Fatalf("checkpoint with 2 transient faults should succeed via retry: %v", err)
	}
	if deg, _ := st.Degraded("sensors"); deg {
		t.Fatal("table must not degrade when retries succeed")
	}
	if got := fsys.OpCount(vfs.OpSync) - syncsBefore; got < 3 {
		t.Fatalf("observed %d snapshot sync attempts, want >= 3 (2 failed + 1 ok)", got)
	}

	// a persistent failure (3 fsync errors = every retry attempt) is not:
	// the save fails and the table degrades
	for i := 0; i < 5; i++ {
		if err := tbl.Insert([]float64{float64(i) + 6}, 1); err != nil {
			t.Fatal(err)
		}
	}
	fsys.Inject(&vfs.Fault{Op: vfs.OpSync, Path: ".snap", Count: 3})
	err = st.CheckpointAll()
	if err == nil {
		t.Fatal("checkpoint with persistent faults should fail")
	}
	if !errors.Is(err, ErrIO) || !strings.Contains(err.Error(), "attempts") {
		t.Fatalf("exhausted-retry error = %v, want ErrIO-tagged with attempt count", err)
	}
	if deg, _ := st.Degraded("sensors"); !deg {
		t.Fatal("table should degrade after retry exhaustion")
	}
	if err := tbl.Insert([]float64{9}, 1); !errors.Is(err, ErrDegraded) {
		t.Fatalf("insert on degraded table = %v, want ErrDegraded", err)
	}

	// the disk heals (the rules are spent); an explicit save re-establishes
	// durability and clears degraded mode — writes flow again
	if err := st.SaveSharded(tbl); err != nil {
		t.Fatalf("recovery save: %v", err)
	}
	if deg, _ := st.Degraded("sensors"); deg {
		t.Fatal("table should recover after a successful save")
	}
	if err := tbl.Insert([]float64{10}, 1); err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
}

// TestENOSPCDuringCheckpointDegrades drives the disk-full case: every
// snapshot write fails with ENOSPC through every retry attempt, the
// table degrades with the errno preserved in the cause chain, and
// writes are rejected while the journal stays untouched.
func TestENOSPCDuringCheckpointDegrades(t *testing.T) {
	dir := t.TempDir()
	fsys := vfs.NewFaultFS(vfs.OS())
	st, err := Open(dir, Options{CheckpointInterval: -1, NoSync: true, FS: fsys, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tbl, _ := buildTable(t, "sensors", 1000, 9)
	persist(t, st, tbl)
	for i := 0; i < 4; i++ {
		if err := tbl.Insert([]float64{float64(i)}, 1); err != nil {
			t.Fatal(err)
		}
	}

	// the disk is full: every snapshot write fails until the rule is
	// removed (no Count, so it never spends)
	fsys.Inject(&vfs.Fault{Op: vfs.OpWrite, Path: ".snap",
		Err: fmt.Errorf("%w: %w", vfs.ErrInjected, syscall.ENOSPC)})
	err = st.CheckpointAll()
	if err == nil {
		t.Fatal("checkpoint on a full disk should fail")
	}
	if !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, ErrIO) {
		t.Fatalf("checkpoint error = %v, want ErrIO wrapping ENOSPC", err)
	}
	deg, cause := st.Degraded("sensors")
	if !deg || !errors.Is(cause, syscall.ENOSPC) {
		t.Fatalf("degraded=%v cause=%v, want degraded with ENOSPC in the chain", deg, cause)
	}
	if err := tbl.Insert([]float64{5}, 1); !errors.Is(err, ErrDegraded) {
		t.Fatalf("insert on full disk = %v, want ErrDegraded", err)
	}
}

// TestTornWALWriteDegradesWithoutPhantom checks the torn-write case: a
// WAL append that lands only partially on disk must degrade the table,
// and recovery must NOT replay the torn record — the insert was never
// acknowledged, so the recovered table holds exactly the acked updates.
func TestTornWALWriteDegradesWithoutPhantom(t *testing.T) {
	dir := t.TempDir()
	fsys := vfs.NewFaultFS(vfs.OS())
	st, err := Open(dir, Options{CheckpointInterval: -1, FS: fsys, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := buildTable(t, "sensors", 1200, 3)
	persist(t, st, tbl)
	for i := 0; i < 7; i++ {
		if err := tbl.Insert([]float64{float64(i)}, 1); err != nil {
			t.Fatal(err)
		}
	}

	// the next WAL write tears after 5 bytes
	fsys.Inject(&vfs.Fault{Op: vfs.OpWrite, Path: ".wal", ShortWrite: 5, Count: 1})
	if err := tbl.Insert([]float64{8}, 2); err == nil {
		t.Fatal("torn WAL write should error")
	}
	if deg, _ := st.Degraded("sensors"); !deg {
		t.Fatal("table should degrade after a torn WAL write")
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
	if len(loaded) != 1 || loaded[0].Replayed != 7 {
		t.Fatalf("loaded = %+v, want 7 replayed updates and no phantom from the torn tail", loaded)
	}
}

// TestCrashDuringCheckpointRecovers simulates the machine dying mid-
// checkpoint: the filesystem crashes on the snapshot temp-file sync, so
// the new snapshot never lands and the WAL is never truncated. A restart
// must recover from the OLD snapshot + full WAL. It then sweeps the crash
// over every operation of an unsharded (one-shard) table's checkpoint.
func TestCrashDuringCheckpointRecovers(t *testing.T) {
	dir := t.TempDir()
	fsys := vfs.NewFaultFS(vfs.OS())
	st, err := Open(dir, Options{CheckpointInterval: -1, NoSync: true, FS: fsys, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := buildTable(t, "sensors", 1800, 5)
	persist(t, st, tbl)

	snap, err := ReadSnapshotFileFS(vfs.OS(), st.shardSnapPath("sensors", 0))
	if err != nil {
		t.Fatal(err)
	}
	twin, err := core.Load(strings.NewReader(string(snap.Payload)))
	if err != nil {
		t.Fatal(err)
	}
	const n = 23
	for i := 0; i < n; i++ {
		pt := []float64{float64(i%24) + 0.75}
		if err := tbl.Insert(pt, 2); err != nil {
			t.Fatal(err)
		}
		if err := twin.Insert(pt, 2); err != nil {
			t.Fatal(err)
		}
	}

	fsys.Inject(&vfs.Fault{Op: vfs.OpSync, Path: ".snap", Crash: true})
	if err := st.CheckpointAll(); err == nil {
		t.Fatal("checkpoint through a crashing filesystem should fail")
	}
	// the process is gone; do not Close (a dead FS cannot flush anyway)

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
		t.Fatalf("loaded = %+v, want %d replayed updates from the surviving WAL", loaded, n)
	}
	sameAnswers(t, twin, loaded[0].Engine, "after mid-checkpoint crash")

	// the same, with the crash on every operation of the checkpoint in turn
	// and on every operation of the roll-forward that follows the one that
	// publishes the snapshot but dies before truncating the log
	base := t.TempDir()
	bst, err := Open(base, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	btbl, _ := buildTable(t, "sensors", 800, 5)
	persist(t, bst, btbl)
	if err := bst.Close(); err != nil {
		t.Fatal(err)
	}
	want := sweepCheckpointCrashes(t, base)
	ahead, _ := journaled(t, base, true, &vfs.Fault{Op: vfs.OpTruncate, Path: ".wal", Crash: true})
	sweepLoadCrashes(t, ahead, want)
}

// The crash sweeps. A directory holding one table's fileset is copied,
// warm-started on a fault-injecting filesystem, given sweepBatch(1) as one
// journaled InsertMany — rows across the whole key range, the outer two
// outside every shard's bounds, so they grow them — and checkpointed or
// loaded with the k-th filesystem operation crashing, for every k. What
// the crash left behind must then settle to the answers of a twin that
// did the same without crashing, to the bit. A multi-dimensional table
// takes no updates: its batches are refused before they touch a file, and
// the sweeps crash its checkpoints and loads all the same.

// sweepBatch is the i-th batch of rows the sweeps insert into a table with
// dims predicate columns.
func sweepBatch(i, dims int) ([][]float64, []float64) {
	keys := []float64{-50, 3, 101.5, 250, 399, 420.25, 610, 799, 900}
	points := make([][]float64, 0, 2*len(keys))
	values := make([]float64, 0, 2*len(keys))
	for r := 0; r < 2; r++ {
		for j, k := range keys {
			pt := make([]float64, dims)
			pt[0] = k + float64(r)/4
			points = append(points, pt)
			values = append(values, float64(10*i+j)+0.5)
		}
	}
	return points, values
}

// insertSweepBatch journals sweepBatch(i) into tbl: all of it on a 1D
// table; nothing, with the refusal, on a multi-dimensional one.
func insertSweepBatch(t *testing.T, tbl *catalog.Table, i int) {
	t.Helper()
	dims := len(tbl.Schema().PredColumns)
	points, values := sweepBatch(i, dims)
	n, err := tbl.InsertMany(points, values)
	switch {
	case dims == 1 && (err != nil || n != len(points)):
		t.Fatalf("journaled insert: %d, %v", n, err)
	case dims > 1 && (err == nil || n != 0):
		t.Fatalf("insert into a %d-D table: %d applied, %v; want it refused", dims, n, err)
	}
}

// probeAll answers a fixed probe set through the table, one line per
// probe carrying every field of the core.Result. On a multi-dimensional
// table each probe also constrains the other columns.
func probeAll(t *testing.T, tbl *catalog.Table) []string {
	t.Helper()
	dims := len(tbl.Schema().PredColumns)
	var out []string
	for _, kind := range []dataset.AggKind{dataset.Sum, dataset.Count, dataset.Avg, dataset.Min, dataset.Max} {
		for _, q := range []dataset.Rect{
			dataset.Rect1(-1e18, 1e18), dataset.Rect1(-100, 50), dataset.Rect1(37.5, 412.25),
			dataset.Rect1(150, 151), dataset.Rect1(580, 1000), dataset.Rect1(850, 950), dataset.Rect1(-80, -10),
			dataset.Rect1(2, 19.5),
		} {
			for c := 1; c < dims; c++ {
				q.Lo, q.Hi = append(q.Lo, 3*float64(c)), append(q.Hi, 20*float64(c))
			}
			r, err := tbl.Query(kind, q)
			if err != nil {
				t.Fatalf("probe %v %v: %v", kind, q, err)
			}
			out = append(out, fmt.Sprintf("%v %v %+v", kind, q, r))
		}
	}
	return out
}

// sameProbes holds two probeAll outputs equal to the bit.
func sameProbes(t *testing.T, want, got []string, context string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d answers, want %d", context, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s:\n got %s\nwant %s", context, got[i], want[i])
		}
	}
}

// openTable warm-starts the one table in dir and re-attaches its journal,
// as pass.Session.AttachStore does. A failed load is returned, not fatal:
// the load sweeps crash it on purpose.
func openTable(t *testing.T, dir string, opts Options) (*Store, *catalog.Table, error) {
	t.Helper()
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := st.LoadAll()
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	if len(loaded) != 1 {
		t.Fatalf("%s holds %d tables, want 1", dir, len(loaded))
	}
	tbl, err := catalog.New().Register(loaded[0].Name, loaded[0].Engine, loaded[0].Schema)
	if err != nil {
		t.Fatal(err)
	}
	j, err := st.AttachSharded(tbl, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	tbl.AttachJournal(j)
	return st, tbl, nil
}

// cloneDir copies a data directory (temp files of a crashed write
// included: recovery must cope with them) into a fresh one.
func cloneDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for _, name := range fileset(t, src) {
		raw, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

var olderLayoutFile = regexp.MustCompile(`(\.s\d+\.wal|^[^.]+\.snap)$`)

// settled is where a data directory ends up after a clean restart (first)
// and, from there, sweepBatch(2) journaled, the process gone without a
// checkpoint, and one more clean restart (second): the "append to a log
// older than a snapshot" trap a load that left a shard ahead of the log
// would fall into.
type settled struct{ first, second []string }

func settle(t *testing.T, dir string) settled {
	t.Helper()
	st, tbl, err := openTable(t, dir, testOpts())
	if err != nil {
		t.Fatalf("clean restart: %v", err)
	}
	var s settled
	s.first = probeAll(t, tbl)
	wals := 0
	for _, name := range fileset(t, dir) {
		if olderLayoutFile.MatchString(name) {
			t.Errorf("older-layout file %s survives a load", name)
		}
		if strings.HasSuffix(name, ".wal") {
			wals++
		}
	}
	if wals != 1 {
		t.Errorf("%d WALs after a load, want 1: %v", wals, fileset(t, dir))
	}
	insertSweepBatch(t, tbl, 2)
	st.Close()
	st, tbl, err = openTable(t, dir, testOpts())
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	s.second = probeAll(t, tbl)
	st.Close()
	return s
}

// sameSettled holds a crashed run to its uncrashed twin at both restarts,
// to the bit: each shard's state is a function of its snapshot bytes and
// the records replayed over them, and a snapshot restores exactly what
// was in memory, so every way a crash can have laid them down serves the
// same answers.
func sameSettled(t *testing.T, got settled, context string, want settled) {
	t.Helper()
	sameProbes(t, want.first, got.first, context+", first restart")
	sameProbes(t, want.second, got.second, context+", second restart")
}

func faultOpts(fsys vfs.FS) Options {
	return Options{CheckpointInterval: -1, FS: fsys, Retry: fastRetry()}
}

func totalOps(fsys *vfs.FaultFS) int {
	n := 0
	for _, op := range []vfs.Op{vfs.OpOpen, vfs.OpRead, vfs.OpWrite, vfs.OpSync, vfs.OpTruncate, vfs.OpRename, vfs.OpRemove} {
		n += fsys.OpCount(op)
	}
	return n
}

// journaled returns a copy of base with sweepBatch(1) journaled and, if
// asked, a checkpoint run into fault (nil: to completion), with the
// number of filesystem operations the checkpoint issued. A batch a
// multi-dimensional table refuses must issue none.
func journaled(t *testing.T, base string, checkpoint bool, fault *vfs.Fault) (dir string, ops int) {
	t.Helper()
	dir = cloneDir(t, base)
	fsys := vfs.NewFaultFS(vfs.OS())
	st, tbl, err := openTable(t, dir, faultOpts(fsys))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close() // releases descriptors; flushes nothing
	before := totalOps(fsys)
	insertSweepBatch(t, tbl, 1)
	if dims := len(tbl.Schema().PredColumns); dims > 1 && totalOps(fsys) != before {
		t.Fatalf("a refused insert into a %d-D table issued %d filesystem operations", dims, totalOps(fsys)-before)
	}
	if !checkpoint {
		return dir, 0
	}
	before = totalOps(fsys)
	if fault != nil {
		fsys.Inject(fault)
	}
	if err := st.SaveSharded(tbl); (err != nil) != (fault != nil) {
		t.Fatalf("checkpoint with fault %+v: %v", fault, err)
	}
	return dir, totalOps(fsys) - before
}

// sweepCheckpointCrashes crashes a checkpoint of base's table on each of
// its filesystem operations and returns the settled answers of the twin
// whose checkpoint completed. That twin and the one that never
// checkpointed — its batch still in the log — must agree to the bit.
func sweepCheckpointCrashes(t *testing.T, base string) settled {
	t.Helper()
	done, ops := journaled(t, base, true, nil)
	never, _ := journaled(t, base, false, nil)
	want := settle(t, done)
	sameSettled(t, settle(t, never), "journaled twin against the checkpointed one", want)
	if ops < 8 {
		t.Fatalf("a checkpoint took %d filesystem operations; the sweep is not seeing them", ops)
	}
	for k := 0; k < ops; k++ {
		dir, _ := journaled(t, base, true, &vfs.Fault{Op: vfs.OpAny, After: k, Crash: true})
		sameSettled(t, settle(t, dir), fmt.Sprintf("checkpoint crashed at operation %d/%d", k+1, ops), want)
	}
	return want
}

// sweepLoadCrashes crashes the warm start of the fileset in state — one
// that makes the load roll a checkpoint forward — on each of its
// filesystem operations; want is the twin whose load was not interrupted.
func sweepLoadCrashes(t *testing.T, state string, want settled) {
	t.Helper()
	count := vfs.NewFaultFS(vfs.OS())
	st, _, err := openTable(t, cloneDir(t, state), faultOpts(count))
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	ops := totalOps(count) - 1 // Open's MkdirAll precedes the load
	for k := 0; k < ops; k++ {
		dir := cloneDir(t, state)
		fsys := vfs.NewFaultFS(vfs.OS())
		st, err := Open(dir, faultOpts(fsys))
		if err != nil {
			t.Fatal(err)
		}
		fsys.Inject(&vfs.Fault{Op: vfs.OpAny, After: k, Crash: true})
		if _, err := st.LoadAll(); err == nil {
			t.Fatalf("load survived a crash at operation %d/%d", k+1, ops)
		}
		st.Close()
		sameSettled(t, settle(t, dir), fmt.Sprintf("load crashed at operation %d/%d", k+1, ops), want)
	}
}

// sweepRemoveCrashes crashes Remove of the one table persisted in base on
// each of its filesystem operations. A drop cut short must leave either
// the whole table or nothing a warm start can see: a fileset that fails
// LoadAll would keep passd from booting. After that, a table created anew
// under the name must come back as itself and nothing of the old one.
func sweepRemoveCrashes(t *testing.T, base string) {
	t.Helper()
	whole, err := func() ([]string, error) {
		st, tbl, err := openTable(t, cloneDir(t, base), testOpts())
		if err != nil {
			return nil, err
		}
		defer st.Close()
		return probeAll(t, tbl), nil
	}()
	if err != nil {
		t.Fatal(err)
	}
	remove := func(fault *vfs.Fault) (dir, name string, ops int) {
		dir = cloneDir(t, base)
		fsys := vfs.NewFaultFS(vfs.OS())
		st, tbl, err := openTable(t, dir, faultOpts(fsys))
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		before := totalOps(fsys)
		if fault != nil {
			fsys.Inject(fault)
		}
		if err := st.Remove(tbl.Name()); (err != nil) != (fault != nil) {
			t.Fatalf("Remove with fault %+v: %v", fault, err)
		}
		return dir, tbl.Name(), totalOps(fsys) - before
	}
	dir, name, ops := remove(nil)
	if left := fileset(t, dir); len(left) != 0 {
		t.Fatalf("files survive a drop: %v", left)
	}
	if ops < 5 {
		t.Fatalf("a drop took %d filesystem operations; the sweep is not seeing them", ops)
	}
	fresh, _ := buildTable(t, name, 900, 77)
	want := probeAll(t, fresh)
	dropped := 0
	for k := 0; k < ops; k++ {
		context := fmt.Sprintf("drop crashed at operation %d/%d", k+1, ops)
		dir, _, _ := remove(&vfs.Fault{Op: vfs.OpAny, After: k, Crash: true})
		st, err := Open(dir, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := st.LoadAll()
		if err != nil {
			t.Fatalf("%s: the next warm start fails on %v: %v", context, fileset(t, dir), err)
		}
		if len(loaded) == 1 {
			tbl, err := catalog.New().Register(loaded[0].Name, loaded[0].Engine, loaded[0].Schema)
			if err != nil {
				t.Fatal(err)
			}
			sameProbes(t, whole, probeAll(t, tbl), context+", table still whole")
			st.Close()
			continue
		}
		dropped++
		// the orphans the crash left must not leak into a new table: a
		// crash inside its first checkpoint must find none to pair with
		again, _ := buildTable(t, name, 900, 77)
		if _, err := st.AttachSharded(again, nil, 0); err != nil {
			t.Fatal(err)
		}
		if left := fileset(t, dir); len(left) != 1 || !strings.HasSuffix(left[0], ".wal") {
			t.Errorf("%s: a table created anew starts from %v, want its empty WAL only", context, left)
		}
		if err := st.SaveSharded(again); err != nil {
			t.Fatal(err)
		}
		st.Close()
		st, tbl, err := openTable(t, dir, testOpts())
		if err != nil {
			t.Fatalf("%s: reload of a table created over the orphans %v: %v", context, fileset(t, dir), err)
		}
		sameProbes(t, want, probeAll(t, tbl), context+", table created anew")
		st.Close()
	}
	if dropped == 0 || dropped == ops {
		t.Errorf("%d of %d crashed drops left no table; want some on each side of the manifest unlink", dropped, ops)
	}
}
