package pass

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/factory"
	"repro/internal/store"
)

func testStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{CheckpointInterval: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// persistFixture builds a deterministic 1D table and synopsis.
func persistFixture(t *testing.T) (*Table, *Synopsis) {
	t.Helper()
	tbl := NewTable([]string{"hour"}, "light")
	for i := 0; i < 3000; i++ {
		tbl.Append([]float64{float64(i % 24)}, float64(i%100)/10)
	}
	syn, err := Build(tbl, Options{Partitions: 16, SampleRate: 0.05, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return tbl, syn
}

var recoveryQueries = []string{
	"SELECT COUNT(*) FROM sensors",
	"SELECT SUM(light) FROM sensors",
	"SELECT SUM(light) FROM sensors WHERE hour BETWEEN 6 AND 18",
	"SELECT AVG(light) FROM sensors WHERE hour >= 3 AND hour <= 9",
}

// TestSessionCrashRecoveryMatchesInMemoryTwin is the acceptance scenario:
// register a table in a durable session, insert (and delete) rows that
// reach only the WAL, crash without a checkpoint, reopen against the same
// data dir — every answer must match a twin session that kept the whole
// history in memory, and nothing may be rebuilt.
func TestSessionCrashRecoveryMatchesInMemoryTwin(t *testing.T) {
	dir := t.TempDir()
	_, syn := persistFixture(t)

	// the twin starts from the synopsis's serialized form (the exact state
	// the snapshot captures) and stays in memory for the whole test
	var payload bytes.Buffer
	if err := syn.Save(&payload); err != nil {
		t.Fatal(err)
	}
	twinSyn, err := LoadSynopsis(&payload)
	if err != nil {
		t.Fatal(err)
	}
	twinSyn.SetSchema([]string{"hour"}, "light", nil)
	twin := NewSession()
	if err := twin.Register("sensors", twinSyn); err != nil {
		t.Fatal(err)
	}

	st := testStore(t, dir)
	sess := NewSession()
	if n, err := sess.AttachStore(st); err != nil || n != 0 {
		t.Fatalf("AttachStore on empty dir = %d, %v", n, err)
	}
	if err := sess.Register("sensors", syn); err != nil {
		t.Fatal(err)
	}

	// journaled updates: inserts plus a few deletes, mirrored into the twin
	for i := 0; i < 120; i++ {
		pt := []float64{float64(i % 24)}
		v := float64(i) / 3
		if err := sess.Insert("sensors", pt, v); err != nil {
			t.Fatal(err)
		}
		if err := twin.Insert("sensors", pt, v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		pt := []float64{float64(i)}
		v := float64(i * 3)
		if err := sess.Delete("sensors", pt, v); err != nil {
			t.Fatal(err)
		}
		if err := twin.Delete("sensors", pt, v); err != nil {
			t.Fatal(err)
		}
	}

	// crash: the store is closed with the WAL intact and the snapshot stale
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	recovered := NewSession()
	st2 := testStore(t, dir)
	defer st2.Close()
	n, err := recovered.AttachStore(st2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d tables, want 1", n)
	}
	tabs := recovered.Tables()
	if len(tabs) != 1 || tabs[0].Name != "sensors" || tabs[0].Engine != "PASS" {
		t.Fatalf("recovered tables = %+v", tabs)
	}
	if want := 3000 + 120 - 10; tabs[0].Rows != want {
		t.Errorf("recovered Rows = %d, want %d", tabs[0].Rows, want)
	}

	for _, q := range recoveryQueries {
		want, err1 := twin.Exec(q)
		got, err2 := recovered.Exec(q)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: errors diverge: %v vs %v", q, err1, err2)
		}
		if want.Scalar.Estimate != got.Scalar.Estimate || want.Scalar.CIHalf != got.Scalar.CIHalf {
			t.Errorf("%s: recovered %v±%v, twin %v±%v",
				q, got.Scalar.Estimate, got.Scalar.CIHalf, want.Scalar.Estimate, want.Scalar.CIHalf)
		}
	}
}

// TestSessionCloseCheckpointsEverything: a graceful shutdown folds the WAL
// into the snapshot, so the next boot replays nothing.
func TestSessionCloseCheckpointsEverything(t *testing.T) {
	dir := t.TempDir()
	_, syn := persistFixture(t)
	sess := NewSession()
	st := testStore(t, dir)
	if _, err := sess.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	if err := sess.Register("sensors", syn); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := sess.Insert("sensors", []float64{float64(i % 24)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := testStore(t, dir)
	defer st2.Close()
	loaded, err := st2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || loaded[0].Replayed != 0 {
		t.Fatalf("after graceful close: loaded = %+v, want 1 table with an empty WAL", loaded)
	}
}

// TestSessionDropRemovesPersistedFiles: a dropped table must not come back
// on the next boot.
func TestSessionDropRemovesPersistedFiles(t *testing.T) {
	dir := t.TempDir()
	_, syn := persistFixture(t)
	sess := NewSession()
	st := testStore(t, dir)
	if _, err := sess.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	if err := sess.Register("sensors", syn); err != nil {
		t.Fatal(err)
	}
	if err := sess.Drop("sensors"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	recovered := NewSession()
	st2 := testStore(t, dir)
	defer st2.Close()
	if n, err := recovered.AttachStore(st2); err != nil || n != 0 {
		t.Fatalf("dropped table resurrected: %d tables, %v", n, err)
	}
}

// TestSessionRegisterNotSerializable: a durable session must refuse — with
// the typed sentinel, not silently — a table it cannot persist (a
// comparator engine without Save), leaving neither a catalog entry nor
// files behind.
func TestSessionRegisterNotSerializable(t *testing.T) {
	dir := t.TempDir()
	tbl, _ := persistFixture(t)
	eng, err := factory.Build("verdictdb", tbl.inner, factory.Spec{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.(engine.Serializable); ok {
		t.Fatalf("engine %s is serializable; the test needs one that is not", eng.Name())
	}
	sess := NewSession()
	st := testStore(t, dir)
	defer st.Close()
	if _, err := sess.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	err = sess.RegisterEngine("sensors", eng, tbl.schema())
	if !errors.Is(err, engine.ErrNotSerializable) {
		t.Fatalf("RegisterEngine error = %v, want ErrNotSerializable", err)
	}
	if len(sess.Tables()) != 0 {
		t.Fatal("failed RegisterEngine left the table in the catalog")
	}
	st.Close()
	st2 := testStore(t, dir)
	defer st2.Close()
	if loaded, err := st2.LoadAll(); err != nil || len(loaded) != 0 {
		t.Fatalf("refused table left a fileset: %v, %v", loaded, err)
	}
}

// TestSessionConcurrentInsertCheckpointQuery runs SQL, inserts and
// checkpoints concurrently under -race.
func TestSessionConcurrentInsertCheckpointQuery(t *testing.T) {
	dir := t.TempDir()
	_, syn := persistFixture(t)
	sess := NewSession()
	st := testStore(t, dir)
	if _, err := sess.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	if err := sess.Register("sensors", syn); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 150; i++ {
			if err := sess.Insert("sensors", []float64{float64(i % 24)}, float64(i)); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			if err := sess.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if _, err := sess.Exec(fmt.Sprintf("SELECT SUM(light) FROM sensors WHERE hour <= %d", i%24)); err != nil && err != ErrNoMatch {
				t.Errorf("query: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}
