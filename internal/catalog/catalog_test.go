package catalog

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sqlfe"
)

func buildPass(t *testing.T, n int) (*dataset.Dataset, *core.Synopsis) {
	t.Helper()
	d := dataset.GenIntelWireless(n, 1)
	s, err := core.Build(d, core.Options{Partitions: 16, SampleSize: 200, Kind: dataset.Sum, Seed: 1})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return d, s
}

func TestRegisterLookupDropList(t *testing.T) {
	_, s := buildPass(t, 2000)
	c := New()
	tbl, err := c.Register("Sensors", s, sqlfe.SchemaFromColNames([]string{"time", "light"}))
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if tbl.Rows() != 2000 {
		t.Errorf("Rows = %d, want 2000", tbl.Rows())
	}
	if tbl.EngineName() != "PASS" {
		t.Errorf("EngineName = %q", tbl.EngineName())
	}
	if tbl.MemoryBytes() <= 0 {
		t.Errorf("MemoryBytes = %d", tbl.MemoryBytes())
	}

	// case-insensitive lookup
	got, err := c.Lookup("sensors")
	if err != nil || got != tbl {
		t.Fatalf("Lookup(sensors) = %v, %v", got, err)
	}

	// duplicate registration rejected
	if _, err := c.Register("SENSORS", s, sqlfe.Schema{}); err == nil {
		t.Error("duplicate Register should fail")
	}
	// empty name rejected
	if _, err := c.Register("  ", s, sqlfe.Schema{}); err == nil {
		t.Error("empty-name Register should fail")
	}

	// unknown lookup names the known tables
	if _, err := c.Lookup("nope"); err == nil || !strings.Contains(err.Error(), "Sensors") {
		t.Errorf("Lookup(nope) error = %v, want it to list known tables", err)
	}

	if names := c.List(); len(names) != 1 || names[0].Name() != "Sensors" {
		t.Errorf("List = %v", names)
	}
	if err := c.Drop("sensors"); err != nil {
		t.Fatalf("Drop: %v", err)
	}
	if err := c.Drop("sensors"); err == nil {
		t.Error("double Drop should fail")
	}
	if _, err := c.Lookup("sensors"); err == nil || !strings.Contains(err.Error(), "no tables registered") {
		t.Errorf("Lookup after drop = %v", err)
	}
}

func TestTableQueryAndBatchMatch(t *testing.T) {
	d, s := buildPass(t, 3000)
	c := New()
	tbl, err := c.Register("t", s, sqlfe.SchemaFromColNames(d.ColNames))
	if err != nil {
		t.Fatal(err)
	}
	qs := []core.BatchQuery{
		{Kind: dataset.Sum, Rect: dataset.Rect1(5, 15)},
		{Kind: dataset.Avg, Rect: dataset.Rect1(0, 10)},
		{Kind: dataset.Count, Rect: dataset.Rect1(2, 20)},
	}
	batch := tbl.QueryBatch(qs)
	for i, q := range qs {
		seq, err := tbl.Query(q.Kind, q.Rect)
		if err != nil {
			t.Fatalf("Query %d: %v", i, err)
		}
		if batch[i].Err != nil {
			t.Fatalf("batch %d: %v", i, batch[i].Err)
		}
		if seq.Estimate != batch[i].Result.Estimate || seq.CIHalf != batch[i].Result.CIHalf {
			t.Errorf("query %d: batch (%v ± %v) != sequential (%v ± %v)",
				i, batch[i].Result.Estimate, batch[i].Result.CIHalf, seq.Estimate, seq.CIHalf)
		}
	}
}

func TestCapabilitiesByEngine(t *testing.T) {
	d, s := buildPass(t, 1500)
	c := New()
	passT, err := c.Register("p", s, sqlfe.SchemaFromColNames(d.ColNames))
	if err != nil {
		t.Fatal(err)
	}
	usT, err := c.Register("u", baselines.NewUniform(d, 100, 0, 7), sqlfe.SchemaFromColNames(d.ColNames))
	if err != nil {
		t.Fatal(err)
	}

	// PASS is updatable and serializable; US is serializable but not
	// updatable.
	before := passT.Rows()
	if err := passT.Insert([]float64{10}, 3.5); err != nil {
		t.Fatalf("PASS Insert: %v", err)
	}
	if passT.Rows() != before+1 {
		t.Errorf("Rows after insert = %d, want %d", passT.Rows(), before+1)
	}
	if err := passT.Delete([]float64{10}, 3.5); err != nil {
		t.Fatalf("PASS Delete: %v", err)
	}
	var buf bytes.Buffer
	if err := passT.Save(&buf); err != nil || buf.Len() == 0 {
		t.Fatalf("PASS Save: %v (%d bytes)", err, buf.Len())
	}

	if err := usT.Insert([]float64{1}, 1); err == nil {
		t.Error("US Insert should report the missing capability")
	}
	var usBuf bytes.Buffer
	if err := usT.Save(&usBuf); err != nil || usBuf.Len() == 0 {
		t.Errorf("US Save: %v (%d bytes)", err, usBuf.Len())
	}
	// US tracks its population size (engine.Sized).
	if usT.Rows() != 1500 {
		t.Errorf("US Rows = %d, want 1500", usT.Rows())
	}

	// PASS groups; US does not.
	if _, err := passT.GroupBy(dataset.Sum, dataset.Rect1(0, 25), 0, []float64{1, 2}); err != nil {
		t.Errorf("PASS GroupBy: %v", err)
	}
	if _, err := usT.GroupBy(dataset.Sum, dataset.Rect1(0, 25), 0, []float64{1}); err == nil {
		t.Error("US GroupBy should report the missing capability")
	}
}

// TestConcurrentQueriesAndUpdates exercises the per-table RWMutex: batched
// queries fan out concurrently while inserts serialise, with the race
// detector watching in CI.
func TestConcurrentQueriesAndUpdates(t *testing.T) {
	d, s := buildPass(t, 2000)
	c := New()
	tbl, err := c.Register("t", s, sqlfe.SchemaFromColNames(d.ColNames))
	if err != nil {
		t.Fatal(err)
	}
	qs := []core.BatchQuery{
		{Kind: dataset.Sum, Rect: dataset.Rect1(5, 15)},
		{Kind: dataset.Count, Rect: dataset.Rect1(0, 20)},
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for _, br := range tbl.QueryBatch(qs) {
					if br.Err != nil {
						t.Errorf("batch query: %v", br.Err)
						return
					}
				}
			}
		}()
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := tbl.Insert([]float64{float64(g + i)}, 1.0); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if tbl.Rows() != 2000+4*20 {
		t.Errorf("Rows = %d, want %d", tbl.Rows(), 2000+4*20)
	}
}

// recordingJournal captures journal calls and can be told to fail, for
// asserting the write-ahead ordering contract.
type recordingJournal struct {
	log        []string
	failAppend bool
}

func (j *recordingJournal) Insert(point []float64, value float64) error {
	if j.failAppend {
		return fmt.Errorf("journal: disk full")
	}
	j.log = append(j.log, "insert")
	return nil
}

func (j *recordingJournal) Delete(point []float64, value float64) error {
	if j.failAppend {
		return fmt.Errorf("journal: disk full")
	}
	j.log = append(j.log, "delete")
	return nil
}

func (j *recordingJournal) InsertMany(points [][]float64, values []float64) error {
	if j.failAppend {
		return fmt.Errorf("journal: disk full")
	}
	j.log = append(j.log, fmt.Sprintf("insertmany(%d)", len(points)))
	return nil
}

func (j *recordingJournal) Rollback() error {
	j.log = append(j.log, "rollback")
	return nil
}

// failingEngine wraps an updatable engine and rejects every update, to
// exercise the apply-failure rollback path.
type failingEngine struct {
	engine.Engine
}

func (f failingEngine) Insert(point []float64, value float64) error {
	return fmt.Errorf("engine: apply refused")
}

func (f failingEngine) Delete(point []float64, value float64) error {
	return fmt.Errorf("engine: apply refused")
}

func TestJournalWriteAheadOrdering(t *testing.T) {
	d, s := buildPass(t, 800)
	c := New()
	tbl, err := c.Register("t", s, sqlfe.SchemaFromColNames(d.ColNames))
	if err != nil {
		t.Fatal(err)
	}
	j := &recordingJournal{}
	tbl.AttachJournal(j)

	if err := tbl.Insert([]float64{3}, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete([]float64{3}, 1.5); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(j.log, ","); got != "insert,delete" {
		t.Errorf("journal log = %q, want insert,delete", got)
	}

	// a failed journal append blocks the in-memory apply entirely
	j.failAppend = true
	rows := tbl.Rows()
	if err := tbl.Insert([]float64{4}, 2); err == nil {
		t.Error("insert succeeded although the journal failed")
	}
	if tbl.Rows() != rows {
		t.Errorf("Rows changed to %d after a refused insert", tbl.Rows())
	}

	// updates to a non-updatable engine must not be journaled at all
	j.failAppend = false
	j.log = nil
	usT, err := c.Register("u", baselines.NewUniform(d, 50, 0, 3), sqlfe.SchemaFromColNames(d.ColNames))
	if err != nil {
		t.Fatal(err)
	}
	usT.AttachJournal(j)
	if err := usT.Insert([]float64{1}, 1); err == nil {
		t.Error("US insert should fail (no capability)")
	}
	if len(j.log) != 0 {
		t.Errorf("journal received %v for a non-updatable engine", j.log)
	}
}

func TestJournalRollbackOnApplyFailure(t *testing.T) {
	d, s := buildPass(t, 800)
	c := New()
	tbl, err := c.Register("t", failingEngine{Engine: s}, sqlfe.SchemaFromColNames(d.ColNames))
	if err != nil {
		t.Fatal(err)
	}
	j := &recordingJournal{}
	tbl.AttachJournal(j)
	if err := tbl.Insert([]float64{3}, 1.5); err == nil {
		t.Fatal("insert succeeded although the engine refused the apply")
	}
	if got := strings.Join(j.log, ","); got != "insert,rollback" {
		t.Errorf("journal log = %q, want insert,rollback", got)
	}
}

func TestCheckpointNotSerializable(t *testing.T) {
	d, _ := buildPass(t, 600)
	c := New()
	usEng := baselines.NewUniform(d, 50, 0, 3)
	// strip the capability by wrapping in a bare engine view
	tbl, err := c.Register("u", queryOnly{usEng}, sqlfe.SchemaFromColNames(d.ColNames))
	if err != nil {
		t.Fatal(err)
	}
	err = tbl.CheckpointShards(func(engine.ShardInfo, string, sqlfe.Schema, [][]byte, []int, int) error { return nil })
	if !errors.Is(err, engine.ErrNotSerializable) {
		t.Errorf("CheckpointShards error = %v, want ErrNotSerializable", err)
	}
	var buf bytes.Buffer
	if err := tbl.Save(&buf); !errors.Is(err, engine.ErrNotSerializable) {
		t.Errorf("Save error = %v, want ErrNotSerializable", err)
	}
}

func TestCheckpointFlushSeesConsistentState(t *testing.T) {
	d, s := buildPass(t, 900)
	c := New()
	tbl, err := c.Register("t", s, sqlfe.SchemaFromColNames(d.ColNames))
	if err != nil {
		t.Fatal(err)
	}
	var gotEngine string
	var gotRows int
	var payload []byte
	// an unsharded engine checkpoints as the one-shard case: one payload
	// under an empty routing policy
	err = tbl.CheckpointShards(func(info engine.ShardInfo, engineName string, schema sqlfe.Schema, ps [][]byte, shardRows []int, rows int) error {
		if info.Shards != 1 || info.Policy != "" || len(info.Bounds) != 1 || len(ps) != 1 || len(shardRows) != 1 || shardRows[0] != rows {
			t.Errorf("flush saw info %+v, %d payloads, shard rows %v", info, len(ps), shardRows)
			return nil
		}
		gotEngine, gotRows, payload = engineName, rows, ps[0]
		if schema.AggColumn == "" {
			t.Error("flush saw an empty schema")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotEngine != "PASS" || gotRows != 900 || len(payload) == 0 {
		t.Errorf("flush saw engine=%q rows=%d payload=%d bytes", gotEngine, gotRows, len(payload))
	}
	if _, err := core.Load(bytes.NewReader(payload)); err != nil {
		t.Errorf("flushed payload does not load: %v", err)
	}
}

// queryOnly hides every optional capability of an engine.
type queryOnly struct {
	engine.Engine
}

// pickyEngine applies inserts until a poisoned value arrives, to exercise
// InsertMany's mid-batch failure handling.
type pickyEngine struct {
	engine.Engine
	applied int
}

func (p *pickyEngine) Insert(point []float64, value float64) error {
	if value == 999 {
		return fmt.Errorf("engine: poisoned value")
	}
	p.applied++
	return nil
}

func (p *pickyEngine) Delete(point []float64, value float64) error { return nil }

func TestInsertManyGroupCommitAndPartialFailure(t *testing.T) {
	d, s := buildPass(t, 600)
	c := New()
	tbl, err := c.Register("t", s, sqlfe.SchemaFromColNames(d.ColNames))
	if err != nil {
		t.Fatal(err)
	}
	j := &recordingJournal{}
	tbl.AttachJournal(j)

	points := [][]float64{{1}, {2}, {3}}
	values := []float64{10, 20, 30}
	n, err := tbl.InsertMany(points, values)
	if err != nil || n != 3 {
		t.Fatalf("InsertMany = %d, %v", n, err)
	}
	if got := strings.Join(j.log, ","); got != "insertmany(3)" {
		t.Errorf("journal log = %q, want one group commit", got)
	}

	// mid-batch apply failure: the journal must be rewound to exactly the
	// applied prefix
	picky := &pickyEngine{Engine: s}
	tbl2, err := c.Register("t2", picky, sqlfe.SchemaFromColNames(d.ColNames))
	if err != nil {
		t.Fatal(err)
	}
	j2 := &recordingJournal{}
	tbl2.AttachJournal(j2)
	n, err = tbl2.InsertMany([][]float64{{1}, {2}, {3}}, []float64{10, 999, 30})
	if err == nil {
		t.Fatal("poisoned batch succeeded")
	}
	if n != 1 || picky.applied != 1 {
		t.Errorf("applied = %d (engine saw %d), want 1", n, picky.applied)
	}
	if got := strings.Join(j2.log, ","); got != "insertmany(3),rollback,insertmany(1)" {
		t.Errorf("journal log = %q, want group, rollback, re-journal of applied prefix", got)
	}

	// length mismatch is rejected before touching anything
	if _, err := tbl.InsertMany([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("mismatched batch accepted")
	}
}
