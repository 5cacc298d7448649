package catalog

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sqlfe"
)

func buildTestSynopsis(t *testing.T, n int) *core.Synopsis {
	t.Helper()
	d := dataset.New("t", 1)
	for i := 0; i < n; i++ {
		d.Append([]float64{float64(i)}, float64(i%10))
	}
	s, err := core.Build(d, core.Options{Partitions: 16, SampleRate: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func registerAdaptiveTable(t *testing.T, n int) (*Table, *adaptive.Collector) {
	t.Helper()
	cat := New()
	tbl, err := cat.Register("t", buildTestSynopsis(t, n), sqlfe.SchemaFromColNames([]string{"x", "v"}))
	if err != nil {
		t.Fatal(err)
	}
	col := adaptive.NewCollector(256)
	tbl.AttachAdaptive(col)
	return tbl, col
}

// TestTableCacheHitAndRecord checks the recorder sees every answered
// query exactly as the caller does, on both read entry points: one
// observation per single Query and per batched query, carrying the
// predicate range and the returned result, and none for a failed query.
func TestTableCacheHitAndRecord(t *testing.T) {
	tbl, col := registerAdaptiveTable(t, 1000)
	r, err := tbl.Query(dataset.Sum, dataset.Rect1(100, 500))
	if err != nil {
		t.Fatal(err)
	}
	qs := []core.BatchQuery{
		{Kind: dataset.Sum, Rect: dataset.Rect1(0, 100)},
		{Kind: dataset.Count, Rect: dataset.Rect1(-1, 2000)}, // whole table: exact
	}
	out := tbl.QueryBatch(qs)
	for i, br := range out {
		if br.Err != nil {
			t.Fatalf("query %d: %v", i, br.Err)
		}
	}
	w := col.Window("t")
	if len(w) != 3 {
		t.Fatalf("recorded %d observations, want 3 (1 single + 2 batched)", len(w))
	}
	want := []struct {
		kind   dataset.AggKind
		lo, hi float64
		res    core.Result
	}{
		{dataset.Sum, 100, 500, r},
		{dataset.Sum, 0, 100, out[0].Result},
		{dataset.Count, -1, 2000, out[1].Result},
	}
	for i, o := range w {
		if o.Kind != want[i].kind || o.Lo != want[i].lo || o.Hi != want[i].hi ||
			o.Exact != want[i].res.Exact || o.NoMatch != want[i].res.NoMatch {
			t.Errorf("observation %d = %+v, want %v [%v, %v] of %+v", i, o, want[i].kind, want[i].lo, want[i].hi, want[i].res)
		}
	}
	if !w[2].Exact {
		t.Error("whole-table COUNT must be recorded as exact")
	}

	// an expired deadline fails the query: nothing is recorded
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tbl.QueryCtx(ctx, dataset.Sum, dataset.Rect1(0, 10)); err == nil {
		t.Fatal("cancelled ctx must fail the query")
	}
	if br := tbl.QueryBatchCtx(ctx, qs); br[0].Err == nil {
		t.Fatal("cancelled ctx must fail the batch")
	}
	if st, _ := col.Stats("t"); st.Total != 3 {
		t.Fatalf("failed queries were recorded: total %d, want 3", st.Total)
	}
}

// TestTableCacheInvalidatedByWrite: a read after a write reflects it.
func TestTableCacheInvalidatedByWrite(t *testing.T) {
	tbl, _ := registerAdaptiveTable(t, 1000)
	q := dataset.Rect1(-1, 2000) // full range: COUNT is exact

	before, err := tbl.Query(dataset.Count, q)
	if err != nil {
		t.Fatal(err)
	}
	if before.Estimate != 1000 {
		t.Fatalf("count = %v, want 1000", before.Estimate)
	}
	if err := tbl.Insert([]float64{500}, 1); err != nil {
		t.Fatal(err)
	}
	after, err := tbl.Query(dataset.Count, q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Estimate != 1001 {
		t.Fatalf("post-insert count = %v, want 1001", after.Estimate)
	}
}

// TestCacheInvalidationRace is the catalog-level monotone-read check: one
// writer streams inserts into the queried range while recorded readers
// hammer the same COUNT. Counts observed by any single reader must never
// decrease, and the final drained answer must be exact. Run under -race
// this also exercises the recorder against concurrent updates.
func TestCacheInvalidationRace(t *testing.T) {
	tbl, _ := registerAdaptiveTable(t, 2000)
	q := dataset.Rect1(-1, 1e9)

	const inserts = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := -1.0
			for {
				select {
				case <-stop:
					return
				default:
				}
				r, err := tbl.Query(dataset.Count, q)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if r.Estimate < last {
					t.Errorf("count went back: %v after having seen %v", r.Estimate, last)
					return
				}
				last = r.Estimate
			}
		}()
	}
	for i := 0; i < inserts; i++ {
		if err := tbl.Insert([]float64{float64(i)}, 1); err != nil {
			t.Fatal(err)
		}
		if i%50 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()
	r, err := tbl.Query(dataset.Count, q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Estimate != 2000+inserts {
		t.Fatalf("final count = %v, want %d", r.Estimate, 2000+inserts)
	}
}

// countingObserver records the updates the catalog reports, for the
// observer and swap tests.
type countingObserver struct {
	mu      sync.Mutex
	inserts [][]float64
	deletes int
}

func (o *countingObserver) ObserveInsert(p []float64, v float64) {
	o.mu.Lock()
	o.inserts = append(o.inserts, append([]float64(nil), p...))
	o.mu.Unlock()
}

func (o *countingObserver) ObserveDelete(p []float64, v float64) {
	o.mu.Lock()
	o.deletes++
	o.mu.Unlock()
}

func TestObserverTracksUpdates(t *testing.T) {
	cat := New()
	tbl, err := cat.Register("t", buildTestSynopsis(t, 100), sqlfe.SchemaFromColNames([]string{"x", "v"}))
	if err != nil {
		t.Fatal(err)
	}
	obs := &countingObserver{}
	tbl.AttachObserver(obs)
	if err := tbl.Insert([]float64{5}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.InsertMany([][]float64{{6}, {7}}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete([]float64{5}, 1); err != nil {
		t.Fatal(err)
	}
	if len(obs.inserts) != 3 || obs.deletes != 1 {
		t.Fatalf("observer saw %d inserts / %d deletes, want 3/1", len(obs.inserts), obs.deletes)
	}
}

func TestSwapEngine(t *testing.T) {
	tbl, _ := registerAdaptiveTable(t, 1000)
	q := dataset.Rect1(-1, 1e9)
	if _, err := tbl.Query(dataset.Count, q); err != nil {
		t.Fatal(err)
	}
	gen := tbl.Gen()
	bigger := buildTestSynopsis(t, 1500)
	err := tbl.SwapEngine(func(old engine.Engine) (engine.Engine, error) {
		if old == nil {
			t.Error("prep received nil old engine")
		}
		return bigger, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Gen() != gen+2 {
		t.Fatalf("swap advanced generation by %d, want 2", tbl.Gen()-gen)
	}
	if tbl.Rows() != 1500 {
		t.Fatalf("rows = %d, want resynced 1500", tbl.Rows())
	}
	r, err := tbl.Query(dataset.Count, q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Estimate != 1500 {
		t.Fatalf("post-swap count = %v, want 1500 (old engine still serving?)", r.Estimate)
	}
	// a failing prep leaves the old engine serving
	if err := tbl.SwapEngine(func(engine.Engine) (engine.Engine, error) {
		return nil, nil
	}); err == nil {
		t.Fatal("nil successor must be an error")
	}
	if tbl.Rows() != 1500 {
		t.Fatal("failed swap must leave the table untouched")
	}
}

// genProbe is an UpdateObserver that reads the table generation from
// inside each applied update, and whether the update holds the exclusive
// lock (a shared reader cannot get in beside it).
type genProbe struct {
	tbl       *Table
	readings  []uint64
	exclusive []bool
}

func (p *genProbe) read() {
	excl := !p.tbl.mu.TryRLock()
	if !excl {
		p.tbl.mu.RUnlock()
	}
	p.readings = append(p.readings, p.tbl.Gen())
	p.exclusive = append(p.exclusive, excl)
}

func (p *genProbe) ObserveInsert([]float64, float64) { p.read() }
func (p *genProbe) ObserveDelete([]float64, float64) { p.read() }

// TestGenerationDiscipline pins what the auditor's stale check relies on:
// every update and engine swap — failed ones included — advances Gen by
// exactly two, a reading taken inside it is odd, and it holds the state
// lock exclusively — for one synopsis and for a sharded engine alike.
func TestGenerationDiscipline(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) engine.Engine
	}{
		{"exclusive", func(t *testing.T) engine.Engine { return buildTestSynopsis(t, 1000) }},
		{"sharded", func(t *testing.T) engine.Engine { return buildSharded(t, 3000, 3) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl, err := New().Register("t", tc.build(t), sqlfe.SchemaFromColNames([]string{"x", "v"}))
			if err != nil {
				t.Fatal(err)
			}
			p := &genProbe{tbl: tbl}
			tbl.AttachObserver(p)
			step := func(op string, applied int, wantErr bool, fn func() error) {
				t.Helper()
				p.readings, p.exclusive = nil, nil
				before := tbl.Gen()
				if err := fn(); (err != nil) != wantErr {
					t.Fatalf("%s: err = %v, want error %v", op, err, wantErr)
				}
				if d := tbl.Gen() - before; d != 2 {
					t.Errorf("%s advanced Gen by %d, want 2", op, d)
				}
				if len(p.readings) != applied {
					t.Fatalf("%s: observer saw %d applied rows, want %d", op, len(p.readings), applied)
				}
				for i, g := range p.readings {
					if g%2 != 1 {
						t.Errorf("%s: Gen read inside the update = %d, want odd", op, g)
					}
					if !p.exclusive[i] {
						t.Errorf("%s ran without the exclusive lock", op)
					}
				}
			}
			pt, val := []float64{5}, 1.0
			step("Insert", 1, false, func() error { return tbl.Insert(pt, val) })
			step("Delete", 1, false, func() error { return tbl.Delete(pt, val) })
			step("Insert failed", 0, true, func() error { return tbl.Insert(nil, val) })
			step("InsertMany", 3, false, func() error {
				_, err := tbl.InsertMany([][]float64{{6}, {7}, {8}}, []float64{1, 2, 3})
				return err
			})
			step("InsertMany failed at row 2", 2, true, func() error {
				n, err := tbl.InsertMany([][]float64{{6}, {7}, nil, {8}}, []float64{1, 2, 3, 4})
				if n != 2 {
					t.Errorf("InsertMany applied %d rows, want 2", n)
				}
				return err
			})
			step("SwapEngine", 0, false, func() error {
				return tbl.SwapEngine(func(engine.Engine) (engine.Engine, error) {
					if g := tbl.Gen(); g%2 != 1 {
						t.Errorf("Gen read inside SwapEngine = %d, want odd", g)
					}
					if tbl.mu.TryRLock() {
						tbl.mu.RUnlock()
						t.Error("SwapEngine must hold the exclusive lock")
					}
					return tc.build(t), nil
				})
			})
			step("SwapEngine failed", 0, true, func() error {
				return tbl.SwapEngine(func(engine.Engine) (engine.Engine, error) { return nil, nil })
			})
		})
	}
}
