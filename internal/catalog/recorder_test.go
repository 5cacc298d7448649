package catalog

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sqlfe"
)

// observation is one ObserveQuery call, without the elapsed time (a
// measurement, not part of the hand-off).
type observation struct {
	table  string
	kind   dataset.AggKind
	rect   dataset.Rect
	result core.Result
	rows   int
	gen    uint64
}

// fakeRecorder keeps every ObserveQuery call it receives.
type fakeRecorder struct {
	mu    sync.Mutex
	calls []observation
}

func (f *fakeRecorder) ObserveQuery(table string, kind dataset.AggKind, q dataset.Rect, r core.Result, n int, _ time.Duration, gen uint64) {
	f.mu.Lock()
	f.calls = append(f.calls, observation{table, kind, q, r, n, gen})
	f.mu.Unlock()
}

// take returns the calls received since the last take.
func (f *fakeRecorder) take() []observation {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.calls
	f.calls = nil
	return out
}

// TestRecorderSeesSingleAsBatchOfOne checks the catalog-to-recorder
// hand-off on unsharded and sharded engines: Table.Query and a batch of
// one deliver the same ObserveQuery call — table, kind, rectangle, the
// result as returned, row count and generation stamp — and a query that
// errors delivers none.
func TestRecorderSeesSingleAsBatchOfOne(t *testing.T) {
	_, plain := buildPass(t, 2000)
	for _, tc := range []struct {
		name string
		eng  engine.Engine
	}{
		{"unsharded", plain},
		{"sharded", buildSharded(t, 3000, 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl, err := New().Register("sensors", tc.eng, sqlfe.Schema{PredColumns: []string{"t"}, AggColumn: "v"})
			if err != nil {
				t.Fatal(err)
			}
			rec := &fakeRecorder{}
			tbl.AttachAdaptive(rec)
			// one update, so the stamp is not the zero generation
			if err := tbl.Insert([]float64{1500}, 2.5); err != nil {
				t.Fatal(err)
			}
			for _, q := range []core.BatchQuery{
				{Kind: dataset.Sum, Rect: dataset.Rect1(100, 1700)},
				{Kind: dataset.Count, Rect: dataset.Rect1(-1e9, 1e9)},
				{Kind: dataset.Avg, Rect: dataset.Rect1(400, 900)},
				{Kind: dataset.Max, Rect: dataset.Rect1(2500, 2600)},
			} {
				r, err := tbl.Query(q.Kind, q.Rect)
				if err != nil {
					t.Fatalf("Query %v %v: %v", q.Kind, q.Rect, err)
				}
				single := rec.take()
				br := tbl.QueryBatch([]core.BatchQuery{q})[0]
				if br.Err != nil {
					t.Fatalf("batch of one %v %v: %v", q.Kind, q.Rect, br.Err)
				}
				batch := rec.take()
				if len(single) != 1 || len(batch) != 1 {
					t.Fatalf("%v %v: %d observations from Query, %d from a batch of one; want 1 each", q.Kind, q.Rect, len(single), len(batch))
				}
				want := observation{"sensors", q.Kind, q.Rect, r, tbl.Rows(), tbl.Gen()}
				if !reflect.DeepEqual(single[0], want) {
					t.Errorf("Query observed %+v, want %+v", single[0], want)
				}
				if !reflect.DeepEqual(batch[0], single[0]) {
					t.Errorf("batch of one observed %+v, Query %+v", batch[0], single[0])
				}
			}

			expired, cancel := context.WithCancel(context.Background())
			cancel()
			bad := core.BatchQuery{Kind: dataset.Sum, Rect: dataset.Rect{}} // no dimensions
			if _, err := tbl.Query(bad.Kind, bad.Rect); err == nil {
				t.Error("a rectangle with no dimensions must fail Query")
			}
			if br := tbl.QueryBatch([]core.BatchQuery{bad})[0]; br.Err == nil {
				t.Error("a rectangle with no dimensions must fail a batch of one")
			}
			if _, err := tbl.QueryCtx(expired, dataset.Sum, dataset.Rect1(0, 10)); err == nil {
				t.Error("an expired context must fail QueryCtx")
			}
			if got := rec.take(); len(got) != 0 {
				t.Errorf("failed queries delivered %d observations: %+v", len(got), got)
			}
		})
	}
}
