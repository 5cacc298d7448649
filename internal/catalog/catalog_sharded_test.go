package catalog

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/shard"
	"repro/internal/sqlfe"
)

func buildSharded(t *testing.T, n, shards int) *shard.Engine {
	t.Helper()
	d := dataset.GenIntelWireless(n, 3)
	e, err := shard.Build(d, shard.Range, 0, shards, func(i int, sd *dataset.Dataset) (engine.Engine, error) {
		return core.Build(sd, core.Options{Partitions: 8, SampleSize: 100, Kind: dataset.Sum, Seed: uint64(i + 1)})
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestShardStatsOnShardedAndUnshardedTables(t *testing.T) {
	c := New()
	e := buildSharded(t, 3000, 3)
	tbl, err := c.Register("trips", e, sqlfe.Schema{PredColumns: []string{"t"}, AggColumn: "v"})
	if err != nil {
		t.Fatal(err)
	}
	info, rows, scatter, ok := tbl.ShardStats()
	if !ok || info.Shards != 3 || len(rows) != 3 || len(scatter.Scattered) != 3 {
		t.Fatalf("ShardStats = %+v, %v, %+v, %v", info, rows, scatter, ok)
	}
	total := 0
	for _, r := range rows {
		total += r
	}
	if total != 3000 {
		t.Errorf("shard rows sum to %d, want 3000", total)
	}
	_, s := buildPass(t, 1000)
	plain, err := c.Register("plain", s, sqlfe.Schema{PredColumns: []string{"t"}, AggColumn: "v"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := plain.ShardStats(); ok {
		t.Error("unsharded table claims shard stats")
	}
}

func TestCheckpointShardsCapturesEveryShard(t *testing.T) {
	c := New()
	e := buildSharded(t, 3000, 3)
	tbl, err := c.Register("trips", e, sqlfe.Schema{PredColumns: []string{"t"}, AggColumn: "v"})
	if err != nil {
		t.Fatal(err)
	}
	err = tbl.CheckpointShards(func(info engine.ShardInfo, innerEngine string, schema sqlfe.Schema, payloads [][]byte, shardRows []int, rows int) error {
		if info.Shards != 3 || len(payloads) != 3 || len(shardRows) != 3 {
			t.Errorf("flush got info %+v, %d payloads, %d shardRows", info, len(payloads), len(shardRows))
		}
		if innerEngine != "PASS" {
			t.Errorf("inner engine = %q", innerEngine)
		}
		if rows != 3000 {
			t.Errorf("rows = %d", rows)
		}
		for i, p := range payloads {
			if len(p) == 0 {
				t.Errorf("shard %d payload empty", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShardedConcurrentUpdatesAndQueriesNoJournal runs inserts beside
// queries on a sharded table without a journal: every insert takes the
// write-order lock and the exclusive apply like a journaled one, and the
// row count comes out exact (validated under -race).
func TestShardedConcurrentUpdatesAndQueriesNoJournal(t *testing.T) {
	c := New()
	e := buildSharded(t, 3000, 3)
	tbl, err := c.Register("trips", e, sqlfe.Schema{PredColumns: []string{"t"}, AggColumn: "v"})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if err := tbl.Insert([]float64{float64(g * 9)}, 1.0); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, err := tbl.Query(dataset.Count, dataset.Rect1(0, 30)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := tbl.Rows(); got != 3000+3*40 {
		t.Errorf("rows = %d after %d concurrent inserts, want %d", got, 3*40, 3000+3*40)
	}
}

func TestListSortsCaseInsensitively(t *testing.T) {
	c := New()
	_, s := buildPass(t, 500)
	for _, name := range []string{"Bravo", "alpha", "Delta", "charlie"} {
		if _, err := c.Register(name, s, sqlfe.Schema{PredColumns: []string{"t"}, AggColumn: "v"}); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"alpha", "Bravo", "charlie", "Delta"}
	got := c.List()
	for i, tbl := range got {
		if tbl.Name() != want[i] {
			names := make([]string, len(got))
			for j, g := range got {
				names[j] = g.Name()
			}
			t.Fatalf("List order = %v, want %v", names, want)
		}
	}
	// the unknown-table error names tables in the same stable order
	_, err := c.Lookup("ghost")
	if err == nil || !strings.Contains(err.Error(), "alpha, Bravo, charlie, Delta") {
		t.Errorf("Lookup error = %v, want the sorted known-table list", err)
	}
}
